/**
 * @file
 * Self-tests of the benchmark's own code: the percentile and its
 * sample rule, the metric-name grammar, warm/cold classification of
 * serve responses, and the traced driver against runOnce on a 4-core
 * micro scenario.  Exit status 0 when every check holds.
 *
 *   perfbench_selftest [SCRATCH_DIR]   (default .perfbench_tmp)
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "api/scenario.hh"
#include "harness/runner.hh"
#include "service/store.hh"

#include "layers.hh"
#include "stats.hh"
#include "traced.hh"

using namespace perfbench;

namespace
{

int gFailures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++gFailures;
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Percentile p50 = percentile(v, 50), p90 = percentile(v, 90);
    check(p50.value == 50 && p50.beyond == 50 && p50.ok,
          "p50 of 1..100 is 50 with 50 beyond");
    check(p90.value == 90 && p90.beyond == 10 && p90.ok,
          "p90 of 1..100 is 90 with exactly 10 beyond");
    check(!percentile(v, 99).ok, "p99 of 100 samples breaks the rule");
    check(samplesNeeded(50) == 20 && samplesNeeded(90) == 100 &&
              samplesNeeded(99) == 1000,
          "samples needed: p50 20, p90 100, p99 1000");
    std::vector<double> big(1000, 1.0), short_(999, 1.0);
    check(percentile(big, 99).ok && percentile(big, 99).beyond == 10,
          "p99 of 1000 samples has 10 beyond");
    check(!percentile(short_, 99).ok, "p99 of 999 samples has 9 beyond");
    check(percentile({}, 50).samples == 0 && !percentile({}, 50).ok,
          "an empty sample has no percentile");
    check(percentile({7.0}, 99).value == 7.0, "a single sample is every "
                                               "percentile");
    check(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5,
          "median of odd and even samples");
}

void
testMetricNames()
{
    for (const char *good : {"wall_s", "edram.share", "warm_p99_ms",
                             "sim.core-events", "0x"})
        check(validMetricName(good), std::string("valid name ") + good);
    for (const char *bad : {"", ".share", "_x", "-x", "a b", "a/b",
                            "a\tb", "latency[ms]"})
        check(!validMetricName(bad),
              std::string("invalid name '") + bad + "'");
    check(validMetricName(std::string(64, 'a')) &&
              !validMetricName(std::string(65, 'a')),
          "names are at most 64 characters");
}

Response
respond(const std::vector<std::string> &lines)
{
    Response r;
    for (const std::string &l : lines)
        if (r.addLine(l + "\n"))
            break;
    return r;
}

void
testClassification()
{
    const std::string row = "{\"plan\":\"p\",\"key\":\"k\",\"simulated\":false}";
    const auto done = [](int n, int warm, int cold) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "{\"done\":true,\"plan\":\"p\",\"scenarios\":%d,"
                      "\"warm\":%d,\"cold\":%d,\"queueDepth\":1,"
                      "\"wallSeconds\":0.002,\"msPerScenario\":1}",
                      n, warm, cold);
        return std::string(buf);
    };
    const Response warm = respond({row, row, done(2, 2, 0)});
    check(classify(ReqKind::Warm, 2, warm).empty(), "all-warm answer is warm");
    check(warm.rows == 2 && warm.rowBytes == row + "\n" + row + "\n",
          "row bytes kept verbatim");
    check(warm.queueDepth == 1 && warm.wallSeconds == 0.002,
          "done line fields parsed");
    check(classify(ReqKind::Cold, 2, warm) == "cold_not_simulated",
          "all-warm answer to a cold request fails");
    check(classify(ReqKind::Warm, 2, respond({row, row, done(2, 1, 1)})) ==
              "warm_simulated",
          "a simulated scenario in a warm request fails");
    check(classify(ReqKind::Cold, 1, respond({row, done(1, 0, 1)})).empty(),
          "one simulation answers a cold request");
    check(classify(ReqKind::Warm, 2, respond({row, done(2, 2, 0)})) ==
              "missing_rows",
          "a missing row fails");
    check(classify(ReqKind::Warm, 2, respond({row, row})) == "missing_done",
          "an answer without a done line fails");
    check(classify(ReqKind::Warm, 2, respond({"{\"error\":\"overloaded\"}"})) ==
              "shed",
          "an overloaded answer is a shed");
    check(classify(ReqKind::Warm, 2, respond({row, "{\"error\":\"deadline\"}"})) ==
              "error_line",
          "an error line fails");
    Failures f;
    f.attempt(4);
    f.fail("shed");
    check(f.okFraction() == 0.75 && f.reasons["shed"] == 1,
          "failures count against attempts");
}

void
testTracedDriver(const std::filesystem::path &scratch)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        scratch / ("selftest-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    Clock::calibrate();
    SpanLog log;
    for (const char *config : {"SRAM", "R.WB(32,32)", "P.all"}) {
        refrint::Scenario sc;
        sc.app = "micro.uniform";
        sc.config = config;
        sc.retentionUs = std::string(config) == "SRAM" ? 0 : 50;
        sc.cores = 4;
        sc.sim.refsPerCore = 3000;
        const refrint::EnergyParams energy = refrint::EnergyParams::calibrated();
        const refrint::MachineConfig cfg = sc.machine(energy);

        refrint::RunResult want =
            refrint::runOnce(cfg, sc.resolveWorkload(), sc.sim, energy);
        refrint::reconstructEnergyMatrix(
            want.energy, energy, cfg, want.execTicks,
            static_cast<double>(want.counts.l3Refreshes));

        refrint::ShardedStore store((dir / config).string());
        auto buf = log.buffer();
        LayerTotals t;
        bool codecOk = false;
        const refrint::RunResult got =
            traceScenario(sc, cfg, energy, nullptr, store, sc.key().str(),
                          *buf, t, codecOk);
        const std::string d = diffRuns(got, want);
        check(d.empty(), std::string("traced ") + config +
                             " equals runOnce" + (d.empty() ? "" : ": " + d));
        check(codecOk, std::string("traced ") + config + " row round-trips");
        check(t.events == t.coreEvents + t.engineEvents && t.coreEvents > 0,
              std::string("traced ") + config + " splits every event");
        check(t.nextCalls >= 4 * sc.sim.refsPerCore,
              std::string("traced ") + config + " pulls every reference");
        check((std::string(config) == "SRAM") == (t.counts.l3Refreshes == 0),
              std::string("traced ") + config +
                  " refreshes exactly when it is eDRAM");
        check(buf->spans().size() == 6 && buf->spans()[0].parent == 0,
              std::string("traced ") + config +
                  " records a scenario span and five children");
        log.absorb(*buf);
    }
    fs::remove_all(dir);
}

} // namespace

int
main(int argc, char **argv)
{
    // Scratch space for the traced driver's stores.
    const std::filesystem::path scratch =
        argc > 1 ? argv[1] : ".perfbench_tmp";
    testPercentile();
    testMetricNames();
    testClassification();
    testTracedDriver(scratch);
    std::printf("%s: %d failure(s)\n", gFailures == 0 ? "PASS" : "FAIL",
                gFailures);
    return gFailures == 0 ? 0 : 1;
}
