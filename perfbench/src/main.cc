/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --golden FILE --digests FILE --scratch DIR --out DIR
 *             [--commit ID] [--src-digest HEX]
 *
 * Workloads, and why each is here:
 *
 *  - paper-sweep: the full 473-run Table 5.4 grid at 4000 refs/core,
 *    cold, on 2 workers.  The headline job, and the one configuration
 *    pinned row for row by tests/golden.  Many short runs, so
 *    per-scenario set-up, event dispatch and the worker pool weigh
 *    most; the refresh engines are a minor share.
 *  - steady-refresh: fft and lu at 120k refs/core and 50 us (SRAM,
 *    P.all, R.valid, R.WB(32,32)) plus fft P.all and R.WB(32,32) at
 *    85 C with the thermal model on.  Caches fill and the refresh
 *    engines do the most work of any workload; the only workload on
 *    which the thermal model and retention rescaling run.
 *  - sram-c32: the SRAM baseline of all 11 apps on the 32-core
 *    machine at 40k refs/core.  No refresh engine at all: the
 *    coherence walk dominates with 32 event clients.  A refresh-engine
 *    change should not move it; a coherence or event-queue change
 *    should.
 *  - serve-mix: a closed loop of 2 clients against an in-process
 *    `serve` instance (1 job, unix socket) whose store holds the paper
 *    grid at small refs.  9 in 10 requests resubmit one app's
 *    43-scenario plan (all warm); 1 in 10 is a fresh one-scenario SRAM
 *    plan (one simulation and one store append).  Plan parsing, store
 *    lookup, JSONL encoding and framing do most of the work.
 *
 * Every workload also measures warm and cold requests mixed the same
 * way (one cold in each block of 10): through the service on
 * serve-mix, on a 1-job Session after the timed passes on the sweeps
 * (sweeps.cc).  Every simulation starts with empty simulated caches,
 * and every pass starts from a fresh, empty, private result store.
 * Load comes from this one process: at most 2 simulation workers plus
 * 2 client connections.  --trace 0 prints the end-to-end metrics;
 * --trace 1 runs the untraced job once, then the traced driver
 * (traced.hh), and prints the per-layer metrics.  The last stdout line
 * is the result object.  Exit status 0 whenever a result was printed;
 * perfbench/README.md defines every metric.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "bench.hh"

using namespace perfbench;

namespace
{

const char *const kWorkloads[] = {"paper-sweep", "steady-refresh", "sram-c32",
                                  "serve-mix"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --golden FILE --digests FILE [--scratch DIR] "
                 "[--out DIR] [--commit ID] [--src-digest HEX]\n"
                 "workloads: paper-sweep steady-refresh sram-c32 "
                 "serve-mix\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &s, const char *flag)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 18)
        usage(fmt("%s needs a decimal integer, got '%s'", flag, s.c_str())
                  .c_str());
    return std::stoull(s);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = parseU64(v, "--seed");
        else if (k == "--seconds")
            a.seconds = static_cast<double>(parseU64(v, "--seconds"));
        else if (k == "--trace")
            a.trace = static_cast<int>(parseU64(v, "--trace"));
        else if (k == "--golden")
            a.golden = v;
        else if (k == "--digests")
            a.digests = v;
        else if (k == "--scratch")
            a.scratch = v;
        else if (k == "--out")
            a.out = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--src-digest")
            a.srcDigest = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
        std::end(kWorkloads))
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (a.trace != 0 && a.trace != 1)
        usage("--trace takes 0 or 1");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    if (a.golden.empty() || a.digests.empty())
        usage("--golden and --digests are required");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    // Keep freed memory in the allocator instead of returning it to the
    // OS.  Session builds each run's worker arenas afresh, so without
    // this every cold request first-touches ~20 MB of new pages, and on
    // a virtual machine the cost of those faults swings 2x from run to
    // run (serve-mix cold p50 15 vs 33 ms), which would drown every
    // latency metric.  Results are unaffected; the fault cost is a
    // property of the host, stated here rather than measured.
    ::mallopt(M_MMAP_THRESHOLD, 1 << 30);
    ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    const Args a = parseArgs(argc, argv);
    Report rep;
    rep.note("allocator: freed memory is kept for reuse (M_MMAP_THRESHOLD "
             "1 GiB, no trimming)");

    // The workloads are explicit plans; no environment knob may change
    // them, so the ones the library reads are dropped here.
    for (const char *var : {"REFRINT_REFS", "REFRINT_APPS", "REFRINT_JOBS",
                            "REFRINT_CACHE", "REFRINT_FAULTS",
                            "REFRINT_WORKER_ATTEMPT"}) {
        if (const char *v = std::getenv(var)) {
            rep.note(fmt("ignoring %s=%s", var, v));
            ::unsetenv(var);
        }
    }
    ::signal(SIGPIPE, SIG_IGN);
    std::filesystem::create_directories(a.out);

    rep.note(fmt("perfbench workload=%s seed=%llu seconds=%g trace=%d",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 a.seconds, a.trace));
    rep.note(fmt("host: nproc=%u cpu=\"%s\" build=%s lto=%d commit=%s "
                 "src=%s",
                 std::thread::hardware_concurrency(), cpuModel().c_str(),
                 PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, a.commit.c_str(),
                 a.srcDigest.c_str()));
    rep.note("caches: every simulation starts with empty simulated caches; "
             "every pass starts from a fresh, empty, private result store");
    rep.note(fmt("load: one process, %u simulation workers, %u client "
                 "connections (serve-mix)",
                 kWorkers, kClients));

    {
        Scratch scratch(a.scratch);
        if (a.workload == "serve-mix")
            runServeMix(a, scratch, rep);
        else
            runSweepWorkload(a, scratch, rep);
    }

    for (const Metric &m : rep.metrics) {
        if (!validMetricName(m.name) || !std::isfinite(m.value))
            rep.check(false, "metric " + m.name + " is well-formed");
    }
    for (const auto &kv : rep.failures.reasons)
        rep.note(fmt("failed %s: %zu", kv.first.c_str(), kv.second));
    rep.note(fmt("attempted %zu, failed %zu", rep.failures.attempted,
                 rep.failures.failed));

    for (const std::string &n : rep.notes)
        std::printf("# %s\n", n.c_str());
    for (const Metric &m : rep.metrics)
        std::printf("%-32s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = fmt("{\"correct\": %s, \"attempted\": %zu, "
                           "\"failed\": %zu, \"metrics\": {",
                           rep.correct ? "true" : "false",
                           std::max<std::size_t>(1, rep.failures.attempted),
                           rep.failures.failed);
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

