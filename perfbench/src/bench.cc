#include "bench.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>

#include "api/result_store.hh"
#include "service/store.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using refrint::ExperimentPlan;
using refrint::RunResult;
using refrint::ShardedStore;

std::string
fmt(const char *f, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
Collect::begin(const ExperimentPlan &plan)
{
    raw.assign(plan.size(), RunResult{});
    have.assign(plan.size(), 0);
    norm.clear();
}

void
Collect::consume(const ExperimentPlan &, std::size_t i, const RunResult &r,
                 const refrint::NormalizedResult *n, bool)
{
    raw[i] = r;
    have[i] = 1;
    if (n != nullptr)
        norm.push_back(*n);
}

std::string
rowPayload(const RunResult &r)
{
    return refrint::encodeCacheRow(refrint::cacheRowOf(r));
}

std::string
keyOf(const ExperimentPlan &plan, std::size_t i)
{
    refrint::ScenarioKey k = plan.scenarios[i].key();
    k.energy = refrint::energyKeyTag(plan.energy);
    return k.str();
}

refrint::ValidateReport
validateStore(const std::string &dir, double &seconds)
{
    refrint::ValidateOptions vo;
    vo.storeDir = dir;
    std::FILE *sink = std::fopen("/dev/null", "w");
    vo.out = sink;
    refrint::ValidateReport rep;
    const auto t0 = Clk::now();
    refrint::runValidate(vo, &rep);
    seconds = since(t0);
    if (sink != nullptr)
        std::fclose(sink);
    return rep;
}

Scratch::Scratch(const std::string &root)
    : dir_(fs::path(root) / fmt("run-%ld", static_cast<long>(::getpid())))
{
    fs::remove_all(dir_);
    fs::create_directories(dir_);
}

Scratch::~Scratch()
{
    std::error_code ec;
    fs::remove_all(dir_, ec);
}

std::string
Scratch::fresh(const char *what)
{
    return (dir_ / fmt("%s-%u", what, n_++)).string();
}

void
checkValidate(const std::string &storeDir, const std::vector<RunResult> &rows,
              Report &rep, refrint::ValidateReport *out, double *seconds)
{
    double s = 0;
    const refrint::ValidateReport v = validateStore(storeDir, s);
    std::uint64_t decayed = 0;
    for (const RunResult &r : rows)
        decayed += r.counts.decayedHits;
    rep.check(v.clean() && v.rows > 0,
              fmt("validate: %zu rows, %zu violations", v.rows,
                  v.violations.size()));
    for (std::size_t i = 0; i < v.violations.size() && i < 5; ++i)
        rep.note("  violation " + v.violations[i].check + " " +
                 v.violations[i].key + ": " + v.violations[i].detail);
    rep.check(decayed == 0, fmt("decayed hits: %llu",
                                static_cast<unsigned long long>(decayed)));
    if (out != nullptr)
        *out = v;
    if (seconds != nullptr)
        *seconds = s;
}

void
latencyMetrics(const std::vector<double> &warmMs,
               const std::vector<double> &coldMs, Report &rep)
{
    const struct
    {
        const char *name;
        const std::vector<double> &v;
        unsigned pct;
        bool gated; ///< a result metric, or a tail reported in the notes
    } ps[] = {{"warm_p50_ms", warmMs, 50, true},
              {"warm_p99_ms", warmMs, 99, false},
              {"cold_p50_ms", coldMs, 50, true},
              {"cold_p90_ms", coldMs, 90, false}};
    for (const auto &p : ps) {
        const Percentile q = percentile(p.v, p.pct);
        if (p.gated)
            rep.metric(p.name, "ms", q.value);
        else
            rep.note(fmt("%s = %.6f ms (tail; reported here, not in the "
                         "result: its run-to-run spread on a shared host "
                         "exceeds any allowed bound)",
                         p.name, q.value));
        rep.check(q.ok, fmt("%s: %zu samples, %zu beyond it (need %zu)",
                            p.name, q.samples, q.beyond, kMinBeyond));
    }
}

void
layerMetrics(const std::string &workload, const TracedPlan &tp,
             const LayerInputs &in, Report &rep)
{
    const LayerTotals &t = tp.totals;
    const auto ns = [](std::uint64_t ticks) { return Clock::ns(ticks); };
    const auto per = [](double x, std::uint64_t n) {
        return n == 0 ? 0.0 : x / static_cast<double>(n);
    };
    const double total = ns(t.tScenario);
    const auto share = [&](double x) { return total > 0 ? x / total : 0.0; };
    const refrint::HierarchyCounts &c = t.counts;
    const double coherenceNs = ns(t.tCoreEv) - ns(t.tNext) + ns(t.tFlush);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    rep.metric("edram.engine_event_ns", "ns",
               per(ns(t.tEngineEv), t.engineEvents));
    rep.metric("edram.share", "frac", share(ns(t.tEngineEv) + ns(t.tFinish)));
    rep.metric("edram.finish_ms", "ms", per(ns(t.tFinish) / 1e6, t.scenarios));
    rep.metric("edram.l1_refreshes", "count", count(c.l1Refreshes));
    rep.metric("edram.l2_refreshes", "count", count(c.l2Refreshes));
    rep.metric("edram.l3_refreshes", "count", count(c.l3Refreshes));
    rep.metric("edram.refresh_writebacks", "count",
               count(c.refreshWritebacks));
    rep.metric("edram.refresh_invalidations", "count",
               count(c.refreshInvalidations));
    rep.metric("edram.refreshes_per_kinstr", "1/kinstr",
               per(count(c.l1Refreshes + c.l2Refreshes + c.l3Refreshes) * 1e3,
                   t.instructions));
    rep.metric("edram.decayed_hits", "count", count(c.decayedHits));
    rep.metric("thermal.max_temp_c", "C", t.maxTempC);

    rep.metric("coherence.core_event_ns", "ns",
               per(ns(t.tCoreEv) - ns(t.tNext), t.coreEvents));
    rep.metric("coherence.share", "frac", share(coherenceNs));
    rep.metric("coherence.l2_misses", "count", count(c.l2Misses));
    rep.metric("coherence.l3_misses", "count", count(c.l3Misses));
    rep.metric("coherence.l3_miss_ratio", "frac",
               per(count(c.l3Misses), c.l2Misses));
    rep.metric("coherence.dram_accesses", "count", count(c.dramAccesses));
    rep.metric("coherence.net_hops", "count", count(c.netHops));

    rep.metric("sim.step_ns", "ns",
               per(ns(t.tCoreEv) + ns(t.tEngineEv), t.events));
    rep.metric("sim.events", "count", count(t.events));
    rep.metric("sim.core_events", "count", count(t.coreEvents));
    rep.metric("sim.engine_events", "count", count(t.engineEvents));

    rep.metric("system.build_ms", "ms", per(ns(t.tBuild) / 1e6, t.scenarios));
    rep.metric("system.build_share", "frac", share(ns(t.tBuild)));

    rep.metric("workload.next_ns", "ns", per(ns(t.tNext), t.nextCalls));
    rep.metric("workload.refs", "count", count(t.nextCalls));

    rep.metric("harness.pool_util", "frac", in.pool.utilization());
    rep.metric("harness.busy_s", "s", in.pool.busySeconds);

    // Plan parsing: one request line, parsed until 50 ms have passed.
    std::size_t reps = 0;
    const auto t0 = Clk::now();
    do {
        ExperimentPlan p;
        std::string err;
        if (!ExperimentPlan::tryFromJson(in.planLine, p, err))
            rep.check(false, "plan JSON parses: " + err);
        ++reps;
    } while (since(t0) < 0.05);
    rep.metric("api.plan_parse_us", "us",
               since(t0) * 1e6 / static_cast<double>(reps));

    rep.metric("store.open_ms", "ms", in.storeOpenSeconds * 1e3);
    rep.metric("store.encode_ns", "ns", per(ns(t.tEncode), t.scenarios));
    rep.metric("store.decode_ns", "ns", per(ns(t.tDecode), t.scenarios));
    rep.metric("store.insert_us", "us", per(ns(t.tInsert) / 1e3, t.scenarios));
    rep.metric("energy.compute_us", "us",
               per(ns(t.tEnergy) / 1e3, t.scenarios));
    rep.metric("validate.rows_per_s", "1/s",
               in.validateSeconds > 0
                   ? static_cast<double>(in.validate.rows) / in.validateSeconds
                   : 0.0);
    rep.metric("validate.violations", "count",
               count(in.validate.violations.size()));

    // Self time per layer over the traced scenarios, for the reader.
    rep.note(fmt("traced %s: %llu scenarios, %.3f s in scenario spans",
                 workload.c_str(),
                 static_cast<unsigned long long>(t.scenarios), total / 1e9));
    const struct
    {
        const char *layer;
        double ns;
    } self[] = {{"system: build", ns(t.tBuild)},
                {"workload: next", ns(t.tNext)},
                {"coherence: core events - next, flush", coherenceNs},
                {"edram: engine events, finish",
                 ns(t.tEngineEv) + ns(t.tFinish)},
                {"energy", ns(t.tEnergy)},
                {"store: encode, decode, insert",
                 ns(t.tEncode) + ns(t.tDecode) + ns(t.tInsert)}};
    for (const auto &s : self)
        rep.note(fmt("  %-38s %9.3f s %6.1f%%", s.layer, s.ns / 1e9,
                     100.0 * share(s.ns)));
}

TracedPlan
traceAndCompare(const ExperimentPlan &plan,
                const std::vector<RunResult> &expect, const std::string &dir,
                SpanLog &log, Report &rep)
{
    TracedPlan tp;
    {
        ShardedStore store(dir);
        tp = tracePlan(plan, kWorkers, store, log);
    }
    std::size_t mismatched = 0;
    std::string firstDiff;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::string d = diffRuns(tp.rows[i], expect[i]);
        if (!d.empty() && mismatched++ == 0)
            firstDiff = " (first: " + keyOf(plan, i) + " " + d + ")";
    }
    rep.check(mismatched == 0,
              fmt("traced driver equals runOnce in counts, execTicks and "
                  "energy: %zu of %zu scenarios differ%s",
                  mismatched, plan.size(), firstDiff.c_str()));
    rep.check(tp.codecFailures == 0,
              fmt("row codec round trip: %zu failures", tp.codecFailures));
    double dummy = 0;
    const refrint::ValidateReport v = validateStore(dir, dummy);
    rep.check(v.clean(), fmt("traced rows validate: %zu violations",
                             v.violations.size()));
    return tp;
}

double
storeOpenSeconds(const std::string &dir, std::size_t expectRows, Report &rep)
{
    std::vector<double> opens;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clk::now();
        ShardedStore s(dir);
        opens.push_back(since(t0));
        if (s.rowCount() < expectRows)
            rep.check(false, fmt("store %s reopened with %zu of %zu rows",
                                 dir.c_str(), s.rowCount(), expectRows));
    }
    return median(opens);
}

void
writeSpans(const Args &a, const SpanLog &log, Report &rep)
{
    const std::string path =
        a.out + fmt("/spans-%s-seed%llu.jsonl", a.workload.c_str(),
                    static_cast<unsigned long long>(a.seed));
    rep.check(log.write(path), "spans written to " + path);
}

} // namespace perfbench
