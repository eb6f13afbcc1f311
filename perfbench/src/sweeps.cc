/**
 * @file
 * The three sweep workloads: paper-sweep, steady-refresh, sram-c32.
 * A timed pass runs the workload's plan cold on 2 workers from a fresh
 * store; passes repeat until --seconds have passed.  Warm and cold
 * requests follow on a 1-job session over the last pass's store.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <memory>
#include <string>
#include <vector>

#include "api/result_sink.hh"
#include "api/result_store.hh"
#include "api/session.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "service/store.hh"

#include "bench.hh"
#include "plans.hh"

namespace perfbench
{

namespace
{

using refrint::ExperimentPlan;
using refrint::RunResult;
using refrint::Session;
using refrint::ShardedStore;

/** Set-ups timed back to back before the first pass. */
constexpr std::size_t kSetupReps = 25;

/** key -> payload rows of a "key;payload" cache file. */
std::map<std::string, std::string>
readCacheFile(const std::string &path)
{
    std::map<std::string, std::string> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t semi = line.find(';');
        if (semi != std::string::npos)
            rows[line.substr(0, semi)] = line.substr(semi + 1);
    }
    return rows;
}

/** "workload key digest" lines of the digests file for @p workload. */
std::map<std::string, std::string>
readDigests(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string w, key, digest;
    while (in >> w >> key >> digest)
        if (w == workload)
            out[key] = digest;
    return out;
}

std::string
digestOf(const std::string &payload)
{
    return fmt("%016llx", static_cast<unsigned long long>(
                              refrint::fnv64(payload)));
}

// --------------------------------------------------------------------
// Output checks shared by the sweep workloads
// --------------------------------------------------------------------

/** Rows of the seed-1 plan against the golden file and the digests. */
void
checkPinnedRows(const Args &a, const ExperimentPlan &plan,
                const std::vector<RunResult> &rows, Report &rep)
{
    if (a.seed != 1) {
        rep.note("pinned rows: only seed 1 is pinned; skipped");
        return;
    }
    if (a.workload == "paper-sweep") {
        const auto golden = readCacheFile(a.golden);
        std::size_t seen = 0, equal = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const auto it = golden.find(keyOf(plan, i));
            if (it == golden.end())
                continue;
            ++seen;
            refrint::CacheRow g{};
            if (refrint::decodeCacheRow(it->second, g) &&
                refrint::encodeCacheRow(g) == rowPayload(rows[i]))
                ++equal;
        }
        rep.check(seen == golden.size() && seen > 0 && equal == seen,
                  fmt("golden rows equal through the row codec: %zu of "
                      "%zu (golden file holds %zu)",
                      equal, seen, golden.size()));
    }
    const auto digests = readDigests(a.digests, a.workload);
    std::size_t equal = 0;
    std::string record;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::string k = keyOf(plan, i);
        const std::string d = digestOf(rowPayload(rows[i]));
        const auto it = digests.find(k);
        if (it != digests.end() && it->second == d)
            ++equal;
        record += a.workload + " " + k + " " + d + "\n";
    }
    const bool ok = equal == plan.size() && digests.size() == plan.size();
    if (!ok) {
        const std::string path = a.out + "/digests-" + a.workload + ".txt";
        std::ofstream(path) << record;
        rep.note("computed digests written to " + path);
    }
    rep.check(ok, fmt("row digests equal: %zu of %zu (file holds %zu)",
                      equal, plan.size(), digests.size()));
}

/** Scenarios in one warm request at most: one app's paper grid. */
constexpr std::size_t kWarmPlanMax = 43;

/** The job of one sweep workload. */
struct SweepJob
{
    ExperimentPlan plan;
    std::uint32_t cores = 16; ///< machine of its cold requests
};

SweepJob
sweepJob(const std::string &w, std::uint64_t seed)
{
    if (w == "paper-sweep")
        return {paperGrid(kPaperSweepRefs, seed), 16};
    if (w == "steady-refresh")
        return {steadyRefreshPlan(seed), 16};
    return {sramC32Plan(seed), 32};
}

/** A fresh, empty, private store and the session over it. */
struct Fresh
{
    std::string dir;
    std::unique_ptr<Session> session;
};

/**
 * The request phase of a sweep: after the timed passes, a closed loop
 * of warm and cold requests on a 1-job session over the warm store,
 * mixed as serve-mix mixes them (one cold request at a seeded place in
 * each block of 10).  It runs for --seconds and until every percentile
 * has its samples, so that a short stall of the host cannot own a tail.
 */
void
sweepRequests(const Args &a, const SweepJob &job, Session &session,
              const std::vector<RunResult> &coldRows,
              std::vector<double> &warmMs, std::vector<double> &coldMs,
              Report &rep)
{
    const std::vector<std::string> apps = appsOf(job.plan);
    // A warm request resubmits at most one app's grid (43 scenarios, as
    // serve-mix reads do): the whole plan when it is no larger.
    std::vector<ExperimentPlan> slices;
    if (job.plan.size() <= kWarmPlanMax)
        slices.push_back(job.plan);
    else
        for (const std::string &app : apps)
            slices.push_back(appSlice(job.plan, app));

    // A warm row must equal the cold pass's row for its key.
    std::map<std::string, std::string> expect;
    for (std::size_t i = 0; i < job.plan.size(); ++i)
        expect[keyOf(job.plan, i)] = rowPayload(coldRows[i]);

    // A warm request streams its rows as JSON Lines, as `sweep --jsonl`
    // and serve do.
    std::FILE *devnull = std::fopen("/dev/null", "w");
    if (devnull == nullptr)
        refrint::fatal("perfbench: cannot open /dev/null");
    refrint::JsonLinesSink jsonl(devnull);

    Failures &f = rep.failures;
    std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + 41);
    Balanced warmPick(slices.size(), a.seed * 0x9E3779B97F4A7C15ull + 17);
    Balanced coldPick(apps.size(), a.seed * 0x9E3779B97F4A7C15ull + 23);
    std::size_t mismatched = 0, simulated = 0;
    Collect got;
    const auto start = Clk::now();
    while ((since(start) < a.seconds || warmMs.size() < samplesNeeded(99) ||
            coldMs.size() < samplesNeeded(90)) &&
           since(start) < 4 * a.seconds + 60) {
        const std::size_t coldAt = rng() % 10;
        for (std::size_t j = 0; j < 10; ++j) {
            f.attempt();
            if (j == coldAt) {
                const ExperimentPlan p =
                    coldPlan(apps[coldPick.next()], job.cores, kSmallRefs,
                             (a.seed << 24) + 1'000'000 + coldMs.size());
                const auto t0 = Clk::now();
                const refrint::SweepResult r = session.run(p, {&got});
                coldMs.push_back(since(t0) * 1e3);
                if (r.metrics.simulated != 1 || !got.have[0])
                    f.fail("cold_not_simulated");
                else
                    ++simulated;
                continue;
            }
            const ExperimentPlan &p = slices[warmPick.next()];
            const auto t0 = Clk::now();
            const refrint::SweepResult r = session.run(p, {&got, &jsonl});
            warmMs.push_back(since(t0) * 1e3);
            if (r.metrics.cacheHits != p.size()) {
                f.fail("warm_simulated");
                continue;
            }
            for (std::size_t i = 0; i < p.size(); ++i)
                if (!got.have[i] ||
                    expect[keyOf(p, i)] != rowPayload(got.raw[i]))
                    ++mismatched;
        }
    }
    std::fclose(devnull);
    rep.check(mismatched == 0,
              fmt("warm replays equal the cold rows: %zu rows differ",
                  mismatched));
    rep.check(simulated == coldMs.size(),
              fmt("cold requests simulated: %zu of %zu", simulated,
                  coldMs.size()));
}

} // namespace

void
runSweepWorkload(const Args &a, Scratch &scratch, Report &rep)
{
    const SweepJob job = sweepJob(a.workload, a.seed);
    rep.note(fmt("plan: %zu scenarios on %u workers", job.plan.size(),
                 kWorkers));

    // Set-up parses the plan from its JSON document, as `sweep --plan`
    // and serve receive it, and opens a session over a fresh empty
    // store; each pass gets its own.  Creating the store directory is
    // left out of the timing: it is three fsyncs, whose latency on the
    // host disk varied 7x between runs.  The first kSetupReps set-ups
    // are timed back to back so the median has that many samples.
    const std::string planJson = requestLine(job.plan);
    std::vector<double> setups;
    Fresh cur;
    ExperimentPlan plan;
    const auto setUp = [&]() {
        cur = Fresh{};
        cur.dir = scratch.fresh("store");
        auto store = std::make_unique<ShardedStore>(cur.dir);
        const auto t0 = Clk::now();
        std::string err;
        if (!ExperimentPlan::tryFromJson(planJson, plan, err))
            refrint::fatal("perfbench: plan JSON does not parse: %s",
                           err.c_str());
        cur.session = std::make_unique<Session>(std::move(store), kWorkers);
        setups.push_back(since(t0));
    };
    for (std::size_t i = 0; i < kSetupReps; ++i)
        setUp();

    std::vector<double> walls, minstr, rps;
    std::vector<RunResult> firstRows;
    std::vector<refrint::NormalizedResult> firstNorm;
    Collect rows;
    refrint::RunMetrics pool;
    const auto timed = Clk::now();
    for (int pass = 0;; ++pass) {
        if (pass > 0)
            setUp();
        const auto t0 = Clk::now();
        const refrint::SweepResult res = cur.session->run(plan, {&rows});
        const double wall = since(t0);
        pool = res.metrics;
        double instr = 0;
        rep.failures.attempt(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (!rows.have[i])
                rep.failures.fail("no_row");
            instr += static_cast<double>(rows.raw[i].instructions);
        }
        walls.push_back(wall);
        minstr.push_back(instr / wall / 1e6);
        rps.push_back(static_cast<double>(plan.size()) / wall);
        if (pass == 0) {
            firstRows = rows.raw;
            firstNorm = rows.norm;
        } else {
            std::size_t diff = 0;
            for (std::size_t i = 0; i < firstRows.size(); ++i)
                diff += rowPayload(firstRows[i]) != rowPayload(rows.raw[i]);
            if (diff != 0)
                rep.check(false, fmt("pass %d differs from pass 0 in %zu "
                                     "rows",
                                     pass, diff));
        }
        if (a.trace != 0 || since(timed) >= a.seconds)
            break;
    }
    std::string passes;
    for (double w : walls)
        passes += fmt(" %.4f", w);
    rep.note(fmt("timed passes: %zu, wall (s):%s", walls.size(),
                 passes.c_str()));

    checkPinnedRows(a, job.plan, firstRows, rep);
    refrint::ValidateReport v;
    double vs = 0;
    checkValidate(cur.dir, firstRows, rep, &v, &vs);

    if (a.trace == 0) {
        std::vector<double> warmMs, coldMs;
        // Requests go through a 1-job session over the warm store, as
        // serve-mix's server runs them.
        cur.session.reset();
        Session oneJob(std::make_unique<ShardedStore>(cur.dir), 1);
        sweepRequests(a, job, oneJob, firstRows, warmMs, coldMs, rep);

        double err = headlineError(firstNorm);
        if (err < 0) {
            // No headline cell in this workload's rows (sram-c32): run
            // the smallest plan holding them, on a store of its own,
            // after the timed job.
            Session probe(
                std::make_unique<ShardedStore>(scratch.fresh("headline")),
                kWorkers);
            Collect h;
            const ExperimentPlan hp = headlinePlan(kSmallRefs, a.seed);
            probe.run(hp, {&h});
            err = headlineError(h.norm);
            rep.note(fmt("paper_err from the %zu-run headline plan at %llu "
                         "refs/core",
                         hp.size(),
                         static_cast<unsigned long long>(kSmallRefs)));
        }
        rep.metric("wall_s", "s", median(walls));
        rep.metric("setup_s", "s", median(setups));
        rep.metric("sim_minstr_per_s", "Minstr/s", median(minstr));
        rep.metric("peak_rss_mb", "MB", peakRssMb());
        rep.metric("paper_err", "abs", err);
        latencyMetrics(warmMs, coldMs, rep);
        rep.metric("req_per_s", "1/s", median(rps));
        rep.metric("ok_frac", "frac", rep.failures.okFraction());
        return;
    }

    // Traced run: the same plan through the traced driver, on a fresh
    // store of its own, held scenario by scenario to the untraced rows.
    SpanLog log;
    Clock::calibrate();
    const std::string dir = scratch.fresh("traced");
    LayerInputs in;
    const TracedPlan tp = traceAndCompare(plan, firstRows, dir, log, rep);
    in.pool = pool;
    in.storeOpenSeconds = storeOpenSeconds(dir, plan.size(), rep);
    in.validate = v;
    in.validateSeconds = vs;
    in.planLine = requestLine(plan);
    layerMetrics(a.workload, tp, in, rep);
    rep.metric("service.overhead_ms", "ms", 0);
    rep.metric("service.queue_depth", "count", 0);
    rep.metric("service.errors", "count", 0);
    rep.metric("service.shed", "count", 0);
    rep.metric("trace_overhead_s", "s", tp.wallSeconds - walls[0]);
    writeSpans(a, log, rep);
}

} // namespace perfbench
