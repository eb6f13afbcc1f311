#include "traced.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "common/arena.hh"
#include "common/log.hh"
#include "harness/pool.hh"
#include "system/cmp_system.hh"
#include "validate/energy_alt.hh"

namespace perfbench
{

using refrint::HierarchyCounts;
using refrint::RunResult;

namespace
{

/** Every integer counter of HierarchyCounts, for sums and diffs. */
#define PERFBENCH_COUNT_FIELDS(X)                                        \
    X(l1Reads) X(l1Writes) X(l1Refreshes) X(l2Reads) X(l2Writes)         \
    X(l2Refreshes) X(l3Reads) X(l3Writes) X(l3Refreshes) X(dramAccesses) \
    X(netHops) X(netDataMsgs) X(netCtrlMsgs) X(l3Misses) X(l2Misses)     \
    X(dl1Misses) X(refreshWritebacks) X(refreshInvalidations)            \
    X(decayedHits)

#define PERFBENCH_ENERGY_FIELDS(X)                                       \
    X(l1) X(l2) X(l3) X(dram) X(dynamic) X(leakage) X(refresh) X(core)   \
    X(net) X(l1Dyn) X(l1Leak) X(l1Ref) X(l2Dyn) X(l2Leak) X(l2Ref)       \
    X(l3Dyn) X(l3Leak) X(l3Ref)

/** Bitwise double equality: the identity check must not forgive an
 *  ulp, and NaN must equal itself. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

void
LayerTotals::add(const LayerTotals &o)
{
    scenarios += o.scenarios;
    events += o.events;
    coreEvents += o.coreEvents;
    engineEvents += o.engineEvents;
    nextCalls += o.nextCalls;
    tScenario += o.tScenario;
    tBuild += o.tBuild;
    tCoreEv += o.tCoreEv;
    tEngineEv += o.tEngineEv;
    tNext += o.tNext;
    tFinish += o.tFinish;
    tFlush += o.tFlush;
    tEnergy += o.tEnergy;
    tEncode += o.tEncode;
    tDecode += o.tDecode;
    tInsert += o.tInsert;
#define PERFBENCH_ADD(f) counts.f += o.counts.f;
    PERFBENCH_COUNT_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
    counts.l2OffLineTicks += o.counts.l2OffLineTicks;
    counts.l3OffLineTicks += o.counts.l3OffLineTicks;
    instructions += o.instructions;
    if (o.maxTempC > maxTempC)
        maxTempC = o.maxTempC;
}

RunResult
traceScenario(const refrint::Scenario &sc, const refrint::MachineConfig &cfg,
              const refrint::EnergyParams &energy, refrint::Arena *arena,
              refrint::ResultStore &store, const std::string &key,
              SpanLog::Buffer &spans, LayerTotals &totals, bool &codecOk)
{
    LayerTotals t;
    const std::size_t root = spans.open("scenario", 0, key);
    const std::uint64_t rootId = spans.at(root).id;

    NextCounter next;
    const TimedWorkload app(sc.resolveWorkload(), next);

    std::size_t sp = spans.open("build", rootId);
    auto sys = std::make_unique<refrint::CmpSystem>(cfg, app, sc.sim, arena);
    spans.close(sp);
    t.tBuild = spans.at(sp).end - spans.at(sp).start;

    // The same calls CmpSystem::run makes, one step at a time.
    sp = spans.open("dispatch", rootId);
    refrint::EventQueue &eq = sys->eventQueue();
    sys->hierarchy().start(0);
    const std::uint32_t cores = sys->numCores();
    for (refrint::CoreId c = 0; c < cores; ++c)
        sys->core(c).start(0);
    // Cores before firstBusy are done, and done is permanent, so one
    // busy core at firstBusy proves the run is not over.
    std::uint32_t firstBusy = 0;
    for (;;) {
        while (firstBusy < cores && sys->core(firstBusy).done())
            ++firstBusy;
        if (firstBusy == cores)
            break;
        const std::uint64_t pulls = next.pulls;
        const std::uint64_t t0 = Clock::now();
        const bool stepped = eq.step();
        const std::uint64_t dt = Clock::now() - t0;
        if (!stepped)
            refrint::fatal("traced %s: event queue drained before "
                           "completion",
                           key.c_str());
        ++t.events;
        if (next.pulls != pulls) {
            ++t.coreEvents;
            t.tCoreEv += dt;
        } else {
            ++t.engineEvents;
            t.tEngineEv += dt;
        }
        if (eq.now() > sc.sim.maxTicks)
            refrint::fatal("traced %s: simulation exceeded its tick limit",
                           key.c_str());
    }
    refrint::Tick execTicks = 0;
    for (refrint::CoreId c = 0; c < cores; ++c)
        execTicks = std::max(execTicks, sys->core(c).doneTick());
    spans.close(sp);
    spans.at(sp).attrs = {
        {"events", static_cast<double>(t.events)},
        {"core_events", static_cast<double>(t.coreEvents)},
        {"engine_events", static_cast<double>(t.engineEvents)},
        {"core_ns", Clock::ns(t.tCoreEv)},
        {"engine_ns", Clock::ns(t.tEngineEv)},
        {"next_ns", Clock::ns(next.ticks)},
        {"next_calls", static_cast<double>(next.pulls)}};

    sp = spans.open("finish", rootId);
    std::uint64_t t0 = Clock::now();
    sys->hierarchy().finishEngines(execTicks);
    const std::uint64_t t1 = Clock::now();
    sys->hierarchy().flushDirty();
    spans.close(sp);
    t.tFinish = t1 - t0;
    t.tFlush = spans.at(sp).end - t1;

    RunResult r;
    r.app = sc.app;
    r.config = cfg.configName();
    r.machine = cfg.machineId;
    r.retentionUs = sc.retentionUs;
    r.execTicks = execTicks;
    r.instructions = sys->totalInstructions();
    r.counts = sys->hierarchy().counts();
    if (const refrint::ThermalDriver *th = sys->hierarchy().thermal()) {
        r.ambientC = cfg.thermal.ambientC;
        r.maxTempC = th->maxTempC();
    }
    sys.reset();

    sp = spans.open("energy", rootId);
    r.energy = refrint::computeEnergy(energy, r.counts, cfg, r.execTicks,
                                      r.instructions);
    if (energy.altModel != 0) {
        r.alt = refrint::computeEnergyAlt(
            refrint::AltEnergyParams::calibrated(), r.counts, cfg,
            r.execTicks, r.instructions);
        r.hasAlt = true;
    }
    spans.close(sp);
    t.tEnergy = spans.at(sp).end - spans.at(sp).start;
    // Session reports fresh rows through the same closure a cache
    // reload applies; do likewise so the two are comparable.
    refrint::reconstructEnergyMatrix(
        r.energy, energy, cfg, r.execTicks,
        static_cast<double>(r.counts.l3Refreshes));

    sp = spans.open("store", rootId);
    t0 = Clock::now();
    const std::string payload = refrint::encodeCacheRow(refrint::cacheRowOf(r));
    std::uint64_t t2 = Clock::now();
    t.tEncode = t2 - t0;
    refrint::CacheRow back{};
    const bool decoded = refrint::decodeCacheRow(payload, back);
    std::uint64_t t3 = Clock::now();
    t.tDecode = t3 - t2;
    codecOk = decoded && refrint::encodeCacheRow(back) == payload;
    t3 = Clock::now();
    store.insert(key, back);
    spans.close(sp);
    t.tInsert = spans.at(sp).end - t3;

    spans.close(root);
    t.tScenario = spans.at(root).end - spans.at(root).start;
    t.scenarios = 1;
    t.nextCalls = next.pulls;
    t.tNext = next.ticks;
    t.counts = r.counts;
    t.instructions = r.instructions;
    t.maxTempC = r.maxTempC;
    totals.add(t);
    return r;
}

std::string
diffRuns(const RunResult &a, const RunResult &b)
{
    if (a.execTicks != b.execTicks)
        return "execTicks";
    if (a.instructions != b.instructions)
        return "instructions";
#define PERFBENCH_CMP(f)                                                 \
    if (a.counts.f != b.counts.f)                                        \
        return "counts." #f;
    PERFBENCH_COUNT_FIELDS(PERFBENCH_CMP)
#undef PERFBENCH_CMP
    if (!sameBits(a.counts.l2OffLineTicks, b.counts.l2OffLineTicks) ||
        !sameBits(a.counts.l3OffLineTicks, b.counts.l3OffLineTicks))
        return "counts.offLineTicks";
#define PERFBENCH_CMP(f)                                                 \
    if (!sameBits(a.energy.f, b.energy.f))                               \
        return "energy." #f;
    PERFBENCH_ENERGY_FIELDS(PERFBENCH_CMP)
#undef PERFBENCH_CMP
    if (!sameBits(a.maxTempC, b.maxTempC))
        return "maxTempC";
    return "";
}

TracedPlan
tracePlan(const refrint::ExperimentPlan &plan, unsigned jobs,
          refrint::ResultStore &store, SpanLog &log)
{
    TracedPlan out;
    const std::size_t n = plan.size();
    out.rows.resize(n);
    const std::string energyTag = refrint::energyKeyTag(plan.energy);

    struct Worker
    {
        refrint::Arena arena;
        std::map<std::string, refrint::MachineConfig> machines;
        std::unique_ptr<SpanLog::Buffer> spans;
        LayerTotals totals;
        std::size_t codecFailures = 0;
    };
    std::vector<Worker> workers(jobs == 0 ? 1 : jobs);
    for (Worker &w : workers)
        w.spans = log.buffer();

    const auto start = std::chrono::steady_clock::now();
    refrint::parallelForWorkers(
        n, static_cast<unsigned>(workers.size()),
        [&](std::size_t i, unsigned wid) {
            Worker &w = workers[wid];
            const refrint::Scenario &sc = plan.scenarios[i];
            refrint::ScenarioKey sk = sc.key();
            sk.energy = energyTag;
            // One config per machine identity, as Session's workers
            // memoize them.
            char memo[96];
            std::snprintf(memo, sizeof(memo), "|%.17g|%.17g|%u|%d",
                          sc.retentionUs, sc.ambientC, sc.cores,
                          sc.hybrid ? 1 : 0);
            auto [it, fresh] = w.machines.try_emplace(sc.config + memo);
            if (fresh)
                it->second = sc.machine(plan.energy);
            w.arena.reset();
            bool codecOk = true;
            out.rows[i] =
                traceScenario(sc, it->second, plan.energy, &w.arena, store,
                              sk.str(), *w.spans, w.totals, codecOk);
            if (!codecOk)
                ++w.codecFailures;
        });
    store.flush();
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    for (Worker &w : workers) {
        out.totals.add(w.totals);
        out.codecFailures += w.codecFailures;
        log.absorb(*w.spans);
    }
    return out;
}

} // namespace perfbench
