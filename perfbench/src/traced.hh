/**
 * @file
 * The traced driver: runs a scenario with the same public calls
 * CmpSystem::run and runOnce make, timing each layer from outside —
 * system build, every event-queue step (split into core and engine
 * events), CoreStream::next, engine finish, the dirty flush, energy,
 * and the row codec plus store insert.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_store.hh"
#include "layers.hh"

namespace perfbench
{

/** Per-layer time (Clock ticks) and work, summed over scenarios. */
struct LayerTotals
{
    std::uint64_t scenarios = 0;
    std::uint64_t events = 0, coreEvents = 0, engineEvents = 0;
    std::uint64_t nextCalls = 0;

    std::uint64_t tScenario = 0; ///< whole scenario spans
    std::uint64_t tBuild = 0;    ///< CmpSystem construction
    std::uint64_t tCoreEv = 0;   ///< steps that pulled a stream
    std::uint64_t tEngineEv = 0; ///< refresh, decay, thermal epochs
    std::uint64_t tNext = 0;     ///< inside CoreStream::next
    std::uint64_t tFinish = 0;   ///< Hierarchy::finishEngines
    std::uint64_t tFlush = 0;    ///< Hierarchy::flushDirty
    std::uint64_t tEnergy = 0;   ///< computeEnergy
    std::uint64_t tEncode = 0, tDecode = 0, tInsert = 0;

    refrint::HierarchyCounts counts; ///< summed
    std::uint64_t instructions = 0;
    double maxTempC = 0;

    void add(const LayerTotals &o);
};

/**
 * Run @p sc as runOnce would, traced.  The row is appended to
 * @p store under @p key (encode, decode round trip, insert all
 * timed).  Returns the result in the form Session reports it (energy
 * matrix rebuilt by reconstructEnergyMatrix, the scenario's labels).
 * A row that fails the codec round trip sets @p codecOk to false.
 */
refrint::RunResult traceScenario(const refrint::Scenario &sc,
                                 const refrint::MachineConfig &cfg,
                                 const refrint::EnergyParams &energy,
                                 refrint::Arena *arena,
                                 refrint::ResultStore &store,
                                 const std::string &key,
                                 SpanLog::Buffer &spans,
                                 LayerTotals &totals, bool &codecOk);

/** Where two results of one scenario differ ("" when they are
 *  identical in every count, execTicks, instructions and energy). */
std::string diffRuns(const refrint::RunResult &a,
                     const refrint::RunResult &b);

struct TracedPlan
{
    std::vector<refrint::RunResult> rows; ///< plan order
    LayerTotals totals;
    double wallSeconds = 0;
    std::size_t codecFailures = 0;
};

/** Trace every scenario of @p plan on @p jobs workers, appending rows
 *  to @p store. */
TracedPlan tracePlan(const refrint::ExperimentPlan &plan, unsigned jobs,
                     refrint::ResultStore &store, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
