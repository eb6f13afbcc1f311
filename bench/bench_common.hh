/**
 * @file
 * Shared setup for the figure-reproduction benches: build the paper's
 * sweep grid (honouring the REFRINT_REFS / REFRINT_APPS environment
 * overrides) and run-or-load it against the shared result store
 * ($REFRINT_STORE).
 */

#ifndef REFRINT_BENCH_BENCH_COMMON_HH
#define REFRINT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <memory>

#include "api/experiment_plan.hh"
#include "api/session.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "service/store.hh"

namespace refrint::bench
{

/** The paper grid at 120000 refs/core, with the REFRINT_APPS /
 *  REFRINT_REFS overrides applied. */
inline ExperimentPlan::Grid
paperGrid()
{
    ExperimentPlan::Grid g;
    g.sim.refsPerCore = 120'000;
    applyEnvAxes(g.apps, g.sim);
    return g;
}

/** Run (or load) @p g against the shared result store, parallelized
 *  across $REFRINT_JOBS worker threads when set. */
inline SweepResult
runGrid(const ExperimentPlan::Grid &g)
{
    return Session(std::make_unique<ShardedStore>(defaultStoreDir()), 0)
        .run(ExperimentPlan::grid(g));
}

/** Run (or load) the paper sweep shared by the figure benches. */
inline SweepResult
paperSweep()
{
    return runGrid(paperGrid());
}

} // namespace refrint::bench

#endif // REFRINT_BENCH_BENCH_COMMON_HH
