/**
 * @file
 * Shared setup for the figure-reproduction benches: build the paper's
 * sweep spec (honouring REFRINT_REFS / REFRINT_APPS / REFRINT_STORE
 * environment overrides) and run-or-load the shared result store.
 */

#ifndef REFRINT_BENCH_BENCH_COMMON_HH
#define REFRINT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>

#include "common/env.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

namespace refrint::bench
{

/** Default refs/core for the figure benches (overridable via env). */
inline std::uint64_t
defaultRefs()
{
    return envU64("REFRINT_REFS", 120'000);
}

/** Run (or load) the paper sweep shared by the figure benches.
 *  Parallelized across $REFRINT_JOBS worker threads when set. */
inline SweepResult
paperSweep()
{
    SweepSpec spec;
    spec.sim.refsPerCore = defaultRefs();
    return runSweep(std::move(spec));
}

} // namespace refrint::bench

#endif // REFRINT_BENCH_BENCH_COMMON_HH
