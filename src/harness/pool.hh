/**
 * @file
 * Parallel loops for the sweep harness.
 *
 * parallelFor() runs indices [0, n) across up to @p jobs threads and
 * returns when every index has been processed.  Each thread claims the
 * next undone index from a shared counter (dynamic load balancing), so
 * long simulations do not serialize behind short ones.  With jobs <= 1
 * it degenerates to a plain loop on the calling thread, so the serial
 * path stays exactly the serial path.
 */

#ifndef REFRINT_HARNESS_POOL_HH
#define REFRINT_HARNESS_POOL_HH

#include <cstddef>
#include <functional>

namespace refrint
{

/**
 * Resolve a worker count: an explicit @p jobs > 0 wins, otherwise
 * $REFRINT_JOBS (strictly parsed), otherwise 1.
 */
unsigned resolveJobs(unsigned jobs = 0);

/**
 * Run @p fn(i) for every i in [0, n) on up to @p jobs threads.
 * Indices are claimed dynamically, so completion order is arbitrary —
 * callers must write results into per-index slots to stay
 * deterministic.  jobs <= 1 runs inline on the calling thread.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * Like parallelFor, but @p fn also receives a stable worker id in
 * [0, jobs): every invocation on the same thread sees the same id, so
 * callers can give each worker private scratch state (arenas, memo
 * caches) without locking.  jobs <= 1 runs inline with worker id 0.
 */
void parallelForWorkers(
    std::size_t n, unsigned jobs,
    const std::function<void(std::size_t, unsigned)> &fn);

} // namespace refrint

#endif // REFRINT_HARNESS_POOL_HH
