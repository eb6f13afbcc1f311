/**
 * @file
 * Tests for the parallel sweep engine: a multi-threaded sweep must be
 * bit-identical to the serial one (same per-run PRNG seeds, results
 * collected in plan order), the result store must round-trip every
 * field exactly (%.17g), a warm store must satisfy a repeat sweep with
 * zero simulations, and the parallel loops must cover every index once
 * under stable worker ids.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/pool.hh"
#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

/** Exact, field-by-field comparison of two runs. */
void
expectRunsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.retentionUs, b.retentionUs);
    EXPECT_EQ(a.execTicks, b.execTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.energy.l1, b.energy.l1);
    EXPECT_EQ(a.energy.l2, b.energy.l2);
    EXPECT_EQ(a.energy.l3, b.energy.l3);
    EXPECT_EQ(a.energy.dram, b.energy.dram);
    EXPECT_EQ(a.energy.dynamic, b.energy.dynamic);
    EXPECT_EQ(a.energy.leakage, b.energy.leakage);
    EXPECT_EQ(a.energy.refresh, b.energy.refresh);
    EXPECT_EQ(a.energy.core, b.energy.core);
    EXPECT_EQ(a.energy.net, b.energy.net);
    EXPECT_EQ(a.counts.dramAccesses, b.counts.dramAccesses);
    EXPECT_EQ(a.counts.l3Misses, b.counts.l3Misses);
    EXPECT_EQ(a.counts.l3Refreshes, b.counts.l3Refreshes);
    EXPECT_EQ(a.counts.refreshWritebacks, b.counts.refreshWritebacks);
    EXPECT_EQ(a.counts.refreshInvalidations,
              b.counts.refreshInvalidations);
    EXPECT_EQ(a.counts.decayedHits, b.counts.decayedHits);
}

/** A small multi-app, multi-policy grid that still exercises ordering:
 *  2 apps x (1 baseline + 2 retentions x 3 policies) = 14 runs. */
ExperimentPlan::Grid
smallGrid(const Workload &a1, const Workload &a2)
{
    ExperimentPlan::Grid g;
    g.apps = {&a1, &a2};
    g.retentions = {usToTicks(50.0), usToTicks(100.0)};
    g.policies = {RefreshPolicy::refrint(DataPolicy::Valid),
                  RefreshPolicy::periodic(DataPolicy::All),
                  RefreshPolicy::refrint(DataPolicy::WB, 4, 4)};
    g.sim.refsPerCore = 1200;
    return g;
}

TEST(SweepParallelTest, FourJobsBitIdenticalToSerial)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);

    const SweepResult a = runGrid(smallGrid(u, s), "", /*jobs=*/1);
    const SweepResult b = runGrid(smallGrid(u, s), "", /*jobs=*/4);

    ASSERT_EQ(a.raw.size(), 14u);
    ASSERT_EQ(a.raw.size(), b.raw.size());
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
        SCOPED_TRACE(a.raw[i].app + "/" + a.raw[i].config);
        expectRunsIdentical(a.raw[i], b.raw[i]);
    }

    ASSERT_EQ(a.normalized.size(), 12u);
    ASSERT_EQ(a.normalized.size(), b.normalized.size());
    for (std::size_t i = 0; i < a.normalized.size(); ++i) {
        EXPECT_EQ(a.normalized[i].app, b.normalized[i].app);
        EXPECT_EQ(a.normalized[i].config, b.normalized[i].config);
        EXPECT_EQ(a.normalized[i].time, b.normalized[i].time);
        EXPECT_EQ(a.normalized[i].memEnergy, b.normalized[i].memEnergy);
        EXPECT_EQ(a.normalized[i].sysEnergy, b.normalized[i].sysEnergy);
        EXPECT_EQ(a.normalized[i].refresh, b.normalized[i].refresh);
    }
}

TEST(SweepParallelTest, CacheRoundTripsEveryFieldExactly)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir = ::testing::TempDir() + "/sweep_parallel_rt_store";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runGrid(smallGrid(u, s), dir);
    const SweepResult cached = runGrid(smallGrid(u, s), dir);

    ASSERT_EQ(fresh.raw.size(), cached.raw.size());
    for (std::size_t i = 0; i < fresh.raw.size(); ++i) {
        SCOPED_TRACE(fresh.raw[i].app + "/" + fresh.raw[i].config);
        expectRunsIdentical(fresh.raw[i], cached.raw[i]);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepParallelTest, WarmCacheRunsZeroSimulations)
{
    UniformWorkload u(8 * 1024, 0.3);
    StreamWorkload s(32 * 1024, 0.2);
    const std::string dir =
        ::testing::TempDir() + "/sweep_parallel_warm_store";
    std::filesystem::remove_all(dir);

    const SweepResult fresh = runGrid(smallGrid(u, s), dir, /*jobs=*/4);
    EXPECT_EQ(fresh.simulations, fresh.raw.size());

    const SweepResult warm = runGrid(smallGrid(u, s), dir, /*jobs=*/4);
    EXPECT_EQ(warm.simulations, 0u);
    ASSERT_EQ(warm.raw.size(), fresh.raw.size());
    std::filesystem::remove_all(dir);
}

TEST(PoolTest, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), 8,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(PoolTest, WorkerIdsAreStablePerThread)
{
    // Every index runs once, under an id in [0, jobs), and one id
    // never appears on two threads.
    constexpr unsigned kJobs = 4;
    std::mutex mu;
    std::map<unsigned, std::set<std::thread::id>> threadsOf;
    std::vector<std::atomic<int>> hits(200);
    for (auto &h : hits)
        h = 0;
    parallelForWorkers(hits.size(), kJobs,
                       [&](std::size_t i, unsigned worker) {
                           hits[i].fetch_add(1);
                           std::lock_guard<std::mutex> lock(mu);
                           threadsOf[worker].insert(
                               std::this_thread::get_id());
                       });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    for (const auto &[worker, threads] : threadsOf) {
        EXPECT_LT(worker, kJobs);
        EXPECT_EQ(threads.size(), 1u) << "worker " << worker;
    }
}

TEST(PoolTest, SerialFallbackRunsInline)
{
    std::size_t count = 0; // unguarded: jobs=1 must stay on this thread
    parallelFor(100, 1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count, 100u);
}

} // namespace
} // namespace refrint::test
