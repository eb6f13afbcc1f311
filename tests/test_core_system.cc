/**
 * @file
 * Tests for the trace-driven core model and the CmpSystem assembly:
 * completion semantics, determinism, instruction accounting, and the
 * timing feedback loops (miss stalls and refresh-blocked banks) that
 * produce the paper's slowdown numbers, and the conservation identity
 * of the refresh engines' visit counts.
 */

#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "test_util.hh"
#include "workload/micro.hh"

namespace refrint::test
{

namespace
{

constexpr LevelRole kRoles[] = {LevelRole::IL1, LevelRole::DL1,
                                LevelRole::L2, LevelRole::LLC};

/** Every counter of one level, in a comparable form. */
std::array<std::uint64_t, 12>
fieldsOf(const LevelCounts &n)
{
    const AccessCounts &a = n.access;
    const RefreshCounts &r = n.refresh;
    return {a.reads,      a.writes,         a.misses,
            a.fills,      a.backInvals,     a.decayedHits,
            r.visits,     r.lineRefreshes,  r.writebacks,
            r.invalidations, r.skips,       n.offLineTicks};
}

TEST(CoreSystem, EveryCoreIssuesExactlyTheRequestedRefs)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 1234;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    sys.run();

    for (CoreId c = 0; c < 4; ++c) {
        EXPECT_TRUE(sys.core(c).done());
        EXPECT_EQ(sys.core(c).refsIssued(), 1234u);
    }
}

TEST(CoreSystem, ExecTicksIsTheLatestCoreCompletion)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 800;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    const Tick t = sys.run();

    Tick latest = 0;
    for (CoreId c = 0; c < 4; ++c)
        latest = std::max(latest, sys.core(c).doneTick());
    EXPECT_EQ(t, latest);
    EXPECT_EQ(t, sys.execTicks());
    EXPECT_GT(t, 0u);
}

TEST(CoreSystem, RunsAreDeterministic)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 2000;
    sim.seed = 42;

    CmpSystem a(tinyConfig(CellTech::Edram), app, sim);
    CmpSystem b(tinyConfig(CellTech::Edram), app, sim);
    EXPECT_EQ(a.run(), b.run());
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());

    for (LevelRole r : kRoles) {
        EXPECT_EQ(fieldsOf(a.hierarchy().levelCounts(r)),
                  fieldsOf(b.hierarchy().levelCounts(r)))
            << levelRoleName(r);
    }
    EXPECT_EQ(a.hierarchy().network().totalHops(),
              b.hierarchy().network().totalHops());
    EXPECT_EQ(a.hierarchy().dram().accesses(),
              b.hierarchy().dram().accesses());
}

TEST(CoreSystem, DifferentSeedsChangeTheRun)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 2000;

    sim.seed = 1;
    CmpSystem a(tinyConfig(CellTech::Sram), app, sim);
    const Tick ta = a.run();

    sim.seed = 2;
    CmpSystem b(tinyConfig(CellTech::Sram), app, sim);
    const Tick tb = b.run();

    EXPECT_NE(ta, tb);
}

TEST(CoreSystem, InstructionsCoverGapsAndReferences)
{
    // Each reference executes `gap` instructions (IPC 1) plus the
    // memory operation itself; total instructions must be at least
    // refs * (minGap + 1) per core.
    UniformWorkload app(8 * 1024, 0.3, /*gap=*/3);
    SimParams sim;
    sim.refsPerCore = 1000;
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);
    sys.run();

    EXPECT_GE(sys.totalInstructions(), 4u * 1000u * 4u);
}

TEST(CoreSystem, MissesStallTheCore)
{
    // A streaming workload (every ref misses to DRAM) must run much
    // longer than a hammer workload (every ref an L1 hit) for the same
    // reference count — this is the timing feedback that turns extra
    // refresh-induced misses into the paper's slowdown.
    SimParams sim;
    sim.refsPerCore = 2000;

    StreamWorkload misses(1 << 20, 0.0);
    HammerWorkload hits;
    CmpSystem slow(tinyConfig(CellTech::Sram), misses, sim);
    CmpSystem fast(tinyConfig(CellTech::Sram), hits, sim);

    EXPECT_GT(slow.run(), 2 * fast.run());
}

TEST(CoreSystem, PeriodicRefreshBlockingSlowsExecution)
{
    // Same workload and machine; Periodic-All blocks banks for whole
    // refresh bursts while Refrint steals single cycles: the paper's
    // Fig. 6.4 Periodic-vs-Refrint gap in miniature.
    UniformWorkload app(16 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 8000;

    CmpSystem periodic(
        tinyEdram(RefreshPolicy::periodic(DataPolicy::All)), app, sim);
    CmpSystem refrint(
        tinyEdram(RefreshPolicy::refrint(DataPolicy::All)), app, sim);

    EXPECT_GT(periodic.run(), refrint.run());
}

TEST(CoreSystem, SafetyLimitAborts)
{
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 1'000'000;
    sim.maxTicks = 1000; // absurdly small
    CmpSystem sys(tinyConfig(CellTech::Sram), app, sim);

    EXPECT_EXIT(sys.run(), ::testing::ExitedWithCode(1), "safety limit");
}

TEST(CoreSystem, FetchTrafficHitsThePaperSizedIL1)
{
    // The 32 KB paper IL1 holds the whole 128-line code region, so
    // after warm-up fetches hit; the tiny test machine's IL1 (32
    // lines) deliberately cannot, which the energy calibration relies
    // on being a paper-machine property.
    UniformWorkload app(8 * 1024, 0.3);
    SimParams sim;
    sim.refsPerCore = 5000; // long enough to amortize cold misses
    CmpSystem sys(HierarchyConfig::paperSram(), app, sim);
    sys.run();

    const AccessCounts il1 =
        sys.hierarchy().levelCounts(LevelRole::IL1).access;
    EXPECT_GT(il1.reads, 0u);
    EXPECT_LT(static_cast<double>(il1.misses),
              static_cast<double>(il1.reads) * 0.1);
}

/** Every deadline visit ends in exactly one outcome, on every level,
 *  under every time x data policy, isothermal and on a hot die (where
 *  retention rescales reshape the visit schedule). */
TEST(CoreSystem, RefreshVisitsAreConserved)
{
    UniformWorkload app(16 * 1024, 0.4);
    for (TimePolicy tp : {TimePolicy::Periodic, TimePolicy::Refrint,
                          TimePolicy::SmartRefresh}) {
        for (const auto &[dp, n, m] :
             {std::tuple{DataPolicy::All, 0u, 0u},
              std::tuple{DataPolicy::Valid, 0u, 0u},
              std::tuple{DataPolicy::Dirty, 0u, 0u},
              std::tuple{DataPolicy::WB, 4u, 4u}}) {
            for (bool hot : {false, true}) {
                MachineConfig cfg = tinyEdram(RefreshPolicy{tp, dp, n, m});
                cfg.thermal.enabled = hot;
                cfg.thermal.ambientC = 85.0;
                SCOPED_TRACE(cfg.configName() + (hot ? " @ 85 C" : ""));
                SimParams sim;
                sim.refsPerCore = 6'000;
                CmpSystem sys(cfg, app, sim);
                sys.run();
                std::uint64_t visits = 0;
                for (LevelRole r : kRoles) {
                    const RefreshCounts c =
                        sys.hierarchy().levelCounts(r).refresh;
                    EXPECT_EQ(c.visits, c.lineRefreshes + c.writebacks +
                                            c.invalidations + c.skips)
                        << levelRoleName(r);
                    visits += c.visits;
                }
                EXPECT_GT(visits, 0u);
            }
        }
    }
}

} // namespace
} // namespace refrint::test
