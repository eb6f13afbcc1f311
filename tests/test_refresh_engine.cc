/**
 * @file
 * Unit tests for the refresh engines, using a mock RefreshTarget so the
 * engines are exercised in isolation from the coherence hierarchy.  An
 * engine blocks the bank once per burst or interrupt that services
 * lines, so a refreshed line shows as a bank-time record, a count in
 * the engine's lineRefreshes, and its renewed data clock.
 */

#include <gtest/gtest.h>

#include <vector>

#include "edram/refresh_engine.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

/** One addBusy() call: (cycles, tick). */
using Charge = std::pair<Tick, Tick>;

/** RefreshTarget recording every action the engine takes. */
struct MockTarget : RefreshTarget
{
    explicit MockTarget(std::uint32_t lines)
        : arr(CacheGeometry{static_cast<std::uint64_t>(lines) * 64, 1, 64,
                            1},
              "mock")
    {
    }

    CacheArray &array() override { return arr; }

    void
    writebackLine(std::uint32_t idx, Tick now) override
    {
        wrote.emplace_back(idx, now);
        arr.lineAt(idx).dirty = false;
    }

    void
    invalidateLine(std::uint32_t idx, Tick now) override
    {
        invalidated.emplace_back(idx, now);
        arr.invalidate(arr.lineAt(idx));
    }

    void
    addBusy(Tick now, Tick cycles) override
    {
        charges.emplace_back(cycles, now);
        busyCycles += cycles;
    }

    const char *name() const override { return "mock"; }

    CacheArray arr;
    std::vector<Charge> charges; ///< bank time per burst or interrupt
    std::vector<std::pair<std::uint32_t, Tick>> wrote, invalidated;
    Tick busyCycles = 0;
};

struct EngineFixture
{
    EngineFixture(TimePolicy tp, DataPolicy dp, std::uint32_t n = 0,
                  std::uint32_t m = 0, std::uint32_t lines = 16,
                  Tick retention = 1000, std::uint32_t groupSize = 1)
        : target(lines)
    {
        RefreshPolicy pol{tp, dp, n, m};
        RetentionParams ret{retention, kTickNever, {}, {}};
        EngineGeometry geom{groupSize, 4, 4};
        engine = makeRefreshEngine(target, pol, ret, geom, eq);
    }

    /** Install a valid line at @p idx and tell the engine. */
    CacheLine &
    install(std::uint32_t idx, Tick now, bool dirty = false)
    {
        CacheLine &l = target.arr.lineAt(idx);
        target.arr.install(VictimRef{&l, idx},
                           static_cast<Addr>(idx) * 64, now,
                           dirty ? Mesi::Modified : Mesi::Shared);
        l.dirty = dirty;
        engine->onInstall(idx, now);
        return l;
    }

    MockTarget target;
    EventQueue eq;
    Callbacks cb{eq};
    std::unique_ptr<RefreshEngine> engine;

    /** Line refreshes the engine has counted so far. */
    std::uint64_t refreshed() const { return engine->lineRefreshes(); }
};

} // namespace

// ---------------------------------------------------------------------
// RefrintEngine
// ---------------------------------------------------------------------

TEST(RefrintEngine, SentryMarginFollowsLineCount)
{
    // 16 lines, retention 1000 -> sentry fires at 1000 - 16 = 984.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(3, 0);
    f.eq.run(983);
    EXPECT_TRUE(f.target.charges.empty());
    f.eq.run(984);
    ASSERT_EQ(f.target.charges.size(), 1u);
    EXPECT_EQ(f.target.charges[0], (Charge{1, 984}));
    EXPECT_EQ(f.target.arr.lineAt(3).dataExpiry, 984u + 1000u)
        << "line 3 renewed by the interrupt at 984";
}

TEST(RefrintEngine, AccessDefersTheSentry)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(3, 0);
    // Touch the line at 500: next decay moves to 1484.
    f.cb.at(500, [&](Tick t) { f.engine->onAccess(3, t); });
    f.eq.run(1483);
    EXPECT_TRUE(f.target.charges.empty());
    f.eq.run(1484);
    EXPECT_EQ(f.target.charges, (std::vector<Charge>{{1, 1484}}));
}

TEST(RefrintEngine, HotLineNeverExplicitlyRefreshed)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(5, 0);
    // Touch every 400 ticks, well under the 984-tick sentry retention.
    for (Tick t = 400; t <= 4000; t += 400)
        f.cb.at(t, [&](Tick now) { f.engine->onAccess(5, now); });
    f.eq.run(4000);
    EXPECT_TRUE(f.target.charges.empty())
        << "accesses auto-refresh; the sentry must keep deferring";
}

TEST(RefrintEngine, IdleValidLineRefreshedOncePerSentryPeriod)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(0, 0);
    f.eq.run(984 * 4 + 10);
    EXPECT_EQ(f.refreshed(), 4u);
    EXPECT_EQ(f.target.charges.size(), 4u) << "one interrupt per period";
}

TEST(RefrintEngine, InvalidLinesAreNotTracked)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(5000);
    EXPECT_TRUE(f.target.charges.empty());
    EXPECT_TRUE(f.eq.empty()) << "nothing armed, nothing scheduled";
}

TEST(RefrintEngine, AllPolicyRefreshesInvalidLinesToo)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(2000);
    // All 16 (invalid) lines refreshed at least twice in two periods.
    EXPECT_GE(f.refreshed(), 32u);
    EXPECT_TRUE(f.target.invalidated.empty());
}

TEST(RefrintEngine, DirtyPolicyInvalidatesCleanOnDecay)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Dirty, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(1, 0, /*dirty=*/false);
    f.install(2, 0, /*dirty=*/true);
    f.eq.run(1200);
    ASSERT_EQ(f.target.invalidated.size(), 1u);
    EXPECT_EQ(f.target.invalidated[0].first, 1u);
    ASSERT_EQ(f.target.charges.size(), 1u);
    EXPECT_EQ(f.target.charges[0], (Charge{1, 984}));
    EXPECT_EQ(f.target.arr.lineAt(2).dataExpiry, 984u + 1000u)
        << "the dirty line is the one refreshed";
}

TEST(RefrintEngine, WbLifecycleOnIdleDirtyLine)
{
    // WB(2,1): dirty line refreshed twice, written back, then as a
    // clean line refreshed once more, then invalidated.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::WB, 2, 1, 16, 1000);
    f.engine->start(0);
    f.install(4, 0, /*dirty=*/true);
    f.eq.run(984 * 5);
    EXPECT_EQ(f.refreshed(), 3u); // 2 dirty + 1 clean
    EXPECT_EQ(f.target.wrote.size(), 1u);
    EXPECT_EQ(f.target.invalidated.size(), 1u);
}

TEST(RefrintEngine, GroupedSentriesServiceWholeGroup)
{
    // Group size 4: installing one line arms its group; when the sentry
    // fires, every valid line of the group is serviced together.
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000, /*groupSize=*/4);
    f.engine->start(0);
    f.install(0, 0);
    f.install(1, 0);
    f.install(2, 0);
    f.install(9, 0); // different group
    f.eq.run(990);
    EXPECT_EQ(f.refreshed(), 4u);
    EXPECT_EQ(f.target.charges,
              (std::vector<Charge>{{3, 984}, {1, 984}}))
        << "one bank block per group interrupt";
    EXPECT_EQ(f.target.busyCycles, 4u) << "one stolen cycle per line";
}

TEST(RefrintEngine, GroupFiresAtEarliestMemberDeadline)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000, /*groupSize=*/4);
    f.engine->start(0);
    f.install(0, 0);
    // Second member installed later: group still fires at the first
    // member's deadline, refreshing both (the grouping cost).
    f.cb.at(500, [&](Tick t) { f.install(1, t); });
    f.eq.run(984);
    EXPECT_EQ(f.target.charges, (std::vector<Charge>{{2, 984}}));
    EXPECT_EQ(f.target.arr.lineAt(1).dataExpiry, 984u + 1000u);
}

TEST(RefrintEngine, BusyCyclesMatchServicedLines)
{
    EngineFixture f(TimePolicy::Refrint, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    for (std::uint32_t i = 0; i < 8; ++i)
        f.install(i, 0);
    f.eq.run(990);
    EXPECT_EQ(f.target.busyCycles, 8u);
}

// ---------------------------------------------------------------------
// PeriodicEngine
// ---------------------------------------------------------------------

TEST(PeriodicEngine, VisitsEveryLineOncePerPeriod)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(1000);
    EXPECT_EQ(f.refreshed(), 16u);
    EXPECT_EQ(f.target.charges.size(), 4u) << "one bank block per burst";
    f.eq.run(2000);
    EXPECT_EQ(f.refreshed(), 32u);
}

TEST(PeriodicEngine, BurstsAreStaggeredAcrossThePeriod)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(499);
    const std::uint64_t firstHalf = f.refreshed();
    EXPECT_GT(firstHalf, 0u);
    EXPECT_LT(firstHalf, 16u)
        << "the full cache must not refresh in one burst";
}

TEST(PeriodicEngine, EagerlyRefreshesRecentlyAccessedLines)
{
    // The hallmark weakness of Periodic (§3.1): it refreshes lines even
    // if an access just auto-refreshed them.
    EngineFixture f(TimePolicy::Periodic, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(0, 0);
    for (Tick t = 100; t <= 2000; t += 100)
        f.cb.at(t, [&](Tick now) { f.engine->onAccess(0, now); });
    f.eq.run(2100);
    EXPECT_GE(f.refreshed(), 2u)
        << "periodic refreshes hot lines anyway";
}

TEST(PeriodicEngine, ValidSkipsInvalidLines)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::Valid, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(7, 0);
    f.eq.run(1000);
    // Line 7 sits in burst 1 (lines 4-7), phased at 1000 / 4 + 1.
    EXPECT_EQ(f.target.charges, (std::vector<Charge>{{1, 251}}));
    EXPECT_EQ(f.target.arr.lineAt(7).dataExpiry, 251u + 1000u);
}

TEST(PeriodicEngine, WbCountsDownAcrossPeriods)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::WB, 1, 0, 16,
                    1000);
    f.engine->start(0);
    f.install(2, 0, /*dirty=*/true);
    f.eq.run(3 * 1000 + 10);
    // Period 1: count 1 -> refresh; period 2: count 0 dirty -> WB;
    // period 3: clean, m=0 -> invalidate.
    EXPECT_EQ(f.refreshed(), 1u);
    EXPECT_EQ(f.target.wrote.size(), 1u);
    EXPECT_EQ(f.target.invalidated.size(), 1u);
}

TEST(PeriodicEngine, BlocksTheBankWhileRefreshing)
{
    EngineFixture f(TimePolicy::Periodic, DataPolicy::All, 0, 0, 16,
                    1000);
    f.engine->start(0);
    f.eq.run(1000);
    EXPECT_EQ(f.target.busyCycles, 16u)
        << "refreshing a line costs one blocked cycle (Table 5.2)";
}

TEST(EngineDeath, SentryMarginMustFitRetention)
{
    // 16-line cache with retention 10 cycles: the conservative margin
    // (= line count) exceeds the retention period.
    MockTarget target(16);
    EventQueue eq;
    RetentionParams ret{10, kTickNever, {}, {}};
    EngineGeometry geom{1, 4, 4};
    EXPECT_DEATH(makeRefreshEngine(
                     target, RefreshPolicy::refrint(DataPolicy::Valid),
                     ret, geom, eq),
                 "sentry margin");
}

} // namespace refrint::test
