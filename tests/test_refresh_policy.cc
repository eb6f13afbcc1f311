/**
 * @file
 * Unit tests for the data-policy decision algorithm (Table 3.1 and
 * Fig. 4.1), including the WB(n,m) Count state machine and the policy
 * name round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "edram/refresh_policy.hh"
#include "harness/sweep.hh"

namespace refrint::test
{

namespace
{
CacheLine
validClean()
{
    CacheLine l;
    l.state = Mesi::Shared;
    l.dirty = false;
    return l;
}

CacheLine
validDirty()
{
    CacheLine l;
    l.state = Mesi::Modified;
    l.dirty = true;
    return l;
}
} // namespace

TEST(PolicyNames, RoundTrip)
{
    std::vector<std::string> names = {"P.all", "R.all", "P.valid",
                                      "R.valid", "P.dirty", "R.dirty",
                                      "P.WB(4,4)", "R.WB(32,32)",
                                      "R.WB(16,8)"};
    // Every policy the paper sweep runs, and its SmartRefresh twin.
    const std::vector<RefreshPolicy> sweep = paperPolicySweep();
    ASSERT_EQ(sweep.size(), 14u);
    for (const RefreshPolicy &p : sweep) {
        names.push_back(p.name());
        names.push_back("S" + p.name().substr(1));
    }
    for (const std::string &s : names) {
        SCOPED_TRACE(s);
        const std::optional<RefreshPolicy> p = tryParsePolicy(s);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->name(), s);
        EXPECT_EQ(parsePolicy(s).name(), s);
    }
    EXPECT_EQ(tryParsePolicy("S.WB(8,8)")->time, TimePolicy::SmartRefresh);
}

TEST(PolicyNames, TryParseAcceptsOnlyTheCanonicalSpelling)
{
    // Each would otherwise alias a canonical policy (or a huge WB
    // count) under a store key its row's name does not match.
    for (const char *s :
         {"R.WB(32,32", "R.WB(32,32)junk", "R.WB( 32,32)", "R.WB(-1,4)",
          "R.WB(+1,4)", "R.WB(032,32)", "R.WB(32, 32)",
          "R.WB(4294967296,4)", "R.WB(4,4)(", "R.WB(,4)", "R.allx",
          "R.all ", "R.", "SRAM", "", "R.WB(4)", "X.valid"}) {
        SCOPED_TRACE(s);
        EXPECT_FALSE(tryParsePolicy(s).has_value());
    }
    // An embedded NUL must not end the comparison early.
    EXPECT_FALSE(tryParsePolicy(std::string("R.all\0x", 7)).has_value());
    // The largest count name() can print still round-trips.
    EXPECT_EQ(tryParsePolicy("R.WB(4294967295,0)")->name(),
              "R.WB(4294967295,0)");
}

TEST(PolicyNames, Constructors)
{
    EXPECT_EQ(RefreshPolicy::periodic(DataPolicy::All).name(), "P.all");
    EXPECT_EQ(RefreshPolicy::refrint(DataPolicy::WB, 8, 8).name(),
              "R.WB(8,8)");
}

TEST(AllPolicy, RefreshesEverything)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::All);
    CacheLine inv;                    // Invalid
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(ValidPolicy, RefreshesOnlyValid)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Valid);
    CacheLine inv;
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(DirtyPolicy, InvalidatesCleanLines)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Dirty);
    CacheLine inv;
    CacheLine vc = validClean();
    CacheLine vd = validDirty();
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
    EXPECT_EQ(decideRefresh(p, vc), RefreshAction::Invalidate);
    EXPECT_EQ(decideRefresh(p, vd), RefreshAction::Refresh);
}

TEST(WbPolicy, DirtyLineRefreshedNTimesThenWrittenBack)
{
    // Fig. 4.1: a dirty line with Count=n is refreshed n times (one per
    // sentry interrupt, decrementing), then written back and reborn as
    // Valid-Clean with Count=m.
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 3, 2);
    CacheLine l = validDirty();
    noteAccess(p, l);
    EXPECT_EQ(l.count, 3u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(l.count, 2u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(l.count, 0u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Writeback);
    EXPECT_EQ(l.count, 2u) << "writeback reloads Count with m";
}

TEST(WbPolicy, CleanLineRefreshedMTimesThenInvalidated)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 3, 2);
    CacheLine l = validClean();
    noteAccess(p, l);
    EXPECT_EQ(l.count, 2u);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Refresh);
    EXPECT_EQ(decideRefresh(p, l), RefreshAction::Invalidate);
}

TEST(WbPolicy, AccessResetsCount)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 4, 4);
    CacheLine l = validDirty();
    noteAccess(p, l);
    decideRefresh(p, l);
    decideRefresh(p, l);
    EXPECT_EQ(l.count, 2u);
    noteAccess(p, l); // normal access: Count back to n
    EXPECT_EQ(l.count, 4u);
}

TEST(WbPolicy, CountResetDependsOnDirtiness)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 7, 3);
    CacheLine d = validDirty();
    CacheLine c = validClean();
    noteAccess(p, d);
    noteAccess(p, c);
    EXPECT_EQ(d.count, 7u);
    EXPECT_EQ(c.count, 3u);
}

TEST(WbPolicy, InvalidLinesSkip)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 4, 4);
    CacheLine inv;
    EXPECT_EQ(decideRefresh(p, inv), RefreshAction::Skip);
}

TEST(WbPolicy, Wb0MirrorsDirtyPolicyOnCleanLines)
{
    // Dirty == WB(inf, 0): a clean line with m=0 dies on first deadline.
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 1000, 0);
    CacheLine c = validClean();
    noteAccess(p, c);
    EXPECT_EQ(decideRefresh(p, c), RefreshAction::Invalidate);
}

TEST(WbPolicy, DirtyZeroNWritesBackImmediately)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::WB, 0, 5);
    CacheLine d = validDirty();
    noteAccess(p, d);
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(decideRefresh(p, d), RefreshAction::Writeback);
}

TEST(NoteAccess, NonWbPoliciesIgnoreCount)
{
    RefreshPolicy p = RefreshPolicy::refrint(DataPolicy::Valid);
    CacheLine l = validClean();
    l.count = 5;
    noteAccess(p, l);
    EXPECT_EQ(l.count, 5u) << "Count is a WB-only field";
}

TEST(PolicyDeath, ParseRejectsGarbage)
{
    EXPECT_EXIT(parsePolicy("X.valid"), ::testing::ExitedWithCode(1),
                "cannot parse");
    EXPECT_EXIT(parsePolicy("R.WB(4)"), ::testing::ExitedWithCode(1),
                "cannot parse");
    EXPECT_EXIT(parsePolicy("R.bogus"), ::testing::ExitedWithCode(1),
                "cannot parse");
}

} // namespace refrint::test
