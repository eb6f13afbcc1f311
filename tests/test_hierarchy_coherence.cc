/**
 * @file
 * Directory-MESI protocol tests for the coherent hierarchy, run on the
 * SRAM configuration so no refresh engine perturbs the state machine.
 * Every test drives Hierarchy::access() directly and inspects cache and
 * directory state through the component accessors.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "test_util.hh"

namespace refrint::test
{

namespace
{

/** A data address that maps to L3 bank 0 of the tiny machine. */
constexpr Addr kA = 0x10000;

class CoherenceTest : public ::testing::Test
{
  protected:
    CoherenceTest() : hier(tinyConfig(CellTech::Sram), eq) {}

    /** Issue an access and advance the local clock past it. */
    Tick
    access(CoreId c, Addr a, AccessType t)
    {
        now = hier.access(c, a, t, now) + 1;
        return now;
    }

    Tick load(CoreId c, Addr a) { return access(c, a, AccessType::Load); }
    Tick store(CoreId c, Addr a) { return access(c, a, AccessType::Store); }
    Tick fetch(CoreId c, Addr a) { return access(c, a, AccessType::Fetch); }

    CacheLine *
    l3Line(Addr a)
    {
        return hier.l3Bank(hier.bankOf(a)).array.lookup(a);
    }

    CacheLine *l2Line(CoreId c, Addr a) { return hier.l2(c).array.lookup(a); }
    CacheLine *dl1Line(CoreId c, Addr a) { return hier.dl1(c).array.lookup(a); }
    CacheLine *il1Line(CoreId c, Addr a) { return hier.il1(c).array.lookup(a); }

    EventQueue eq;
    Hierarchy hier;
    Tick now = 0;
};

// ---------------------------------------------------------------------
// Fill paths
// ---------------------------------------------------------------------

TEST_F(CoherenceTest, LoadMissFillsAllLevels)
{
    load(0, kA);

    ASSERT_NE(dl1Line(0, kA), nullptr);
    ASSERT_NE(l2Line(0, kA), nullptr);
    ASSERT_NE(l3Line(kA), nullptr);
    EXPECT_EQ(hier.dram().reads(), 1u);
}

TEST_F(CoherenceTest, FirstLoaderIsGrantedExclusive)
{
    load(0, kA);

    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Exclusive);
    EXPECT_EQ(l3Line(kA)->owner, 0);
    EXPECT_EQ(l3Line(kA)->sharers, 1u << 0);
}

TEST_F(CoherenceTest, SecondLoaderDowngradesToShared)
{
    load(0, kA);
    load(1, kA);

    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Shared);
    EXPECT_EQ(l2Line(1, kA)->state, Mesi::Shared);
    EXPECT_EQ(l3Line(kA)->owner, -1);
    EXPECT_EQ(l3Line(kA)->sharers, (1u << 0) | (1u << 1));
}

TEST_F(CoherenceTest, LoadHitInL1SkipsLowerLevels)
{
    load(0, kA);
    const auto l2Reads = hier.l2(0).counts.reads;
    const auto l3Reads = hier.l3Bank(hier.bankOf(kA)).counts.reads;

    load(0, kA);

    EXPECT_EQ(hier.l2(0).counts.reads, l2Reads);
    EXPECT_EQ(hier.l3Bank(hier.bankOf(kA)).counts.reads, l3Reads);
}

TEST_F(CoherenceTest, FetchFillsIL1NotDL1)
{
    fetch(0, kA);

    EXPECT_NE(il1Line(0, kA), nullptr);
    EXPECT_EQ(dl1Line(0, kA), nullptr);
}

TEST_F(CoherenceTest, FetchAndLoadShareTheL2Copy)
{
    fetch(0, kA);
    const auto l3Misses = hier.l3Bank(hier.bankOf(kA)).counts.misses;
    load(0, kA);

    // The load hits the L2 copy installed by the fetch: no new L3 miss.
    EXPECT_EQ(hier.l3Bank(hier.bankOf(kA)).counts.misses, l3Misses);
    EXPECT_NE(il1Line(0, kA), nullptr);
    EXPECT_NE(dl1Line(0, kA), nullptr);
}

// ---------------------------------------------------------------------
// Stores, ownership and upgrades
// ---------------------------------------------------------------------

TEST_F(CoherenceTest, StoreMissInstallsModified)
{
    store(0, kA);

    ASSERT_NE(l2Line(0, kA), nullptr);
    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Modified);
    EXPECT_TRUE(l2Line(0, kA)->dirty);
    EXPECT_EQ(l3Line(kA)->owner, 0);
    EXPECT_EQ(l3Line(kA)->sharers, 1u << 0);
}

TEST_F(CoherenceTest, StoreDoesNotAllocateInDL1)
{
    store(0, kA);

    EXPECT_EQ(dl1Line(0, kA), nullptr); // no-write-allocate DL1
}

TEST_F(CoherenceTest, StoreUpdatesExistingDL1Copy)
{
    load(0, kA);
    ASSERT_NE(dl1Line(0, kA), nullptr);

    store(0, kA);

    // Write-through, write-update: the copy stays resident.
    EXPECT_NE(dl1Line(0, kA), nullptr);
}

TEST_F(CoherenceTest, WriteThroughStoresAlwaysReachL2)
{
    store(0, kA);
    const auto w = hier.l2(0).counts.writes;

    store(0, kA);
    store(0, kA);

    EXPECT_EQ(hier.l2(0).counts.writes, w + 2);
}

TEST_F(CoherenceTest, SilentExclusiveToModifiedUpgrade)
{
    load(0, kA);
    ASSERT_EQ(l2Line(0, kA)->state, Mesi::Exclusive);
    const auto l3Reads = hier.l3Bank(hier.bankOf(kA)).counts.reads;

    store(0, kA);

    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Modified);
    EXPECT_TRUE(l2Line(0, kA)->dirty);
    // The upgrade is silent: no directory transaction.
    EXPECT_EQ(hier.l3Bank(hier.bankOf(kA)).counts.reads, l3Reads);
    EXPECT_EQ(l3Line(kA)->owner, 0);
}

TEST_F(CoherenceTest, SharedToModifiedUpgradeInvalidatesPeers)
{
    load(0, kA);
    load(1, kA);
    load(2, kA);

    store(0, kA);

    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Modified);
    EXPECT_EQ(l2Line(1, kA), nullptr);
    EXPECT_EQ(l2Line(2, kA), nullptr);
    EXPECT_EQ(l3Line(kA)->sharers, 1u << 0);
    EXPECT_EQ(l3Line(kA)->owner, 0);
}

TEST_F(CoherenceTest, UpgradeInvalidatesPeerL1Copies)
{
    load(1, kA);
    ASSERT_NE(dl1Line(1, kA), nullptr);

    store(0, kA);

    EXPECT_EQ(dl1Line(1, kA), nullptr);
    EXPECT_EQ(l2Line(1, kA), nullptr);
}

// ---------------------------------------------------------------------
// Owner intervention
// ---------------------------------------------------------------------

TEST_F(CoherenceTest, ReadOfModifiedLineFetchesFromOwner)
{
    store(0, kA);
    load(1, kA);

    // Owner was downgraded to Shared and its data became L3's dirty copy.
    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Shared);
    EXPECT_FALSE(l2Line(0, kA)->dirty);
    EXPECT_EQ(l2Line(1, kA)->state, Mesi::Shared);
    EXPECT_TRUE(l3Line(kA)->dirty);
    EXPECT_EQ(l3Line(kA)->owner, -1);
    EXPECT_EQ(l3Line(kA)->sharers, (1u << 0) | (1u << 1));
}

TEST_F(CoherenceTest, ReadOfModifiedLineDoesNotTouchDram)
{
    store(0, kA);
    const auto reads = hier.dram().reads();
    const auto writes = hier.dram().writes();

    load(1, kA);

    // Cache-to-cache transfer: the dirty data stays on chip.
    EXPECT_EQ(hier.dram().reads(), reads);
    EXPECT_EQ(hier.dram().writes(), writes);
}

TEST_F(CoherenceTest, WriteToModifiedLineInvalidatesOwner)
{
    store(0, kA);
    store(1, kA);

    EXPECT_EQ(l2Line(0, kA), nullptr);
    EXPECT_EQ(l2Line(1, kA)->state, Mesi::Modified);
    EXPECT_EQ(l3Line(kA)->owner, 1);
    EXPECT_EQ(l3Line(kA)->sharers, 1u << 1);
    EXPECT_TRUE(l3Line(kA)->dirty); // previous owner's data landed in L3
}

TEST_F(CoherenceTest, ReadOfExclusiveLineDowngradesWithoutDirtyData)
{
    load(0, kA); // Exclusive, clean
    load(1, kA);

    EXPECT_EQ(l2Line(0, kA)->state, Mesi::Shared);
    EXPECT_FALSE(l3Line(kA)->dirty); // nothing was modified
}

TEST_F(CoherenceTest, InterventionAddsLatencyOverPlainMiss)
{
    // Same-address load by c1: once when c0 holds it Modified
    // (intervention) vs. on a fresh machine where the line is resident
    // but unowned (plain L3 hit).
    store(0, kA);
    const Tick t0 = now;
    const Tick interventionLat =
        hier.access(1, kA, AccessType::Load, t0) - t0;

    EventQueue eq2;
    Hierarchy fresh(tinyConfig(CellTech::Sram), eq2);
    Tick t1 = fresh.access(2, kA, AccessType::Load, 0) + 1;
    t1 = fresh.access(3, kA, AccessType::Load, t1) + 1; // owner cleared
    const Tick hitLat = fresh.access(1, kA, AccessType::Load, t1) - t1;

    EXPECT_GT(interventionLat, hitLat);
}

// ---------------------------------------------------------------------
// Evictions and inclusion
// ---------------------------------------------------------------------

/** The @p i-th distinct address (i >= 1) that lands in @p base's L3
 *  bank *and* set.  Found by search so it works with the hashed L3
 *  index, which no constant stride can defeat. */
Addr
conflictAddr(const Hierarchy &h, Addr base, std::uint32_t i)
{
    const CacheGeometry &g = h.config().llc().geom;
    const std::uint32_t wantSet = g.setIndex(base);
    const std::uint32_t wantBank = h.bankOf(base);
    const Addr bankSpan = Addr{64} << h.config().llc().geom.indexShift;
    std::uint32_t found = 0;
    for (Addr a = base + bankSpan * 4;; a += bankSpan * 4) {
        if (h.bankOf(a) == wantBank && g.setIndex(a) == wantSet) {
            if (++found == i)
                return a;
        }
    }
}

TEST_F(CoherenceTest, L3EvictionBackInvalidatesPrivateCopies)
{
    load(0, kA);
    ASSERT_NE(dl1Line(0, kA), nullptr);

    // Overflow kA's L3 set (8 ways) from another core.
    for (std::uint32_t i = 1; i <= 8; ++i)
        load(1, conflictAddr(hier, kA, i));

    EXPECT_EQ(l3Line(kA), nullptr);
    EXPECT_EQ(l2Line(0, kA), nullptr);
    EXPECT_EQ(dl1Line(0, kA), nullptr);
    EXPECT_GE(hier.l2(0).counts.backInvals, 1u);
}

TEST_F(CoherenceTest, L3EvictionOfModifiedLineRescuesDataToDram)
{
    store(0, kA);
    const auto w = hier.dram().writes();

    for (std::uint32_t i = 1; i <= 8; ++i)
        load(1, conflictAddr(hier, kA, i));

    ASSERT_EQ(l3Line(kA), nullptr);
    EXPECT_EQ(hier.dram().writes(), w + 1);
}

TEST_F(CoherenceTest, CleanL3EvictionWritesNothingToDram)
{
    load(0, kA);
    const auto w = hier.dram().writes();

    for (std::uint32_t i = 1; i <= 8; ++i)
        load(1, conflictAddr(hier, kA, i));

    ASSERT_EQ(l3Line(kA), nullptr);
    EXPECT_EQ(hier.dram().writes(), w);
}

TEST_F(CoherenceTest, L2EvictionOfModifiedLineDirtiesL3)
{
    // tiny L2: 8 KB, 8-way, 64 B lines -> 16 sets; overflow one set.
    const Addr base = 0x40000;
    const auto l2SetStride = static_cast<Addr>(16 * 64);
    store(0, base);
    ASSERT_EQ(l2Line(0, base)->state, Mesi::Modified);

    for (std::uint32_t i = 1; i <= 8; ++i)
        store(0, base + i * l2SetStride);

    EXPECT_EQ(l2Line(0, base), nullptr);
    ASSERT_NE(l3Line(base), nullptr);
    EXPECT_TRUE(l3Line(base)->dirty);
    EXPECT_EQ(l3Line(base)->owner, -1);
    EXPECT_EQ(l3Line(base)->sharers & 1u, 0u);
}

TEST_F(CoherenceTest, L2EvictionDropsL1CopiesForInclusion)
{
    const Addr base = 0x40000;
    const auto l2SetStride = static_cast<Addr>(16 * 64);
    load(0, base);
    ASSERT_NE(dl1Line(0, base), nullptr);

    for (std::uint32_t i = 1; i <= 8; ++i)
        load(0, base + i * l2SetStride);

    EXPECT_EQ(l2Line(0, base), nullptr);
    EXPECT_EQ(dl1Line(0, base), nullptr);
}

TEST_F(CoherenceTest, CleanL2EvictionUpdatesDirectory)
{
    const Addr base = 0x40000;
    const auto l2SetStride = static_cast<Addr>(16 * 64);
    load(0, base);

    for (std::uint32_t i = 1; i <= 8; ++i)
        load(0, base + i * l2SetStride);

    ASSERT_NE(l3Line(base), nullptr);
    EXPECT_EQ(l3Line(base)->sharers & 1u, 0u);
    EXPECT_EQ(l3Line(base)->owner, -1);
}

// ---------------------------------------------------------------------
// Directory / bank mapping / flush
// ---------------------------------------------------------------------

TEST_F(CoherenceTest, AddressesInterleaveAcrossBanksByLine)
{
    const std::uint32_t banks = hier.numBanks();
    for (std::uint32_t i = 0; i < 2 * banks; ++i) {
        EXPECT_EQ(hier.bankOf(i * 64), i % banks);
    }
}

TEST_F(CoherenceTest, SameBankForAllBytesOfOneLine)
{
    EXPECT_EQ(hier.bankOf(kA), hier.bankOf(kA + 63));
    EXPECT_NE(hier.bankOf(kA), hier.bankOf(kA + 64));
}

TEST_F(CoherenceTest, FlushDirtyChargesAllModifiedData)
{
    store(0, kA);          // Modified in c0's L2 (L3 copy clean)
    store(1, kA + 64);     // Modified in c1's L2
    store(2, kA + 128);
    load(3, kA + 128);     // downgrade: L3 copy becomes the dirty one
    const auto w = hier.dram().writes();

    hier.flushDirty();

    // Two L2-Modified lines + one dirty L3 line.
    EXPECT_EQ(hier.dram().writes(), w + 3);
}

TEST_F(CoherenceTest, FlushDirtyIsIdempotentOnCleanHierarchy)
{
    load(0, kA);
    const auto w = hier.dram().writes();

    hier.flushDirty();

    EXPECT_EQ(hier.dram().writes(), w);
}

// ---------------------------------------------------------------------
// Randomized property test: the protocol invariants hold under
// arbitrary interleavings of loads/stores/fetches from all cores.
// ---------------------------------------------------------------------

struct RandomTrafficParam
{
    std::uint64_t seed;
    std::uint64_t regionBytes; ///< shared region size (contention knob)
    double writeFraction;
};

class RandomTrafficTest
    : public ::testing::TestWithParam<RandomTrafficParam>
{
};

TEST_P(RandomTrafficTest, InvariantsHoldUnderRandomSharedTraffic)
{
    const RandomTrafficParam p = GetParam();
    EventQueue eq;
    Hierarchy hier(tinyConfig(CellTech::Sram), eq);
    Prng rng(p.seed);

    Tick now = 0;
    const std::uint64_t lines = p.regionBytes / 64;
    for (int i = 0; i < 4000; ++i) {
        const auto c = static_cast<CoreId>(rng.next() % 4);
        const Addr a = (rng.next() % lines) * 64;
        const bool wr = rng.uniform() < p.writeFraction;
        now = hier.access(c, a,
                          wr ? AccessType::Store : AccessType::Load, now) +
              1;
        if (i % 500 == 0)
            hier.checkInvariants(now);
    }
    hier.checkInvariants(now);
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, RandomTrafficTest,
    ::testing::Values(
        RandomTrafficParam{1, 4 * 1024, 0.0},    // read-only sharing
        RandomTrafficParam{2, 4 * 1024, 0.3},    // hot shared set
        RandomTrafficParam{3, 4 * 1024, 1.0},    // write storm
        RandomTrafficParam{4, 256 * 1024, 0.3},  // spills all levels
        RandomTrafficParam{5, 1024, 0.5},        // extreme contention
        RandomTrafficParam{6, 64 * 1024, 0.05}), // mostly reads, L3-sized
    [](const ::testing::TestParamInfo<RandomTrafficParam> &info) {
        return "seed" + std::to_string(info.param.seed) + "_" +
               std::to_string(info.param.regionBytes / 1024) + "k_w" +
               std::to_string(
                   static_cast<int>(info.param.writeFraction * 100));
    });

} // namespace
} // namespace refrint::test
