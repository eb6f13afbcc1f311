/**
 * @file
 * Tests for the synthetic workload generators: determinism, address-map
 * discipline, the tunables' first-order effects, and — most importantly
 * — that each paper application measures into its Table 6.1 class
 * (footprint/visibility binning), since that binning is what drives the
 * class-wise evaluation figures.
 */

#include <gtest/gtest.h>

#include <set>

#include "harness/binning.hh"
#include "harness/runner.hh"
#include "test_util.hh"
#include "workload/method.hh"
#include "workload/micro.hh"
#include "workload/synthetic.hh"

namespace refrint
{

/** gtest prints a parameter into the test's listed name; print a
 *  workload by name, not by its per-process address, so the name is the
 *  same on every run. */
void
PrintTo(const Workload *w, std::ostream *os)
{
    *os << w->name();
}

} // namespace refrint

namespace refrint::test
{

namespace
{

/** Collect @p n refs from one core's stream. */
std::vector<MemRef>
collect(const Workload &w, CoreId core, std::uint32_t numCores,
        std::uint64_t seed, std::size_t n)
{
    auto s = w.makeStream(core, numCores, seed);
    std::vector<MemRef> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(s->next());
    return v;
}

TEST(Workloads, PaperSuiteHasElevenApplications)
{
    EXPECT_EQ(paperWorkloads().size(), 11u);
}

TEST(Workloads, FindWorkloadRoundTripsEveryName)
{
    for (const Workload *w : paperWorkloads()) {
        EXPECT_EQ(findWorkload(w->name()), w) << w->name();
    }
    EXPECT_EQ(findWorkload("nonexistent"), nullptr);
}

TEST(Workloads, EveryAppDeclaresAPaperClass)
{
    for (const Workload *w : paperWorkloads()) {
        EXPECT_GE(w->paperClass(), 1) << w->name();
        EXPECT_LE(w->paperClass(), 3) << w->name();
    }
}

TEST(Workloads, Table61BinningIsComplete)
{
    // Table 6.1: Class 1 = {fft, fmm, cholesky, fluidanimate},
    // Class 2 = {barnes, lu, radix, radiosity},
    // Class 3 = {blackscholes, streamcluster, raytrace}.
    EXPECT_EQ(workloadsOfClass(1).size(), 4u);
    EXPECT_EQ(workloadsOfClass(2).size(), 4u);
    EXPECT_EQ(workloadsOfClass(3).size(), 3u);
}

TEST(Workloads, StreamsAreDeterministicPerSeed)
{
    const Workload *w = findWorkload("barnes");
    ASSERT_NE(w, nullptr);
    const auto a = collect(*w, 0, 16, 99, 5000);
    const auto b = collect(*w, 0, 16, 99, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].write, b[i].write);
        EXPECT_EQ(a[i].gap, b[i].gap);
    }
}

TEST(Workloads, DifferentSeedsProduceDifferentStreams)
{
    const Workload *w = findWorkload("barnes");
    const auto a = collect(*w, 0, 16, 1, 2000);
    const auto b = collect(*w, 0, 16, 2, 2000);
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].addr == b[i].addr;
    EXPECT_LT(same, a.size() / 2);
}

TEST(Workloads, DifferentCoresUseDisjointPrivateRegions)
{
    const Workload *w = findWorkload("lu");
    const auto a = collect(*w, 0, 16, 7, 8000);
    const auto b = collect(*w, 5, 16, 7, 8000);

    std::set<Addr> aPriv, bPriv;
    for (const auto &r : a)
        if (r.addr < SyntheticStream::kSharedBase)
            aPriv.insert(r.addr / 64);
    for (const auto &r : b)
        if (r.addr < SyntheticStream::kSharedBase)
            bPriv.insert(r.addr / 64);

    ASSERT_FALSE(aPriv.empty());
    ASSERT_FALSE(bPriv.empty());
    for (Addr l : aPriv)
        EXPECT_EQ(bPriv.count(l), 0u);
}

TEST(Workloads, SharedRegionIsActuallyShared)
{
    const Workload *w = findWorkload("barnes"); // high-sharing Class 2
    const auto a = collect(*w, 0, 16, 7, 30000);
    const auto b = collect(*w, 3, 16, 7, 30000);

    std::set<Addr> aSh, bSh;
    for (const auto &r : a)
        if (r.addr >= SyntheticStream::kSharedBase)
            aSh.insert(r.addr / 64);
    for (const auto &r : b)
        if (r.addr >= SyntheticStream::kSharedBase)
            bSh.insert(r.addr / 64);

    std::size_t common = 0;
    for (Addr l : aSh)
        common += bSh.count(l);
    EXPECT_GT(common, 0u);
}

TEST(Workloads, GapsStayWithinTheProfileBounds)
{
    for (const Workload *w : paperWorkloads()) {
        const auto refs = collect(*w, 1, 16, 3, 4000);
        for (const auto &r : refs) {
            EXPECT_GE(r.gap, 1u) << w->name();
            EXPECT_LE(r.gap, 64u) << w->name();
        }
    }
}

TEST(Workloads, AddressesAreInDeclaredRegions)
{
    for (const Workload *w : paperWorkloads()) {
        const auto refs = collect(*w, 2, 16, 11, 4000);
        for (const auto &r : refs) {
            const bool priv = r.addr >= SyntheticStream::kPrivateBase &&
                              r.addr < SyntheticStream::kSharedBase;
            const bool shared = r.addr >= SyntheticStream::kSharedBase &&
                                r.addr < Core::kCodeBase;
            EXPECT_TRUE(priv || shared)
                << w->name() << " addr " << std::hex << r.addr;
        }
    }
}

// ---------------------------------------------------------------------
// Binning: every application must measure into its Table 6.1 class.
// This is the calibration contract of the workload substitution
// (DESIGN.md §2) — if it breaks, the class-wise figures are meaningless.
// ---------------------------------------------------------------------

class BinningTest : public ::testing::TestWithParam<const Workload *>
{
};

TEST_P(BinningTest, AppMeasuresIntoItsPaperClass)
{
    const Workload *w = GetParam();
    // Default thresholds: the classifier is calibrated at these stream
    // lengths (shorter runs overweight cold-start write-backs).
    const BinningMeasurement m = measureBinning(*w);
    EXPECT_EQ(m.measuredClass, w->paperClass()) << w->name();
}

INSTANTIATE_TEST_SUITE_P(
    PaperApps, BinningTest, ::testing::ValuesIn(paperWorkloads()),
    [](const ::testing::TestParamInfo<const Workload *> &info) {
        return std::string(info.param->name());
    });

// Micro workloads keep their analytic guarantees.

TEST(MicroWorkloads, HammerTouchesExactlyOneLinePerCore)
{
    HammerWorkload w;
    const auto refs = collect(w, 0, 4, 5, 1000);
    std::set<Addr> lines;
    for (const auto &r : refs)
        lines.insert(r.addr / 64);
    EXPECT_EQ(lines.size(), 1u);
}

TEST(MicroWorkloads, StreamNeverRevisitsALine)
{
    StreamWorkload w(1 << 20, 0.2);
    const auto refs = collect(w, 0, 4, 5, 4000);
    std::set<Addr> lines;
    for (const auto &r : refs)
        EXPECT_TRUE(lines.insert(r.addr / 64).second);
}

TEST(MicroWorkloads, UniformStaysInItsRegion)
{
    const std::uint64_t bytes = 64 * 1024;
    UniformWorkload w(bytes, 0.5);
    const auto refs0 = collect(w, 0, 4, 5, 4000);
    Addr lo = ~Addr{0}, hi = 0;
    for (const auto &r : refs0) {
        lo = std::min(lo, r.addr);
        hi = std::max(hi, r.addr);
    }
    EXPECT_LT(hi - lo, bytes);
}

TEST(MicroWorkloads, PingPongAlternatesWritesAcrossCores)
{
    PingPongWorkload w(4);
    const auto refs = collect(w, 0, 2, 5, 1000);
    std::size_t writes = 0;
    for (const auto &r : refs)
        writes += r.write;
    EXPECT_GT(writes, 0u);
    EXPECT_LT(writes, refs.size());
}

TEST(MicroWorkloads, AnalyticMicrosIgnoreSeedAndCoreCount)
{
    // The determinism contract of the analytic micros (micro.hh): the
    // stream is a function of the constructor parameters and the core
    // id only — seed and numCores are deliberately ignored, so two
    // runs differing only in those are bit-identical.
    const PingPongWorkload pp(4);
    const HammerWorkload hm;
    for (const Workload *w : {static_cast<const Workload *>(&pp),
                              static_cast<const Workload *>(&hm)}) {
        const auto a = collect(*w, 1, 4, 1, 500);
        const auto b = collect(*w, 1, 16, 999, 500);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].addr, b[i].addr) << w->name();
            EXPECT_EQ(a[i].write, b[i].write) << w->name();
            EXPECT_EQ(a[i].gap, b[i].gap) << w->name();
        }
    }
}

// ---------------------------------------------------------------------
// WorkloadMethod registry invariants
// ---------------------------------------------------------------------

/** A minimal named workload for registry collision tests. */
class NamedStub : public Workload
{
  public:
    explicit NamedStub(const char *n) : n_(n) {}
    const char *name() const override { return n_; }
    int paperClass() const override { return 0; }
    std::unique_ptr<CoreStream>
    makeStream(CoreId, std::uint32_t, std::uint64_t) const override
    {
        return nullptr;
    }

  private:
    const char *n_;
};

void
registerNamedTwice()
{
    WorkloadRegistry reg;
    const NamedStub w("stub");
    reg.registerNamed(&w);
    reg.registerNamed(&w);
}

void
registerMethodsTwice()
{
    WorkloadRegistry reg;
    registerMicroMethods(reg);
    registerMicroMethods(reg);
}

void
registerNamedOverMethod()
{
    WorkloadRegistry reg;
    registerAggMethod(reg);
    const NamedStub w("agg");
    reg.registerNamed(&w);
}

TEST(WorkloadRegistryDeathTest, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(registerNamedTwice(), ::testing::ExitedWithCode(1),
                "duplicate registration of 'stub'");
    EXPECT_EXIT(registerMethodsTwice(), ::testing::ExitedWithCode(1),
                "duplicate registration of 'micro.uniform'");
    // Named workloads and methods share one namespace.
    EXPECT_EXIT(registerNamedOverMethod(), ::testing::ExitedWithCode(1),
                "duplicate registration of 'agg'");
}

TEST(WorkloadRegistry, EveryMethodRoundTripsItsCanonicalSpec)
{
    const WorkloadRegistry &reg = workloadRegistry();
    const std::vector<std::string> methods = reg.methodNames();
    ASSERT_FALSE(methods.empty());
    for (const std::string &m : methods) {
        // The bare method name resolves to its all-defaults instance,
        // with every parameter explicit in the canonical spec.
        ResolvedWorkload bare;
        std::string err;
        ASSERT_TRUE(reg.resolve(m, bare, err)) << m << ": " << err;
        EXPECT_EQ(bare.keyApp, m);
        EXPECT_FALSE(bare.keyParams.empty()) << m;
        EXPECT_EQ(bare.spec, m + ":" + bare.keyParams);
        // spec -> parse -> spec is a fixed point, onto the same cached
        // instance (pointer identity matters to the sweep workers).
        ResolvedWorkload again;
        ASSERT_TRUE(reg.resolve(bare.spec, again, err)) << err;
        EXPECT_EQ(again.spec, bare.spec);
        EXPECT_EQ(again.workload, bare.workload);
        // The instance reports the canonical spec as its identity.
        EXPECT_EQ(bare.workload->spec(), bare.spec);
        EXPECT_EQ(std::string(bare.workload->name()), bare.spec);
    }
}

TEST(WorkloadRegistry, LegacyNamesResolveWithoutKeyParams)
{
    const WorkloadRegistry &reg = workloadRegistry();
    for (const Workload *w : paperWorkloads()) {
        ResolvedWorkload rw;
        std::string err;
        ASSERT_TRUE(reg.resolve(w->name(), rw, err)) << err;
        EXPECT_EQ(rw.workload, w);
        EXPECT_EQ(rw.spec, w->name());
        EXPECT_EQ(rw.keyParams, "") << w->name();
    }
}

TEST(WorkloadRegistry, RejectsMalformedSpecsWithDiagnostics)
{
    const WorkloadRegistry &reg = workloadRegistry();
    ResolvedWorkload rw;
    std::string err;
    EXPECT_FALSE(reg.resolve("nosuchmethod:x=1", rw, err));
    EXPECT_FALSE(reg.resolve("agg:bogus=1", rw, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(reg.resolve("agg:skew=2.5", rw, err)); // out of range
    EXPECT_FALSE(reg.resolve("agg:tables=half", rw, err)); // bad enum
    EXPECT_FALSE(reg.resolve("agg:gap=1,gap=2", rw, err)); // duplicate
    EXPECT_FALSE(reg.resolve("fft:x=1", rw, err)); // named + params
}

// ---------------------------------------------------------------------
// Statistical invariants of the server-class families
// ---------------------------------------------------------------------

TEST(AggWorkload, PartitionedTablesNeverShareNorWriteBackMore)
{
    const Workload *sh =
        findWorkload("agg:tables=shared,groups=256,in=32768");
    const Workload *pt =
        findWorkload("agg:tables=part,groups=256,in=32768");
    ASSERT_NE(sh, nullptr);
    ASSERT_NE(pt, nullptr);

    // Structurally: shared tables overlap across cores, partitioned
    // tables are disjoint.
    const auto sharedLines = [](const Workload &w, CoreId c) {
        std::set<Addr> lines;
        for (const auto &r : collect(w, c, 4, 7, 4000))
            if (r.addr >= SyntheticStream::kSharedBase)
                lines.insert(r.addr / 64);
        return lines;
    };
    const auto s0 = sharedLines(*sh, 0), s1 = sharedLines(*sh, 1);
    std::size_t common = 0;
    for (Addr l : s0)
        common += s1.count(l);
    EXPECT_GT(common, 0u);
    const auto p0 = sharedLines(*pt, 0), p1 = sharedLines(*pt, 1);
    ASSERT_FALSE(p0.empty());
    for (Addr l : p0)
        EXPECT_EQ(p1.count(l), 0u);

    // End to end: partitioning never induces more sharer-driven
    // traffic — L2 misses (invalidation refills) and L3 writes
    // (ownership-transfer write-backs) stay at or below the shared run.
    SimParams sim;
    sim.refsPerCore = 6000;
    sim.seed = 1;
    const MachineConfig cfg = MachineConfig::paperSram(4);
    const RunResult rs = runOnce(cfg, *sh, sim);
    const RunResult rp = runOnce(cfg, *pt, sim);
    EXPECT_LE(rp.counts.l3Writes, rs.counts.l3Writes);
    EXPECT_LE(rp.counts.l2Misses, rs.counts.l2Misses);
}

TEST(ServeWorkload, LatencyPercentilesAreMonotoneInArrivalRate)
{
    const Workload *lo =
        findWorkload("serve:rps=2e5,ws=4096,data=65536");
    const Workload *hi =
        findWorkload("serve:rps=2e7,ws=4096,data=65536");
    ASSERT_NE(lo, nullptr);
    ASSERT_NE(hi, nullptr);

    SimParams sim;
    sim.refsPerCore = 4000;
    sim.seed = 1;
    const MachineConfig cfg = MachineConfig::paperSram(4);
    const RunResult rl = runOnce(cfg, *lo, sim);
    const RunResult rh = runOnce(cfg, *hi, sim);
    ASSERT_GT(rl.requests, 0.0);
    ASSERT_GT(rh.requests, 0.0);

    // The ladder is monotone within each run...
    EXPECT_GT(rl.reqP50Us, 0.0);
    EXPECT_LE(rl.reqP50Us, rl.reqP95Us);
    EXPECT_LE(rl.reqP95Us, rl.reqP99Us);
    EXPECT_GT(rh.reqP50Us, 0.0);
    EXPECT_LE(rh.reqP50Us, rh.reqP95Us);
    EXPECT_LE(rh.reqP95Us, rh.reqP99Us);
    // ...and pointwise monotone in offered load: a 100x higher arrival
    // rate can only push every percentile up (open-loop queueing).
    EXPECT_LE(rl.reqP50Us, rh.reqP50Us);
    EXPECT_LE(rl.reqP95Us, rh.reqP95Us);
    EXPECT_LE(rl.reqP99Us, rh.reqP99Us);
}

} // namespace
} // namespace refrint::test
