/**
 * @file
 * Tests for the experiment API (src/api/): ScenarioKey canonical form
 * and byte-exact legacy (v5/v6) cache-key compatibility, collision
 * freedom across the machine/ambient axes, JSON plan round-trips
 * (load -> dump -> load identity), plan builders reproducing the
 * legacy sweep order without reading the environment, the Session
 * streaming-sink protocol, and the full-identity
 * SweepResult::find()/average() semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/json.hh"
#include "api/scenario.hh"
#include "api/session.hh"
#include "harness/report.hh"
#include "service/store.hh"
#include "workload/method.hh"
#include "workload/micro.hh"

namespace refrint::test
{
namespace
{

Scenario
edramScenario(const char *app, const char *config, double retUs,
              double ambientC = 0.0, std::uint32_t cores = 16,
              bool hybrid = false)
{
    Scenario s;
    s.app = app;
    s.config = config;
    s.retentionUs = retUs;
    s.ambientC = ambientC;
    s.cores = cores;
    s.hybrid = hybrid;
    s.sim.refsPerCore = 4000;
    s.sim.seed = 1;
    return s;
}

/** The pre-PR-5 key builder, verbatim (sweep.cc's runKey), as the
 *  executable specification of the legacy v5/v6 key format. */
std::string
legacyRunKey(const std::string &app, const std::string &config,
             double retentionUs, const SimParams &sim, double ambientC,
             const std::string &machine)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s|%s|%.1f|%llu|%llu", app.c_str(),
                  config.c_str(), retentionUs,
                  static_cast<unsigned long long>(sim.refsPerCore),
                  static_cast<unsigned long long>(sim.seed));
    std::string key = buf;
    if (ambientC != 0.0) {
        std::snprintf(buf, sizeof(buf), "|amb=%.2f", ambientC);
        key += buf;
    }
    if (!machine.empty())
        key += "|mach=" + machine;
    return key;
}

// ---------------------------------------------------------------------
// ScenarioKey: canonical form and legacy compatibility
// ---------------------------------------------------------------------

TEST(ScenarioKeyTest, CanonicalLegacyV5Forms)
{
    // Literal keys as they appear in a pre-PR-5 cache file.
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0).key().str(),
              "fft|P.all|50.0|4000|1");
    EXPECT_EQ(edramScenario("lu", "R.WB(32,32)", 200.0).key().str(),
              "lu|R.WB(32,32)|200.0|4000|1");

    Scenario sram;
    sram.app = "fft";
    sram.config = "SRAM";
    sram.sim.refsPerCore = 4000;
    sram.sim.seed = 1;
    EXPECT_EQ(sram.key().str(), "fft|SRAM|0.0|4000|1");

    // Thermal rows: the |amb= suffix, %.2f.
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0, 65.0).key().str(),
              "fft|P.all|50.0|4000|1|amb=65.00");
}

TEST(ScenarioKeyTest, CanonicalV6MachineForms)
{
    EXPECT_EQ(edramScenario("fft", "P.all", 50.0, 0.0, 32).key().str(),
              "fft|P.all|50.0|4000|1|mach=c32");
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 0.0, 16, true).key().str(),
        "fft|P.all|50.0|4000|1|mach=hyb");
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 0.0, 32, true).key().str(),
        "fft|P.all|50.0|4000|1|mach=c32+hyb");
    // Ambient and machine segments compose in that order.
    EXPECT_EQ(
        edramScenario("fft", "P.all", 50.0, 85.0, 32).key().str(),
        "fft|P.all|50.0|4000|1|amb=85.00|mach=c32");
}

TEST(ScenarioKeyTest, MethodInstancesAlwaysCarryTheWlSegment)
{
    // A parameterized spec keys under its full canonical parameter
    // list: schema order, every default explicit.
    EXPECT_EQ(
        edramScenario("agg:groups=1024,tables=part", "P.all", 50.0)
            .key()
            .str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=part,groups=1024,in=1048576,skew=0.8,gap=3");

    // Even an all-defaults bare method spec keys the explicit list, so
    // a method row can never alias a legacy-named row.
    EXPECT_EQ(
        edramScenario("agg", "P.all", 50.0).key().str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=shared,groups=4096,in=1048576,skew=0.8,gap=3");

    // Numeric spellings canonicalize: 2e6 -> 2000000, 64k -> 65536.
    EXPECT_EQ(
        edramScenario("serve:rps=2e6,ws=64k", "P.all", 50.0).key().str(),
        "serve|P.all|50.0|4000|1"
        "|wl=rps=2000000,ws=65536,data=1048576,wf=0.25,gap=3");
}

TEST(ScenarioKeyTest, WlSegmentComposesBeforeAmbientAndMachine)
{
    EXPECT_EQ(
        edramScenario("agg", "P.all", 50.0, 65.0, 32).key().str(),
        "agg|P.all|50.0|4000|1"
        "|wl=tables=shared,groups=4096,in=1048576,skew=0.8,gap=3"
        "|amb=65.00|mach=c32");
}

TEST(ScenarioKeyTest, LegacyNamesNeverGainAWlSegment)
{
    for (const Workload *w : paperWorkloads()) {
        const ScenarioKey k =
            edramScenario(w->name(), "P.all", 50.0).key();
        EXPECT_EQ(k.workload, "") << w->name();
        EXPECT_EQ(k.str().find("|wl="), std::string::npos) << w->name();
    }
}

TEST(ScenarioKeyTest, EveryLegacyKeyRegeneratesExactly)
{
    // Sweep the full legacy key space shape: apps x configs x
    // retentions x ambients x machines, including fractional ambients
    // and retentions that stress the fixed-precision formatting.
    const char *apps[] = {"fft", "lu", "streamcluster"};
    const char *configs[] = {"SRAM", "P.all", "R.WB(32,32)", "P.dirty"};
    const double rets[] = {0.0, 50.0, 100.0, 200.0, 33.25};
    const double ambients[] = {0.0, 45.0, 65.0, 85.0, 47.25};
    const struct
    {
        std::uint32_t cores;
        bool hybrid;
    } machines[] = {{16, false}, {32, false}, {16, true}, {48, true}};

    for (const char *app : apps) {
        for (const char *config : configs) {
            for (double ret : rets) {
                for (double amb : ambients) {
                    for (const auto &m : machines) {
                        const Scenario s = edramScenario(
                            app, config, ret, amb, m.cores, m.hybrid);
                        EXPECT_EQ(s.key().str(),
                                  legacyRunKey(app, config, ret, s.sim,
                                               amb, s.machineLabel()))
                            << s.key().str();
                    }
                }
            }
        }
    }
}

TEST(ScenarioKeyTest, AxesNeverCollide)
{
    // The same (app, config, retention, refs, seed) point along every
    // machine/ambient combination must produce pairwise-distinct keys,
    // and no machine-keyed key may ever equal a legacy one.
    std::set<std::string> keys;
    std::size_t produced = 0;
    for (double amb : {0.0, 45.0, 65.0, 85.0}) {
        for (std::uint32_t cores : {16u, 32u, 64u}) {
            for (bool hybrid : {false, true}) {
                const Scenario s = edramScenario("fft", "P.all", 50.0,
                                                 amb, cores, hybrid);
                keys.insert(s.key().str());
                ++produced;
            }
        }
    }
    EXPECT_EQ(keys.size(), produced);
    // Legacy (default machine, isothermal) keys carry no axis markers.
    for (const std::string &k : keys) {
        const bool marked = k.find("|amb=") != std::string::npos ||
                            k.find("|mach=") != std::string::npos;
        const bool isLegacy = k == "fft|P.all|50.0|4000|1";
        EXPECT_NE(marked, isLegacy) << k;
    }
}

TEST(ScenarioKeyTest, LongNamesDoNotTruncate)
{
    // The legacy 256-byte snprintf buffer truncated pathological keys;
    // ScenarioKey must not.
    Scenario s = edramScenario("fft", "P.all", 50.0);
    s.app = std::string(300, 'a');
    const std::string key = s.key().str();
    EXPECT_EQ(key.substr(0, 300), std::string(300, 'a'));
    EXPECT_NE(key.find("|P.all|50.0|4000|1"), std::string::npos);

    // An absurd retention renders ~310 digits in %.1f; the refs/seed
    // segments must survive it (keys differing only in seed may never
    // alias).
    Scenario wide = edramScenario("fft", "P.all", 1e300);
    const std::string wideKey = wide.key().str();
    EXPECT_NE(wideKey.find("|4000|1"), std::string::npos);
    wide.sim.seed = 2;
    EXPECT_NE(wide.key().str(), wideKey);
}

TEST(ScenarioKeyTest, MachineLabelMatchesBuiltMachine)
{
    // The key's machine label and the built MachineConfig's machineId
    // come from one helper; prove they agree end to end.
    const EnergyParams energy = EnergyParams::calibrated();
    for (std::uint32_t cores : {16u, 32u, 48u}) {
        for (bool hybrid : {false, true}) {
            const Scenario s = edramScenario("fft", "R.WB(32,32)", 50.0,
                                             0.0, cores, hybrid);
            EXPECT_EQ(s.machine(energy).machineId, s.key().machine);
        }
    }
    Scenario sram;
    sram.app = "fft";
    sram.cores = 32;
    EXPECT_EQ(sram.machine(energy).machineId, "c32");
    EXPECT_EQ(sram.key().machine, "c32");
}

TEST(ScenarioKeyTest, EnergyModelKeysItsOwnRows)
{
    // The calibrated defaults keep legacy keys byte-identical...
    EXPECT_EQ(energyKeyTag(EnergyParams::calibrated()), "");
    // ...while any re-parameterized model tags its rows.
    EnergyParams tweaked = EnergyParams::calibrated();
    tweaked.eL3Access *= 100.0;
    const std::string tag = energyKeyTag(tweaked);
    ASSERT_EQ(tag.size(), 16u);

    ScenarioKey k = edramScenario("fft", "P.all", 50.0).key();
    EXPECT_EQ(k.str(), "fft|P.all|50.0|4000|1");
    k.energy = tag;
    EXPECT_EQ(k.str(), "fft|P.all|50.0|4000|1|en=" + tag);

    // Distinct models get distinct tags.
    EnergyParams other = tweaked;
    other.leakCore *= 2.0;
    EXPECT_NE(energyKeyTag(other), tag);
    EXPECT_EQ(energyKeyTag(tweaked), tag); // and tags are stable
}

// ---------------------------------------------------------------------
// JSON plans
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesAndDumpsRoundTrip)
{
    const std::string text =
        "{\"a\": [1, 2.5, true, false, null], \"s\": \"x\\n\\\"y\\\"\","
        " \"nested\": {\"k\": -3e-2}}";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(text, v, err)) << err;
    EXPECT_EQ(v.get("a")->items().size(), 5u);
    EXPECT_EQ(v.get("a")->items()[1].asNumber(), 2.5);
    EXPECT_EQ(v.get("s")->asString(), "x\n\"y\"");
    EXPECT_EQ(v.get("nested")->get("k")->asNumber(), -0.03);

    // dump -> parse -> dump is a fixed point.
    const std::string once = v.dump(2);
    JsonValue v2;
    ASSERT_TRUE(JsonValue::parse(once, v2, err)) << err;
    EXPECT_EQ(v2.dump(2), once);
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", v, err));
    EXPECT_FALSE(JsonValue::parse("[1, 2", v, err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", v, err));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v, err));
    EXPECT_FALSE(JsonValue::parse("", v, err));
}

TEST(ExperimentPlanTest, JsonRoundTripIsIdentity)
{
    ExperimentPlan::Grid g;
    g.apps = {findWorkload("fft"), findWorkload("lu")};
    g.sim.refsPerCore = 4000;
    g.ambients = {45.0, 85.0};
    g.machines = {MachineAxis{16, false}, MachineAxis{32, true}};
    const ExperimentPlan plan = ExperimentPlan::grid(g);

    const std::string dumped = plan.toJson();
    const ExperimentPlan reloaded = ExperimentPlan::fromJson(dumped);
    EXPECT_EQ(reloaded, plan);

    // load -> dump -> load: the dump of the reloaded plan is
    // byte-identical, and parsing it again yields the same plan.
    const std::string dumpedAgain = reloaded.toJson();
    EXPECT_EQ(dumpedAgain, dumped);
    EXPECT_EQ(ExperimentPlan::fromJson(dumpedAgain), plan);
}

/** Sets an environment variable for one scope, restoring the old
 *  value (or its absence) on exit. */
struct ScopedEnv
{
    std::string name;
    bool had = false;
    std::string old;

    ScopedEnv(const char *n, const char *value) : name(n)
    {
        if (const char *v = std::getenv(n)) {
            had = true;
            old = v;
        }
        setenv(n, value, 1);
    }
    ~ScopedEnv()
    {
        if (had)
            setenv(name.c_str(), old.c_str(), 1);
        else
            unsetenv(name.c_str());
    }
};

TEST(ExperimentPlanTest, GridNeverReadsTheEnvironment)
{
    const ScopedEnv apps("REFRINT_APPS", "lu");
    const ScopedEnv refs("REFRINT_REFS", "777");

    // The builders ignore both variables: the default grid is the
    // paper's full sweep at the SimParams default.
    const ExperimentPlan plan = ExperimentPlan::grid({});
    ASSERT_EQ(plan.size(), 473u);
    std::set<std::string> names;
    for (const Scenario &s : plan.scenarios) {
        names.insert(s.app);
        EXPECT_EQ(s.sim.refsPerCore, SimParams{}.refsPerCore);
    }
    EXPECT_EQ(names.size(), 11u);
    for (const Scenario &s :
         ExperimentPlan::thermalStudy("fft", 50.0, {45.0}).scenarios) {
        EXPECT_EQ(s.app, "fft");
        EXPECT_EQ(s.sim.refsPerCore, SimParams{}.refsPerCore);
    }

    // applyEnvAxes is the one place that turns them into axes.
    ExperimentPlan::Grid g;
    applyEnvAxes(g.apps, g.sim);
    ASSERT_EQ(g.apps.size(), 1u);
    EXPECT_STREQ(g.apps[0]->name(), "lu");
    EXPECT_EQ(g.sim.refsPerCore, 777u);
}

TEST(ExperimentPlanTest, GridReproducesLegacyOrder)
{
    ExperimentPlan::Grid g;
    g.apps = {findWorkload("fft")};
    g.retentions = {usToTicks(50.0), usToTicks(100.0)};
    g.policies = {RefreshPolicy::periodic(DataPolicy::All),
                  RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    g.sim.refsPerCore = 4000;
    g.machines = {MachineAxis{16, false}, MachineAxis{32, false}};
    const ExperimentPlan plan = ExperimentPlan::grid(g);

    // Per machine: baseline, then retention x policy.
    ASSERT_EQ(plan.size(), 2u * (1u + 2u * 2u));
    EXPECT_EQ(plan.scenarios[0].config, "SRAM");
    EXPECT_EQ(plan.baseline[0], -1);
    EXPECT_EQ(plan.scenarios[1].config, "P.all");
    EXPECT_EQ(plan.scenarios[1].retentionUs, 50.0);
    EXPECT_EQ(plan.scenarios[2].config, "R.WB(32,32)");
    EXPECT_EQ(plan.scenarios[3].retentionUs, 100.0);
    for (int i = 1; i <= 4; ++i)
        EXPECT_EQ(plan.baseline[static_cast<std::size_t>(i)], 0);

    // Second machine group: its own baseline at index 5.
    EXPECT_EQ(plan.scenarios[5].config, "SRAM");
    EXPECT_EQ(plan.scenarios[5].cores, 32u);
    EXPECT_EQ(plan.baseline[5], -1);
    for (int i = 6; i <= 9; ++i) {
        EXPECT_EQ(plan.baseline[static_cast<std::size_t>(i)], 5);
        EXPECT_EQ(plan.scenarios[static_cast<std::size_t>(i)].cores,
                  32u);
    }
}

TEST(ExperimentPlanTest, LoaderRejectsBrokenPlans)
{
    EXPECT_EXIT(ExperimentPlan::fromJson("not json"),
                ::testing::ExitedWithCode(1), "cannot parse plan");
    EXPECT_EXIT(ExperimentPlan::fromJson("{\"plan\": \"x\"}"),
                ::testing::ExitedWithCode(1), "version");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(
            "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
            "[{\"app\": \"nosuchapp\", \"config\": \"SRAM\", "
            "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
            "\"refs\": 100, \"seed\": 1, \"maxTicks\": 1000, "
            "\"baseline\": -1}]}"),
        ::testing::ExitedWithCode(1), "unknown application");
    EXPECT_EXIT(ExperimentPlan::loadFile("/nonexistent/plan.json"),
                ::testing::ExitedWithCode(1), "cannot read plan");

    // Numeric sanity: every malformed value dies cleanly at load time
    // (never mid-run, never via an undefined double->int cast).
    auto scenarioWith = [](const char *field, const char *value) {
        std::string s =
            "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
            "[{\"app\": \"fft\", \"config\": \"SRAM\", "
            "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
            "\"refs\": 100, \"seed\": 1, \"baseline\": -1}]}";
        const std::string key = std::string("\"") + field + "\": ";
        const auto at = s.find(key);
        const auto end = s.find_first_of(",}", at);
        return s.substr(0, at + key.size()) + value + s.substr(end);
    };
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("cores", "2")),
                ::testing::ExitedWithCode(1), "4, 64");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("refs", "-1")),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("seed", "1.5")),
                ::testing::ExitedWithCode(1), "integer");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(scenarioWith("baseline", "-7")),
        ::testing::ExitedWithCode(1), "baseline");
    EXPECT_EXIT(
        ExperimentPlan::fromJson(scenarioWith("baseline", "1e300")),
        ::testing::ExitedWithCode(1), "baseline");
    EXPECT_EXIT(ExperimentPlan::fromJson(scenarioWith("refs", "nan")),
                ::testing::ExitedWithCode(1), "cannot parse plan");
}

TEST(ExperimentPlanTest, LoaderRejectsCrossFamilyBaselines)
{
    // A baseline scenario for fft at 16 cores, plus one measured
    // scenario pointing at it — with a configurable app and machine.
    auto planWith = [](const char *app2, const char *cores2) {
        return std::string(
                   "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
                   "{\"app\": \"fft\", \"config\": \"SRAM\", "
                   "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
                   "\"refs\": 100, \"seed\": 1, \"baseline\": -1}, "
                   "{\"app\": \"") +
               app2 +
               "\", \"config\": \"P.all\", \"retentionUs\": 50, "
               "\"ambientC\": 0, \"cores\": " +
               cores2 + ", \"refs\": 100, \"seed\": 1, \"baseline\": 0}]}";
    };

    // Control: the same-family plan parses.
    ExperimentPlan plan;
    std::string err;
    EXPECT_TRUE(
        ExperimentPlan::tryFromJson(planWith("fft", "16"), plan, err))
        << err;

    // Normalizing fft rows against an lu baseline, or 32-core rows
    // against a 16-core baseline, dies cleanly at load time.
    EXPECT_EXIT(ExperimentPlan::fromJson(planWith("lu", "16")),
                ::testing::ExitedWithCode(1), "different workload");
    EXPECT_EXIT(ExperimentPlan::fromJson(planWith("fft", "32")),
                ::testing::ExitedWithCode(1), "different machine");

    // The serve path sees the same rule as a recoverable error.
    EXPECT_FALSE(
        ExperimentPlan::tryFromJson(planWith("lu", "16"), plan, err));
    EXPECT_NE(err.find("different workload"), std::string::npos);
    EXPECT_FALSE(
        ExperimentPlan::tryFromJson(planWith("fft", "32"), plan, err));
    EXPECT_NE(err.find("different machine"), std::string::npos);

    // A baseline index naming a non-baseline scenario is a parse
    // error too (not a validate() abort — serve must survive it).
    const std::string chained =
        "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
        "{\"app\": \"fft\", \"config\": \"SRAM\", \"retentionUs\": 0, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": -1}, "
        "{\"app\": \"fft\", \"config\": \"P.all\", \"retentionUs\": 50, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": 0}, "
        "{\"app\": \"fft\", \"config\": \"P.dirty\", \"retentionUs\": "
        "50, \"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": "
        "1, \"baseline\": 1}]}";
    EXPECT_FALSE(ExperimentPlan::tryFromJson(chained, plan, err));
    EXPECT_NE(err.find("not itself a baseline"), std::string::npos);
}

TEST(ExperimentPlanTest, LoaderRejectsMalformedPolicyNames)
{
    auto planWith = [](const char *config) {
        return std::string(
                   "{\"plan\": \"x\", \"version\": 1, \"scenarios\": ["
                   "{\"app\": \"fft\", \"config\": \"SRAM\", "
                   "\"retentionUs\": 0, \"ambientC\": 0, \"cores\": 16, "
                   "\"refs\": 100, \"seed\": 1, \"baseline\": -1}, "
                   "{\"app\": \"fft\", \"config\": \"") +
               config +
               "\", \"retentionUs\": 50, \"ambientC\": 0, "
               "\"cores\": 16, \"refs\": 100, \"seed\": 1, "
               "\"baseline\": 0}]}";
    };
    ExperimentPlan plan;
    std::string err;
    EXPECT_TRUE(ExperimentPlan::tryFromJson(planWith("R.WB(32,32)"), plan,
                                            err))
        << err;
    // Rejected at load time, before any scenario (the baseline
    // included) simulates; serve turns this into an error reply.
    for (const char *bad : {"R.bogus", "R.WB(32,32)junk", "R.WB(32,32",
                            "R.WB( 32,32)", "R.WB(-1,4)", "sram"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(ExperimentPlan::tryFromJson(planWith(bad), plan, err));
        EXPECT_NE(err.find("\"config\""), std::string::npos) << err;
        EXPECT_NE(err.find(bad), std::string::npos) << err;
    }
}

TEST(ExperimentPlanTest, MaxTicksIsOptionalButMustBePositive)
{
    const char *noTicks =
        "{\"plan\": \"x\", \"version\": 1, \"scenarios\": "
        "[{\"app\": \"fft\", \"config\": \"SRAM\", \"retentionUs\": 0, "
        "\"ambientC\": 0, \"cores\": 16, \"refs\": 100, \"seed\": 1, "
        "\"baseline\": -1}]}";
    const ExperimentPlan plan = ExperimentPlan::fromJson(noTicks);
    EXPECT_EQ(plan.scenarios[0].sim.maxTicks, SimParams{}.maxTicks);

    const std::string zeroTicks = std::string(noTicks).insert(
        std::string(noTicks).find("\"baseline\""), "\"maxTicks\": 0, ");
    EXPECT_EXIT(ExperimentPlan::fromJson(zeroTicks),
                ::testing::ExitedWithCode(1), "maxTicks");
}

TEST(ExperimentPlanTest, ThermalStudyBuilderMatchesCliShape)
{
    const ExperimentPlan plan = ExperimentPlan::thermalStudy(
        "fft", 50.0, {45.0, 65.0, 85.0});
    // 1 baseline + 3 ambients x 1 retention x 2 policies.
    ASSERT_EQ(plan.size(), 7u);
    EXPECT_EQ(plan.name, "thermal-study");
    EXPECT_EQ(plan.scenarios[0].config, "SRAM");
    EXPECT_EQ(plan.scenarios[1].config, "P.all");
    EXPECT_EQ(plan.scenarios[1].ambientC, 45.0);
    EXPECT_EQ(plan.scenarios[2].config, "R.WB(32,32)");
    EXPECT_EQ(plan.scenarios[6].ambientC, 85.0);
}

// ---------------------------------------------------------------------
// Session + sinks
// ---------------------------------------------------------------------

/** Records the sink protocol for inspection. */
class RecordingSink : public ResultSink
{
  public:
    int begins = 0, ends = 0;
    std::vector<std::size_t> order;
    std::vector<bool> hadNorm;

    void
    begin(const ExperimentPlan &) override
    {
        ++begins;
    }
    void
    consume(const ExperimentPlan &, std::size_t index,
            const RunResult &, const NormalizedResult *norm,
            bool) override
    {
        order.push_back(index);
        hadNorm.push_back(norm != nullptr);
    }
    void
    end(const ExperimentPlan &, const SweepResult &) override
    {
        ++ends;
    }
};

ExperimentPlan
microPlan(const Workload &w)
{
    ExperimentPlan::Grid g;
    g.apps = {&w};
    g.retentions = {usToTicks(50.0)};
    g.policies = {RefreshPolicy::periodic(DataPolicy::All),
                  RefreshPolicy::refrint(DataPolicy::WB, 32, 32)};
    g.sim.refsPerCore = 1200;
    return ExperimentPlan::grid(g);
}

TEST(SessionTest, StreamsRowsInPlanOrderToEverySink)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u);

    RecordingSink rec;
    Session session(std::make_unique<ShardedStore>(""), 4);
    const SweepResult res = session.run(plan, {&rec});

    EXPECT_EQ(rec.begins, 1);
    EXPECT_EQ(rec.ends, 1);
    ASSERT_EQ(rec.order.size(), plan.size());
    for (std::size_t i = 0; i < rec.order.size(); ++i)
        EXPECT_EQ(rec.order[i], i);
    EXPECT_FALSE(rec.hadNorm[0]); // the SRAM baseline
    EXPECT_TRUE(rec.hadNorm[1]);
    EXPECT_TRUE(rec.hadNorm[2]);
    EXPECT_EQ(res.raw.size(), 3u);
    EXPECT_EQ(res.normalized.size(), 2u);
    EXPECT_EQ(res.simulations, 3u);
}

TEST(SessionTest, JsonLinesSinkEmitsOneValidObjectPerRow)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    JsonLinesSink sink(tmp);
    Session session(std::make_unique<ShardedStore>(""), 1);
    session.run(plan, {&sink});

    std::rewind(tmp);
    char line[4096];
    std::size_t rows = 0;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(line, v, err)) << err;
        EXPECT_TRUE(v.get("key")->isString());
        EXPECT_TRUE(v.get("energy")->isObject());
        ++rows;
    }
    std::fclose(tmp);
    EXPECT_EQ(rows, plan.size());
}

TEST(SessionTest, CsvSinkQuotesCommaBearingConfigNames)
{
    UniformWorkload u(8 * 1024, 0.3);
    const ExperimentPlan plan = microPlan(u); // includes R.WB(32,32)

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    CsvSink sink(tmp);
    Session session(std::make_unique<ShardedStore>(""), 1);
    session.run(plan, {&sink});

    std::rewind(tmp);
    char line[4096];
    ASSERT_NE(std::fgets(line, sizeof(line), tmp), nullptr);
    std::size_t columns = 1;
    for (const char *p = line; *p != '\0'; ++p)
        columns += *p == ',';
    bool sawQuoted = false;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        // Unquoted commas per row must match the header's count.
        std::size_t fields = 1;
        bool inQuotes = false;
        for (const char *p = line; *p != '\0'; ++p) {
            if (*p == '"')
                inQuotes = !inQuotes;
            else if (*p == ',' && !inQuotes)
                ++fields;
        }
        EXPECT_EQ(fields, columns) << line;
        sawQuoted =
            sawQuoted ||
            std::string(line).find("\"R.WB(32,32)\"") != std::string::npos;
    }
    std::fclose(tmp);
    EXPECT_TRUE(sawQuoted);
}

TEST(SessionTest, ModifiedEnergyModelNeverReusesDefaultRows)
{
    UniformWorkload u(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/api_energy_store";
    std::filesystem::remove_all(dir);

    Session session(std::make_unique<ShardedStore>(dir), 1);
    const SweepResult calibrated = session.run(microPlan(u));
    EXPECT_EQ(calibrated.simulations, 3u);

    // Same scenarios, different energy model: the warm store must NOT
    // satisfy them (the legacy engine silently reused such rows).
    ExperimentPlan tweaked = microPlan(u);
    tweaked.energy.eL3Access *= 100.0;
    const SweepResult rerun = session.run(tweaked);
    EXPECT_EQ(rerun.simulations, 3u);
    EXPECT_NE(rerun.raw[1].energy.l3, calibrated.raw[1].energy.l3);

    // And the tweaked rows are themselves cached under their tag.
    const SweepResult warm = session.run(tweaked);
    EXPECT_EQ(warm.simulations, 0u);
    std::filesystem::remove_all(dir);
}

TEST(SessionTest, SharesWarmCacheRowsAcrossRuns)
{
    UniformWorkload u(8 * 1024, 0.3);
    const std::string dir = ::testing::TempDir() + "/api_session_store";
    std::filesystem::remove_all(dir);

    Session session(std::make_unique<ShardedStore>(dir), 2);
    const SweepResult first = session.run(microPlan(u));
    EXPECT_EQ(first.simulations, 3u);
    // Same session, same plan: everything is already in the store.
    const SweepResult again = session.run(microPlan(u));
    EXPECT_EQ(again.simulations, 0u);
    ASSERT_EQ(again.raw.size(), first.raw.size());
    EXPECT_EQ(again.raw[1].execTicks, first.raw[1].execTicks);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Workload-method scenarios through the full Session stack
// ---------------------------------------------------------------------

/** SRAM baseline + one P.all run of a registry-resolved spec. */
ExperimentPlan
specPlan(const char *spec, std::uint64_t refs = 1500)
{
    const Workload *w = workloadRegistry().find(spec);
    EXPECT_NE(w, nullptr) << spec;
    ExperimentPlan::Grid g;
    g.apps = {w};
    g.retentions = {usToTicks(50.0)};
    g.policies = {RefreshPolicy::periodic(DataPolicy::All)};
    g.sim.refsPerCore = refs;
    return ExperimentPlan::grid(g);
}

TEST(SessionTest, MethodWorkloadsRoundTripPlanJsonAndCache)
{
    const std::string dir = ::testing::TempDir() + "/api_methods_store";
    std::filesystem::remove_all(dir);
    Session session(std::make_unique<ShardedStore>(dir), 2);

    for (const char *spec : {"agg:tables=part,groups=1024,in=65536",
                             "serve:rps=2e6,ws=4096,data=65536"}) {
        const ExperimentPlan plan = specPlan(spec);
        // The scenario's app is the canonical spec and survives the
        // JSON round trip identically (the reloaded plan re-resolves
        // it through the registry by name).
        const ExperimentPlan reloaded =
            ExperimentPlan::fromJson(plan.toJson());
        EXPECT_EQ(reloaded, plan) << spec;
        EXPECT_EQ(reloaded.toJson(), plan.toJson()) << spec;

        const SweepResult cold = session.run(plan);
        EXPECT_EQ(cold.simulations, 2u) << spec;
        // The reloaded plan must hit the very same store rows.
        const SweepResult warm = session.run(reloaded);
        EXPECT_EQ(warm.simulations, 0u) << spec;
        ASSERT_EQ(warm.raw.size(), cold.raw.size());
        EXPECT_EQ(warm.raw[1].execTicks, cold.raw[1].execTicks);
        // The latency block replays through the store bit-exactly.
        EXPECT_EQ(warm.raw[1].requests, cold.raw[1].requests);
        EXPECT_EQ(warm.raw[1].reqP50Us, cold.raw[1].reqP50Us);
        EXPECT_EQ(warm.raw[1].reqP95Us, cold.raw[1].reqP95Us);
        EXPECT_EQ(warm.raw[1].reqP99Us, cold.raw[1].reqP99Us);
    }
    std::filesystem::remove_all(dir);
}

TEST(SessionTest, ServeRowsCarryLatencyPercentilesThroughJsonl)
{
    const ExperimentPlan plan =
        specPlan("serve:rps=2e6,ws=4096,data=65536", 3000);

    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    JsonLinesSink sink(tmp);
    Session session(std::make_unique<ShardedStore>(""), 1);
    const SweepResult res = session.run(plan, {&sink});

    // Every run of a request-serving workload completes requests and
    // measures a monotone percentile ladder.
    for (const RunResult &r : res.raw) {
        EXPECT_GT(r.requests, 0.0) << r.config;
        EXPECT_GT(r.reqP50Us, 0.0) << r.config;
        EXPECT_LE(r.reqP50Us, r.reqP95Us) << r.config;
        EXPECT_LE(r.reqP95Us, r.reqP99Us) << r.config;
    }

    // ...and the JSONL rows expose them as a latencyUs object.
    std::rewind(tmp);
    char line[8192];
    std::size_t rows = 0;
    while (std::fgets(line, sizeof(line), tmp) != nullptr) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(line, v, err)) << err;
        EXPECT_GT(v.get("requests")->asNumber(), 0.0);
        const JsonValue *lat = v.get("latencyUs");
        ASSERT_NE(lat, nullptr);
        const double p50 = lat->get("p50")->asNumber();
        const double p95 = lat->get("p95")->asNumber();
        const double p99 = lat->get("p99")->asNumber();
        EXPECT_GT(p50, 0.0);
        EXPECT_LE(p50, p95);
        EXPECT_LE(p95, p99);
        ++rows;
    }
    std::fclose(tmp);
    EXPECT_EQ(rows, plan.size());
}

// ---------------------------------------------------------------------
// SweepResult identity semantics
// ---------------------------------------------------------------------

NormalizedResult
row(const char *app, const char *config, double retUs,
    const char *machine, double ambientC, double memEnergy)
{
    NormalizedResult n;
    n.app = app;
    n.config = config;
    n.retentionUs = retUs;
    n.machine = machine;
    n.ambientC = ambientC;
    n.memEnergy = memEnergy;
    return n;
}

TEST(SweepResultIdentityTest, FindResolvesFullScenarioIdentity)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.50),
        row("fft", "P.all", 50.0, "c32", 0.0, 0.60),
        row("fft", "P.all", 50.0, "", 65.0, 0.70),
    };

    EXPECT_EQ(s.find("fft", 50.0, "P.all", "")->memEnergy, 0.50);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "c32")->memEnergy, 0.60);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "", 65.0)->memEnergy, 0.70);
    EXPECT_EQ(s.find("fft", 50.0, "P.all", "c64"), nullptr);
    EXPECT_EQ(s.find("fft", 100.0, "P.all", ""), nullptr);

    // The short form is fatal when rows from several machines (or
    // ambients) match — the pre-PR-5 code silently returned the first.
    EXPECT_EXIT(s.find("fft", 50.0, "P.all"),
                ::testing::ExitedWithCode(1), "ambiguous");
}

TEST(SweepResultIdentityTest, FindShortFormStillWorksWhenUnambiguous)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.50),
        row("fft", "R.WB(32,32)", 50.0, "", 0.0, 0.36),
        row("fft", "P.all", 100.0, "", 0.0, 0.45),
    };
    EXPECT_EQ(s.find("fft", 50.0, "P.all")->memEnergy, 0.50);
    // Retention wildcard across rows of one scenario axis is fine.
    EXPECT_NE(s.find("fft", 0.0, "P.all"), nullptr);
    EXPECT_EQ(s.find("fft", 50.0, "R.dirty"), nullptr);
}

TEST(SweepResultIdentityTest, AverageRefusesSilentCrossMachinePooling)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.40),
        row("lu", "P.all", 50.0, "", 0.0, 0.60),
        row("fft", "P.all", 50.0, "c32", 0.0, 1.00),
    };
    const std::vector<std::string> all;

    // Per-machine queries are exact.
    EXPECT_DOUBLE_EQ(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy, ""),
        0.50);
    EXPECT_DOUBLE_EQ(s.average(50.0, "P.all", all,
                               &NormalizedResult::memEnergy, "c32"),
                     1.00);
    // Pooling across machines is an explicit opt-in...
    EXPECT_DOUBLE_EQ(s.averagePooled(50.0, "P.all", all,
                                     &NormalizedResult::memEnergy),
                     (0.40 + 0.60 + 1.00) / 3.0);
    // ...never an accident.
    EXPECT_EXIT(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy),
        ::testing::ExitedWithCode(1), "several machines");
}

TEST(SweepResultIdentityTest, AverageUnchangedOnSingleMachineSweeps)
{
    SweepResult s;
    s.normalized = {
        row("fft", "P.all", 50.0, "", 0.0, 0.40),
        row("lu", "P.all", 50.0, "", 0.0, 0.60),
        row("fft", "R.WB(32,32)", 50.0, "", 0.0, 0.36),
    };
    const std::vector<std::string> all;
    EXPECT_DOUBLE_EQ(
        s.average(50.0, "P.all", all, &NormalizedResult::memEnergy),
        0.50);
    EXPECT_DOUBLE_EQ(s.average(50.0, "P.all", {"lu"},
                               &NormalizedResult::memEnergy),
                     0.60);
}

} // namespace
} // namespace refrint::test
