/**
 * @file
 * The command-line tool end to end, run as a subprocess: its plan
 * builders (flags beat the REFRINT_* environment, which only fills
 * what the flags leave unset; every grid flag reaches every scenario;
 * zero refs, unknown env apps and malformed policy names are errors,
 * not silent defaults),
 * `cache migrate`'s exit contract, and the store-only result flags.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "api/experiment_plan.hh"
#include "api/json.hh"
#include "service/store.hh"

#ifndef REFRINT_CLI
#define REFRINT_CLI "refrint_cli"
#endif

#ifndef REFRINT_TEST_GOLDEN_DIR
#define REFRINT_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace refrint
{
namespace
{

struct CliResult
{
    int status = -1;
    std::string out; ///< stdout, plus stderr when asked for
};

/** Run `refrint_cli ARGS` with only @p env of the REFRINT_* knobs
 *  set (e.g. "REFRINT_APPS=lu"); stderr is discarded unless
 *  @p withStderr merges it into out. */
CliResult
runCli(const std::string &env, const std::string &args,
       bool withStderr = false)
{
    const std::string cmd =
        "env -u REFRINT_APPS -u REFRINT_REFS -u REFRINT_JOBS "
        "-u REFRINT_STORE " +
        env + " " REFRINT_CLI " " + args +
        (withStderr ? " 2>&1" : " 2>/dev/null");
    CliResult r;
    std::FILE *p = ::popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    if (p == nullptr)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        r.out.append(buf, n);
    const int st = ::pclose(p);
    r.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return r;
}

/** The plan a `plan dump` invocation prints. */
ExperimentPlan
dumpedPlan(const std::string &env, const std::string &args)
{
    const CliResult r = runCli(env, "plan dump " + args);
    EXPECT_EQ(r.status, 0) << args;
    return ExperimentPlan::fromJson(r.out);
}

void
expectEveryScenario(const ExperimentPlan &plan, const std::string &app,
                    std::uint64_t refs)
{
    ASSERT_GT(plan.size(), 0u);
    for (const Scenario &s : plan.scenarios) {
        EXPECT_EQ(s.app, app) << s.key().str();
        EXPECT_EQ(s.sim.refsPerCore, refs) << s.key().str();
    }
}

TEST(CliPlanTest, AppFlagBeatsTheEnvironment)
{
    expectEveryScenario(
        dumpedPlan("REFRINT_APPS=lu", "thermal-study --app fft"), "fft",
        120'000);
    expectEveryScenario(dumpedPlan("REFRINT_APPS=lu",
                                   "sweep --app fft --refs 1000"),
                        "fft", 1000);
}

TEST(CliPlanTest, RefsFlagBeatsTheEnvironment)
{
    for (const char *what : {"sweep", "figures", "thermal-study"}) {
        SCOPED_TRACE(what);
        expectEveryScenario(
            dumpedPlan("REFRINT_REFS=777 REFRINT_APPS=fft",
                       std::string(what) + " --refs 1000"),
            "fft", 1000);
    }
}

TEST(CliPlanTest, EnvironmentFillsWhatTheFlagsLeaveUnset)
{
    expectEveryScenario(
        dumpedPlan("REFRINT_REFS=777 REFRINT_APPS=lu", "sweep"), "lu",
        777);
    expectEveryScenario(dumpedPlan("REFRINT_REFS=777", "thermal-study"),
                        "fft", 777);
}

TEST(CliPlanTest, SweepRunsTheFlagsNotTheEnvironment)
{
    const CliResult r =
        runCli("REFRINT_APPS=lu REFRINT_REFS=777 REFRINT_STORE=",
               "sweep --app fft --refs 60 --jsonl -");
    ASSERT_EQ(r.status, 0);
    std::size_t rows = 0;
    std::stringstream lines(r.out);
    std::string line, err;
    while (std::getline(lines, line)) {
        JsonValue row;
        ASSERT_TRUE(JsonValue::parse(line, row, err)) << err;
        const std::string key = row.get("key")->asString();
        EXPECT_EQ(key.rfind("fft|", 0), 0u) << key;
        EXPECT_NE(key.find("|60|"), std::string::npos) << key;
        ++rows;
    }
    EXPECT_EQ(rows, 43u);
}

TEST(CliPlanTest, SweepDumpIsByteIdenticalToTheGolden)
{
    std::ifstream in(std::string(REFRINT_TEST_GOLDEN_DIR) +
                     "/plan_sweep_fft_lu.json");
    ASSERT_TRUE(in.good());
    std::stringstream golden;
    golden << in.rdbuf();
    const CliResult r =
        runCli("", "plan dump sweep --app fft --app lu --refs 4000");
    ASSERT_EQ(r.status, 0);
    EXPECT_EQ(r.out, golden.str());
}

TEST(CliPlanTest, SeedFlagReachesEverySweepScenario)
{
    for (const char *what : {"sweep", "figures"}) {
        SCOPED_TRACE(what);
        const ExperimentPlan plan = dumpedPlan(
            "", std::string(what) + " --app fft --refs 1000 --seed 7");
        ASSERT_EQ(plan.size(), 43u);
        for (const Scenario &s : plan.scenarios)
            EXPECT_EQ(s.sim.seed, 7u) << s.key().str();
    }
    // And the run itself simulates with it: seed is the last key field.
    const CliResult r = runCli("REFRINT_STORE=",
                               "sweep --app fft --refs 60 --seed 7 "
                               "--jsonl -");
    ASSERT_EQ(r.status, 0);
    std::size_t rows = 0;
    std::stringstream lines(r.out);
    std::string line, err;
    while (std::getline(lines, line)) {
        JsonValue row;
        ASSERT_TRUE(JsonValue::parse(line, row, err)) << err;
        const std::string key = row.get("key")->asString();
        EXPECT_NE(key.find("|60|7"), std::string::npos) << key;
        ++rows;
    }
    EXPECT_EQ(rows, 43u);
}

TEST(CliPlanTest, ZeroRefsIsAnErrorNotTheDefault)
{
    for (const char *cmd :
         {"run", "sweep", "figures", "thermal-study", "plan dump sweep",
          "plan dump thermal-study", "trace-record --out x.trace"}) {
        SCOPED_TRACE(cmd);
        EXPECT_EQ(runCli("REFRINT_STORE=",
                         std::string(cmd) + " --app fft --refs 0")
                      .status,
                  2);
    }
    const CliResult env =
        runCli("REFRINT_REFS=0", "plan dump sweep", /*withStderr=*/true);
    EXPECT_EQ(env.status, 1);
    EXPECT_NE(env.out.find("REFRINT_REFS"), std::string::npos)
        << env.out;
}

TEST(CliPlanTest, UnknownEnvAppIsAnErrorNotTheFullGrid)
{
    const CliResult r =
        runCli("REFRINT_APPS=ffx", "plan dump sweep", /*withStderr=*/true);
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.out.find("REFRINT_APPS"), std::string::npos) << r.out;
    // The registry listing, as an unknown --app prints it.
    const CliResult flag =
        runCli("", "plan dump sweep --app ffx", /*withStderr=*/true);
    EXPECT_EQ(flag.status, 1);
    const std::string listing =
        flag.out.substr(flag.out.find('\n') + 1);
    ASSERT_FALSE(listing.empty());
    EXPECT_NE(r.out.find(listing), std::string::npos) << r.out;
}

TEST(CliPlanTest, MalformedPolicyIsAUsageError)
{
    // Each of these once parsed (the last as R.WB(4294967295,4)) and
    // ran under a store key its row's policy name did not match.
    for (const char *pol : {"R.WB(32,32", "R.WB(32,32)junk",
                            "R.WB( 32,32)", "R.WB(-1,4)", "R.bogus"}) {
        SCOPED_TRACE(pol);
        const CliResult r =
            runCli("REFRINT_STORE=",
                   std::string("run --app fft --refs 100 --policy '") +
                       pol + "'",
                   /*withStderr=*/true);
        EXPECT_EQ(r.status, 2) << r.out;
        EXPECT_NE(r.out.find("--policy"), std::string::npos) << r.out;
    }
}

// ---------------------------------------------------------------------
// Result flags: one store, `cache migrate` the only legacy-file reader
// ---------------------------------------------------------------------

struct ScratchDir
{
    std::string path;

    explicit ScratchDir(const char *name)
        : path(::testing::TempDir() + "/" + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
};

TEST(CliCacheTest, MigrateExitCodesReportWhatWasLeftOut)
{
    ScratchDir dir("cli_migrate");
    const std::string row =
        "fft|P.all|50.0|4000|1;1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,"
        "17,18,19\n";
    std::ofstream(dir.path + "/good.csv") << "v6\n" << row;
    std::ofstream(dir.path + "/stale.csv") << "v3\n" << row;
    std::ofstream(dir.path + "/bad.csv") << "v6\n"
                                         << row << "lu|P.all;1,x\n";

    const std::string store = " --store " + dir.path + "/store";
    EXPECT_EQ(runCli("", "cache migrate --cache " + dir.path +
                             "/good.csv" + store)
                  .status,
              0);
    EXPECT_EQ(runCli("", "cache migrate --cache " + dir.path +
                             "/stale.csv" + store)
                  .status,
              1);
    const CliResult bad =
        runCli("", "cache migrate --cache " + dir.path + "/bad.csv" +
                       store);
    EXPECT_EQ(bad.status, 1);
    EXPECT_NE(bad.out.find("migrated 1 row(s)"), std::string::npos)
        << bad.out;
    // The source file is required: there is no default legacy cache.
    EXPECT_EQ(runCli("", "cache migrate" + store).status, 2);
    EXPECT_EQ(ShardedStore(dir.path + "/store").rowCount(), 1u);
}

TEST(CliCacheTest, ResultsLiveOnlyInAStore)
{
    EXPECT_EQ(runCli("", "sweep --cache x.csv").status, 2);
    EXPECT_EQ(runCli("", "validate").status, 2);
    EXPECT_EQ(runCli("", "validate --cache x.csv").status, 2);
    EXPECT_EQ(runCli("", "validate --store " + ::testing::TempDir() +
                             "/cli_no_such_store")
                  .status,
              1);
}

} // namespace
} // namespace refrint
