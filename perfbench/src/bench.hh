/**
 * @file
 * What the workload drivers share: run arguments, the report they
 * fill, the private scratch directory, and the output checks and
 * metric helpers common to more than one workload.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "harness/runner.hh"
#include "validate/validate.hh"

#include "stats.hh"
#include "traced.hh"

namespace perfbench
{

using Clk = std::chrono::steady_clock;

/** Seconds since @p t0. */
inline double
since(Clk::time_point t0)
{
    return std::chrono::duration<double>(Clk::now() - t0).count();
}

constexpr unsigned kWorkers = 2; ///< simulation worker threads
constexpr unsigned kClients = 2; ///< serve-mix client connections

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string golden, digests, scratch = ".perfbench_tmp",
                                 out = ".perfbench_out";
    std::string commit = "unknown", srcDigest = "unknown";
};

/** One printed metric. */
struct Metric
{
    std::string name, unit;
    double value;
};

/** Everything one run reports. */
struct Report
{
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< "# " lines before the result
    Failures failures;
    bool correct = true;

    void
    metric(const std::string &name, const std::string &unit, double v)
    {
        metrics.push_back({name, unit, v});
    }
    void note(const std::string &s) { notes.push_back(s); }
    /** Record an output check; a failed one makes the run incorrect. */
    void
    check(bool ok, const std::string &what)
    {
        note(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
        if (!ok)
            correct = false;
    }
};

std::string fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

double peakRssMb();

/** The run's private scratch directory; removed when the run ends. */
class Scratch
{
  public:
    explicit Scratch(const std::string &root);
    ~Scratch();
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    /** A path no earlier call returned. */
    std::string fresh(const char *what);

  private:
    std::filesystem::path dir_;
    unsigned n_ = 0;
};

/** Collects every row a plan run streams, in plan order. */
class Collect : public refrint::ResultSink
{
  public:
    void begin(const refrint::ExperimentPlan &plan) override;
    void consume(const refrint::ExperimentPlan &, std::size_t i,
                 const refrint::RunResult &r,
                 const refrint::NormalizedResult *n, bool) override;

    std::vector<refrint::RunResult> raw;
    std::vector<char> have;
    std::vector<refrint::NormalizedResult> norm;
};

/** A row's canonical payload (the row codec's text form). */
std::string rowPayload(const refrint::RunResult &r);

/** The store key of scenario @p i of @p plan. */
std::string keyOf(const refrint::ExperimentPlan &plan, std::size_t i);

/** Run refrint validate over a store directory, quietly. */
refrint::ValidateReport validateStore(const std::string &dir,
                                      double &seconds);

/** Every stored row validates clean and no row saw a decayed hit. */
void checkValidate(const std::string &storeDir,
                   const std::vector<refrint::RunResult> &rows, Report &rep,
                   refrint::ValidateReport *out = nullptr,
                   double *seconds = nullptr);

/** warm_p50 and cold_p50 as metrics, warm_p99 and cold_p90 as notes;
 *  each checked for its samples. */
void latencyMetrics(const std::vector<double> &warmMs,
                    const std::vector<double> &coldMs, Report &rep);

/** What the traced run measured besides the traced driver's totals. */
struct LayerInputs
{
    refrint::RunMetrics pool;    ///< the untraced Session run
    double storeOpenSeconds = 0; ///< reopening a filled store
    refrint::ValidateReport validate;
    double validateSeconds = 0;
    std::string planLine; ///< a request line to time parsing
};

/** The per-layer metrics every workload reports, plus a self-time
 *  table in the notes. */
void layerMetrics(const std::string &workload, const TracedPlan &tp,
                  const LayerInputs &in, Report &rep);

/** Trace @p plan on a fresh store in @p dir and hold it to @p expect,
 *  the rows runOnce produced for the same scenarios. */
TracedPlan traceAndCompare(const refrint::ExperimentPlan &plan,
                           const std::vector<refrint::RunResult> &expect,
                           const std::string &dir, SpanLog &log,
                           Report &rep);

/** Median time to open (and load) the store in @p dir. */
double storeOpenSeconds(const std::string &dir, std::size_t expectRows,
                        Report &rep);

/** Write the span log of this run under Args::out. */
void writeSpans(const Args &a, const SpanLog &log, Report &rep);

/** paper-sweep, steady-refresh and sram-c32 (sweeps.cc). */
void runSweepWorkload(const Args &a, Scratch &scratch, Report &rep);

/** serve-mix (serve_mix.cc). */
void runServeMix(const Args &a, Scratch &scratch, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
