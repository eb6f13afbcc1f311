/**
 * @file
 * The benchmark's own bookkeeping: percentiles with their sample rule,
 * the metric-name grammar, serve-response classification and failure
 * accounting.  Nothing here touches the simulator.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench
{

/** A reported percentile needs at least this many samples above it. */
constexpr std::size_t kMinBeyond = 10;

/** A nearest-rank percentile and the evidence behind it. */
struct Percentile
{
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples ranked strictly above value
    bool ok = false;        ///< beyond >= kMinBeyond
};

/** Nearest-rank @p pct-th percentile (1..100) of @p v. */
Percentile percentile(std::vector<double> v, unsigned pct);

/** Smallest sample count whose @p pct-th percentile has kMinBeyond
 *  samples above it. */
std::size_t samplesNeeded(unsigned pct);

/** Median of @p v (mean of the middle pair for even sizes); 0 when
 *  empty. */
double median(std::vector<double> v);

/**
 * Seeded draws from 0..kinds-1 in which every kind appears equally
 * often: each run of `kinds` draws is a fresh shuffle.  Request mixes
 * use it so that the seed changes the order of requests, not how many
 * of each kind a run makes.
 */
class Balanced
{
  public:
    Balanced(std::size_t kinds, std::uint64_t seed) : kinds_(kinds), rng_(seed)
    {
    }

    std::size_t next();

  private:
    std::size_t kinds_;
    std::mt19937_64 rng_;
    std::vector<std::size_t> bag_;
};

/** Metric names follow [A-Za-z0-9_.-]+, start with a letter or digit
 *  and are at most 64 characters long. */
bool validMetricName(const std::string &name);

/** What a serve request asked for. */
enum class ReqKind
{
    Warm, ///< resubmitted plan: every scenario must come from the store
    Cold, ///< fresh one-scenario plan: exactly one simulation
};

/** The terminator of one serve response, and how it was reached. */
struct Response
{
    std::size_t rows = 0;   ///< row lines before the terminator
    std::string rowBytes;   ///< the row lines, verbatim
    bool done = false;      ///< ended with a {"done":true,...} line
    bool error = false;     ///< ended with an {"error":...} line
    bool shed = false;      ///< the error was "overloaded"
    std::size_t scenarios = 0, warm = 0, cold = 0, queueDepth = 0;
    double wallSeconds = 0; ///< the server's own plan wall time

    /** Feed one response line; returns true once it was a terminator. */
    bool addLine(const std::string &line);
};

/**
 * Why a response fails its request, or "" when it is correct: it must
 * end with a done line, carry @p scenarios rows, and its warm/cold
 * counts must match @p kind.
 */
std::string classify(ReqKind kind, std::size_t scenarios,
                     const Response &r);

/** Attempts and failures, with failures counted by reason. */
struct Failures
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::string, std::size_t> reasons;

    void attempt(std::size_t n = 1) { attempted += n; }
    void fail(const std::string &reason, std::size_t n = 1);

    /** (attempted - failed) / attempted; 0 when nothing was tried. */
    double okFraction() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
