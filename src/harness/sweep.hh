/**
 * @file
 * The axes and the aggregate of the paper's parameter sweep (Table
 * 5.4): 3 retention times x {Periodic, Refrint} x {All, Valid, Dirty,
 * WB(4,4), WB(8,8), WB(16,16), WB(32,32)} per application, plus one
 * SRAM baseline run per application — 43 runs per app.
 *
 * ExperimentPlan::grid (api/experiment_plan.hh) crosses these axes
 * into a plan and a Session (api/session.hh) runs it, keeping results
 * in a result store (service/store.hh) keyed by every parameter that
 * affects them; all figure benches share the store, and re-running a
 * bench is free.  The environment overrides (defaultStoreDir,
 * applyEnvAxes) are for the command-line tool and the benches only.
 */

#ifndef REFRINT_HARNESS_SWEEP_HH
#define REFRINT_HARNESS_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace refrint
{

/** The paper's seven data policies for one timing policy. */
std::vector<RefreshPolicy> paperDataPolicies(TimePolicy t);

/** All 14 timing x data combinations, Periodic first (plot order). */
std::vector<RefreshPolicy> paperPolicySweep();

/** The paper's three retention times, in ticks. */
std::vector<Tick> paperRetentions();

/**
 * One point on the sweep's machine axis: the paper machine scaled to
 * @p cores cores, either uniformly eDRAM (policy swept at the LLC) or
 * hybrid (SRAM L1/L2 over the eDRAM LLC).  The SRAM normalization
 * baseline is always the all-SRAM machine at the same core count.
 */
struct MachineAxis
{
    std::uint32_t cores = 16;
    bool hybrid = false;

    bool
    isDefault() const
    {
        return cores == 16 && !hybrid;
    }
};

/**
 * Observability counters for one plan execution, filled by
 * Session::run() and carried on SweepResult so every consumer — the
 * sweep CLI's progress summary, `refrint serve`'s per-request metrics,
 * embedding code — reports the same numbers instead of ad-hoc log
 * lines.
 */
struct RunMetrics
{
    std::size_t scenarios = 0; ///< rows in the plan
    std::size_t simulated = 0; ///< executed fresh (store misses)
    std::size_t cacheHits = 0; ///< answered from the result store
    std::size_t skipped = 0;   ///< abandoned: run deadline expired
                               ///< before these scenarios started
    double wallSeconds = 0;    ///< plan wall time
    double busySeconds = 0;    ///< summed per-scenario wall time
    unsigned jobs = 1;         ///< worker threads used

    /** Fraction of worker capacity kept busy (1.0 = perfect). */
    double
    utilization() const
    {
        return wallSeconds > 0 && jobs > 0
                   ? busySeconds / (wallSeconds * jobs)
                   : 0.0;
    }
};

/** One app's SRAM baseline plus all its policy runs, normalized. */
struct SweepResult
{
    std::vector<RunResult> raw;             ///< includes SRAM baselines
    std::vector<NormalizedResult> normalized;

    /** Simulations actually executed (cache misses); a warm-cache
     *  sweep reports 0. */
    std::size_t simulations = 0;

    /** Run observability counters (see RunMetrics). */
    RunMetrics metrics;

    /**
     * Mean of @p field over the normalized rows matching the filter
     * (retention in us; empty app list = all apps).  The mean never
     * silently pools across machines: if the matching rows span more
     * than one machine this is fatal — name the machine with the
     * overload below, or pool explicitly via averagePooled().
     */
    double average(double retentionUs, const std::string &config,
                   const std::vector<std::string> &apps,
                   double NormalizedResult::*field) const;

    /** The mean restricted to one machine ("" = the default 16-core
     *  machine). */
    double average(double retentionUs, const std::string &config,
                   const std::vector<std::string> &apps,
                   double NormalizedResult::*field,
                   const std::string &machine) const;

    /** Explicitly opt into pooling every machine's rows into one
     *  mean (the pre-PR-5 behavior of average()). */
    double averagePooled(double retentionUs, const std::string &config,
                         const std::vector<std::string> &apps,
                         double NormalizedResult::*field) const;

    /**
     * Locate a row by (app, retention, config).  retentionUs <= 0
     * matches any retention.  Never silently guesses across the
     * machine/ambient axes: when matching rows disagree on machine or
     * ambient, this is fatal — use the full-identity overload.
     */
    const NormalizedResult *find(const std::string &app,
                                 double retentionUs,
                                 const std::string &config) const;

    /** Locate a row by its full scenario identity ("" = the default
     *  machine, ambientC 0 = the isothermal rows). */
    const NormalizedResult *find(const std::string &app,
                                 double retentionUs,
                                 const std::string &config,
                                 const std::string &machine,
                                 double ambientC = 0.0) const;
};

/** Result store directory: $REFRINT_STORE (empty = in memory only),
 *  else ./refrint_store. */
std::string defaultStoreDir();

/**
 * The grid axes the environment sets, for the command-line tool and
 * the figure benches; no plan builder and no Session reads these
 * variables.  A non-empty $REFRINT_APPS (comma-separated workload
 * names) replaces @p apps, a set $REFRINT_REFS replaces @p sim's
 * refsPerCore; an unset variable leaves its axis alone.  An unknown
 * app name or REFRINT_REFS=0 is fatal (exit 1); a malformed
 * REFRINT_REFS ("1e6") warns and is ignored.
 */
void applyEnvAxes(std::vector<const Workload *> &apps, SimParams &sim);

} // namespace refrint

#endif // REFRINT_HARNESS_SWEEP_HH
