/**
 * @file
 * Text renderers for the paper's tables and figures.  Each bench binary
 * calls one of these to print the rows/series the corresponding figure
 * plots (normalized to full-SRAM, exactly as the paper's Y axes are).
 * The renderers over a sweep aggregate also come as ResultSinks for
 * Session::run(); printBinning measures directly and runs no plan.
 */

#ifndef REFRINT_HARNESS_REPORT_HH
#define REFRINT_HARNESS_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "api/result_sink.hh"
#include "harness/sweep.hh"

namespace refrint
{

/** Names of apps in one paper class ("" filter = all). */
std::vector<std::string> classAppNames(int paperClass);

/** Fig. 6.1: L1/L2/L3/DRAM stacked energy, averaged over all apps. */
void printFig61(const SweepResult &s, std::FILE *out = stdout);

/** Fig. 6.2: dynamic/leakage/refresh/DRAM energy, one block per class
 *  (1..3) plus the all-apps average (classFilter 0). */
void printFig62(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Fig. 6.3: normalized total system energy (class 1 and all). */
void printFig63(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Fig. 6.4: normalized execution time (class 1 and all). */
void printFig64(const SweepResult &s, int classFilter,
                std::FILE *out = stdout);

/** Table 6.1: measured application binning vs the paper's (measures
 *  each app directly; needs no sweep). */
void printBinning(std::FILE *out = stdout);

/** Abstract/§6 headline numbers: P.all and R.WB(32,32) at 50 us. */
void printHeadline(const SweepResult &s, std::FILE *out = stdout);

/** Thermal-study table: one row per (ambient, policy) of a sweep run
 *  with a non-empty ambient axis (see refrint_cli thermal-study). */
void printThermalStudy(const SweepResult &s, const char *appName,
                       double retentionUs, std::FILE *out = stdout);

/** Tail-latency table: one row per run with request structure
 *  (requests > 0).  Prints nothing — not even a header — when no run
 *  has requests, so attaching it to a legacy sweep is output-neutral. */
void printLatencyTable(const SweepResult &s, std::FILE *out = stdout);

/** Cross-backend disagreement table: one row per run carrying the
 *  alternate energy estimate (hasAlt), with both system totals and the
 *  relative disagreement.  Prints nothing when no run has the alternate
 *  backend, so attaching it to a default sweep is output-neutral. */
void printDisagreement(const SweepResult &s, std::FILE *out = stdout);

// ---------------------------------------------------------------------
// The renderers as ResultSink implementations: attach them to
// Session::run() to turn a plan execution into the paper's tables.
// Each fires in end(), over the complete aggregate; none owns its
// stream.
// ---------------------------------------------------------------------

/** The abstract/§6 headline table (printHeadline). */
class HeadlineSink : public ResultSink
{
  public:
    explicit HeadlineSink(std::FILE *out = stdout) : out_(out) {}
    void
    end(const ExperimentPlan &, const SweepResult &s) override
    {
        printHeadline(s, out_);
    }

  private:
    std::FILE *out_;
};

/** Figs. 6.1-6.4 in paper order (printFig61..printFig64). */
class FiguresSink : public ResultSink
{
  public:
    explicit FiguresSink(std::FILE *out = stdout) : out_(out) {}
    void end(const ExperimentPlan &, const SweepResult &s) override;

  private:
    std::FILE *out_;
};

/** The thermal-study table (printThermalStudy) for one app/retention. */
class ThermalStudySink : public ResultSink
{
  public:
    ThermalStudySink(std::string appName, double retentionUs,
                     std::FILE *out = stdout)
        : app_(std::move(appName)), retentionUs_(retentionUs), out_(out)
    {
    }
    void
    end(const ExperimentPlan &, const SweepResult &s) override
    {
        printThermalStudy(s, app_.c_str(), retentionUs_, out_);
    }

  private:
    std::string app_;
    double retentionUs_;
    std::FILE *out_;
};

/** The tail-latency table (printLatencyTable); silent when the plan
 *  held no request-serving workloads. */
class LatencySink : public ResultSink
{
  public:
    explicit LatencySink(std::FILE *out = stdout) : out_(out) {}
    void
    end(const ExperimentPlan &, const SweepResult &s) override
    {
        printLatencyTable(s, out_);
    }

  private:
    std::FILE *out_;
};

/** The cross-backend disagreement table (printDisagreement); silent
 *  when the plan ran the default energy model only. */
class DisagreementSink : public ResultSink
{
  public:
    explicit DisagreementSink(std::FILE *out = stdout) : out_(out) {}
    void
    end(const ExperimentPlan &, const SweepResult &s) override
    {
        printDisagreement(s, out_);
    }

  private:
    std::FILE *out_;
};

} // namespace refrint

#endif // REFRINT_HARNESS_REPORT_HH
