#include "service/worker.hh"

#include <cstdlib>
#include <memory>
#include <vector>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "service/faults.hh"
#include "service/store.hh"

namespace refrint
{

namespace
{

/**
 * Forwards range rows to an inner sink against the FULL plan with
 * GLOBAL indices (so keys, labels and shapes match a single-process
 * run exactly), and drops the rows of any baselines prepended for
 * out-of-range normalization.
 *
 * Each row is flushed to @p out as soon as it is emitted: the
 * coordinator watches the temp file's row frontier to tell a hung
 * worker from a slow one, and salvages the flushed prefix of a dead
 * worker's stream — buffered rows would be invisible to both.
 */
class RangeForwardSink : public ResultSink
{
  public:
    RangeForwardSink(const ExperimentPlan &fullPlan, std::size_t begin,
                     std::size_t prefix, ResultSink &inner,
                     std::FILE *out)
        : full_(fullPlan), begin_(begin), prefix_(prefix),
          inner_(inner), out_(out)
    {
    }

    void
    begin(const ExperimentPlan &subplan) override
    {
        (void)subplan;
        inner_.begin(full_);
    }

    void
    consume(const ExperimentPlan &subplan, std::size_t index,
            const RunResult &raw, const NormalizedResult *norm,
            bool simulated) override
    {
        (void)subplan;
        if (index < prefix_)
            return; // out-of-range baseline, not this range's row
        const std::size_t global = begin_ + (index - prefix_);
        // The chaos seam: crash, hang or dawdle right before this row
        // (attempt 0 only; see service/faults.hh).
        maybeInjectWorkerFault(global);
        inner_.consume(full_, global, raw, norm, simulated);
        std::fflush(out_);
    }

    void
    end(const ExperimentPlan &subplan, const SweepResult &result) override
    {
        (void)subplan;
        inner_.end(full_, result);
    }

  private:
    const ExperimentPlan &full_;
    std::size_t begin_;
    std::size_t prefix_;
    ResultSink &inner_;
    std::FILE *out_;
};

} // namespace

int
runWorkerRange(const WorkerRangeOptions &opts)
{
    const ExperimentPlan plan = ExperimentPlan::loadFile(opts.planPath);
    if (opts.begin >= opts.end || opts.end > plan.size()) {
        std::fprintf(stderr,
                     "worker: range %zu:%zu is outside the plan "
                     "(%zu scenarios)\n",
                     opts.begin, opts.end, plan.size());
        return 1;
    }

    // Out-of-range baselines needed by range scenarios, in index order.
    std::vector<std::size_t> externals;
    for (std::size_t i = opts.begin; i < opts.end; ++i) {
        const int b = plan.baseline[i];
        if (b >= 0 && static_cast<std::size_t>(b) < opts.begin) {
            const std::size_t bi = static_cast<std::size_t>(b);
            if (externals.empty() || externals.back() != bi)
                externals.push_back(bi);
        }
    }

    ExperimentPlan sub;
    sub.name = plan.name;
    sub.energy = plan.energy;
    const std::size_t prefix = externals.size();
    for (const std::size_t bi : externals)
        sub.addBaseline(plan.scenarios[bi]);
    for (std::size_t i = opts.begin; i < opts.end; ++i) {
        const int b = plan.baseline[i];
        int local = -1;
        if (b >= 0) {
            const std::size_t bi = static_cast<std::size_t>(b);
            if (bi >= opts.begin) {
                local = static_cast<int>(prefix + (bi - opts.begin));
            } else {
                for (std::size_t e = 0; e < externals.size(); ++e)
                    if (externals[e] == bi)
                        local = static_cast<int>(e);
            }
        }
        if (local < 0 && b >= 0)
            panic("worker: lost baseline mapping for scenario %zu", i);
        if (local < 0)
            sub.addBaseline(plan.scenarios[i]);
        else
            sub.add(plan.scenarios[i], local);
    }

    std::FILE *out = opts.out != nullptr ? opts.out : stdout;
    JsonLinesSink rows(out);
    RangeForwardSink forward(plan, opts.begin, prefix, rows, out);
    std::vector<ResultSink *> sinks{&forward};

    Session session(std::make_unique<ShardedStore>(opts.storeDir),
                    opts.jobs);
    session.run(sub, sinks);
    std::fflush(out);
    return 0;
}

} // namespace refrint
