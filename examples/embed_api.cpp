/**
 * @file
 * Embedding the experiment API: build a two-scenario plan by hand, run
 * it in-process through a Session, and observe the rows both through a
 * streaming sink and from the returned aggregate.
 *
 * This is the programmatic counterpart of `refrint_cli sweep`: the
 * four layers in ~50 lines of driving code.
 *
 *   Scenario        -> one fully-specified run point (a value)
 *   ExperimentPlan  -> scenarios + their normalization baselines
 *   ResultSink      -> streaming observer (here: a custom printer)
 *   Session         -> owns the store/workers, executes the plan
 */

#include <cstdio>
#include <memory>

#include "api/experiment_plan.hh"
#include "api/result_sink.hh"
#include "api/session.hh"
#include "service/store.hh"

using namespace refrint;

namespace
{

/** A custom sink: one line per row as it streams in, plan order. */
class TickerSink : public ResultSink
{
  public:
    void
    consume(const ExperimentPlan &plan, std::size_t index,
            const RunResult &, const NormalizedResult *norm,
            bool simulated) override
    {
        std::printf("row %zu/%zu  %-22s %s", index + 1, plan.size(),
                    plan.scenarios[index].key().str().c_str(),
                    simulated ? "simulated" : "from store");
        if (norm != nullptr)
            std::printf("  (mem %.3fx of SRAM)", norm->memEnergy);
        std::printf("\n");
    }
};

} // namespace

int
main()
{
    // The plan: an SRAM baseline plus the paper's best policy at a
    // 50 us retention, both on the default 16-core machine.  Scenarios
    // are plain values — fill in the axes you care about.
    ExperimentPlan plan;
    plan.name = "embed-demo";

    Scenario base;
    base.app = "lu";
    base.config = "SRAM";
    base.sim.refsPerCore = 30'000; // short demo run
    const int baseIdx = plan.addBaseline(base);

    Scenario best = base;
    best.config = "R.WB(32,32)";
    best.retentionUs = 50.0;
    plan.add(best, baseIdx);

    // Any plan serializes: this exact experiment could be saved with
    // plan.saveFile("demo.json") and replayed by
    // `refrint_cli sweep --plan demo.json`.
    std::printf("plan '%s': %zu scenarios, %zu bytes as JSON\n\n",
                plan.name.c_str(), plan.size(),
                plan.toJson().size());

    // Run it.  The Session owns the result store (here: in-memory
    // only) and the worker pool; rows stream to the sinks in plan
    // order.
    TickerSink ticker;
    Session session(std::make_unique<ShardedStore>(/*dir=*/""),
                    /*jobs=*/2);
    const SweepResult result = session.run(plan, {&ticker});

    // The aggregate is the same SweepResult the paper harness uses,
    // addressed by full scenario identity.
    const NormalizedResult *n =
        result.find("lu", 50.0, "R.WB(32,32)", /*machine=*/"");
    if (n == nullptr)
        return 1;
    std::printf("\nR.WB(32,32) @ 50 us on lu:\n");
    std::printf("  normalized mem energy: %.3f   (paper avg: 0.36)\n",
                n->memEnergy);
    std::printf("  normalized exec time : %.3f   (paper avg: 1.02)\n",
                n->time);
    return 0;
}
