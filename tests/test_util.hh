/**
 * @file
 * Shared fixtures for the Refrint test suite: a scaled-down machine so
 * individual tests run in milliseconds, helpers to drive a system
 * with micro workloads, a one-call grid runner over a Session, and
 * one-shot callbacks on the event kernel.
 */

#ifndef REFRINT_TESTS_TEST_UTIL_HH
#define REFRINT_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "api/experiment_plan.hh"
#include "coherence/hierarchy.hh"
#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "system/cmp_system.hh"
#include "workload/micro.hh"

namespace refrint::test
{

/**
 * A 4-core, 4-bank machine (scalable via @p cores) with small caches
 * and a short retention so refresh activity shows up within
 * microseconds of simulated time.  Line size and latencies match the
 * paper config.
 */
MachineConfig tinyConfig(CellTech tech = CellTech::Edram,
                         std::uint32_t cores = 4);

/** tinyConfig with a specific LLC policy/retention. */
MachineConfig tinyEdram(const RefreshPolicy &policy,
                        Tick retention = usToTicks(5.0));

/** Run @p app on @p cfg for @p refs refs/core; returns the result. */
RunResult runTiny(const MachineConfig &cfg, const Workload &app,
                  std::uint64_t refs, std::uint64_t seed = 7);

/** Run (or load) the plan of grid @p g through a Session on the store
 *  in @p storeDir ("" keeps rows in memory) with @p jobs threads. */
SweepResult runGrid(const ExperimentPlan::Grid &g,
                    const std::string &storeDir = "", unsigned jobs = 1);

/**
 * One-shot callables on an EventQueue: a single client that owns them
 * and fires callable i for tag i.  at() consumes one sequence number
 * like any schedule(), so callbacks interleave with other clients'
 * same-tick events in scheduling order.
 */
class Callbacks : public EventClient
{
  public:
    explicit Callbacks(EventQueue &eq) : eq_(eq) {}

    void
    at(Tick when, std::function<void(Tick)> fn)
    {
        fns_.push_back(std::move(fn));
        eq_.schedule(when, this, fns_.size() - 1);
    }

    void
    fire(Tick now, std::uint64_t tag) override
    {
        fns_[tag](now); // deque: a nested at() never moves this callable
    }

  private:
    EventQueue &eq_;
    std::deque<std::function<void(Tick)>> fns_;
};

} // namespace refrint::test

#endif // REFRINT_TESTS_TEST_UTIL_HH
