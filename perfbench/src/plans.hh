/**
 * @file
 * The benchmark's workloads as explicit ExperimentPlan scenarios.
 *
 * Plans are spelled out scenario by scenario instead of going through
 * SweepSpec::finalize, which reads REFRINT_REFS / REFRINT_APPS /
 * REFRINT_JOBS and would let a stray variable change a workload.
 */

#ifndef PERFBENCH_PLANS_HH
#define PERFBENCH_PLANS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_plan.hh"

namespace perfbench
{

/** References per core of the three sweep workloads. */
constexpr std::uint64_t kPaperSweepRefs = 4000;
constexpr std::uint64_t kSteadyRefs = 120'000;
constexpr std::uint64_t kSramC32Refs = 40'000;

/** References per core of small plans: the serve-mix store pre-fill,
 *  the cold requests, and the sram-c32 headline probe. */
constexpr std::uint64_t kSmallRefs = 500;

/** The 473-run Table 5.4 grid (11 apps x 14 policies x 3 retentions
 *  plus one SRAM baseline per app), in the paper sweep's order. */
refrint::ExperimentPlan paperGrid(std::uint64_t refs, std::uint64_t seed);

/** fft and lu at 50 us: SRAM, P.all, R.valid, R.WB(32,32); plus fft
 *  P.all and R.WB(32,32) at 85 C ambient with the thermal model on. */
refrint::ExperimentPlan steadyRefreshPlan(std::uint64_t seed);

/** The SRAM baseline of all 11 apps on the 32-core machine. */
refrint::ExperimentPlan sramC32Plan(std::uint64_t seed);

/** SRAM, P.all and R.WB(32,32) at 50 us for all 11 apps on the
 *  default machine: the smallest plan holding every headline cell. */
refrint::ExperimentPlan headlinePlan(std::uint64_t refs, std::uint64_t seed);

/** One app's baseline and every scenario normalized against it, as a
 *  plan of its own (a warm request). */
refrint::ExperimentPlan appSlice(const refrint::ExperimentPlan &plan,
                                 const std::string &app);

/** The apps of @p plan, in first-appearance order. */
std::vector<std::string> appsOf(const refrint::ExperimentPlan &plan);

/** A one-scenario SRAM plan (a cold request). */
refrint::ExperimentPlan coldPlan(const std::string &app, std::uint32_t cores,
                                 std::uint64_t refs, std::uint64_t seed);

/** A plan as the one-line JSON request `refrint submit` would send. */
std::string requestLine(const refrint::ExperimentPlan &plan);

/**
 * The paper's headline: mean |sim - paper| over P.all and
 * R.WB(32,32) x normalized memory energy, system energy and time at
 * 50 us, averaged over the default-machine isothermal rows present.
 * The references are the ones printHeadline prints.  Returns a
 * negative value when @p rows hold no headline cell.
 */
double headlineError(const std::vector<refrint::NormalizedResult> &rows);

} // namespace perfbench

#endif // PERFBENCH_PLANS_HH
