#include "plans.hh"

#include <cmath>

#include "api/json.hh"
#include "common/log.hh"
#include "harness/sweep.hh"

namespace perfbench
{

using refrint::ExperimentPlan;
using refrint::Scenario;
using refrint::Workload;

namespace
{

Scenario
scenario(const Workload *app, const std::string &config, double retentionUs,
         std::uint32_t cores, std::uint64_t refs, std::uint64_t seed)
{
    Scenario s;
    s.app = app->name();
    s.workload = app;
    s.config = config;
    s.retentionUs = retentionUs;
    s.cores = cores;
    s.sim.refsPerCore = refs;
    s.sim.seed = seed;
    return s;
}

const Workload *
app(const char *name)
{
    const Workload *w = refrint::findWorkload(name);
    if (w == nullptr)
        refrint::fatal("perfbench: unknown app %s", name);
    return w;
}

} // namespace

ExperimentPlan
paperGrid(std::uint64_t refs, std::uint64_t seed)
{
    ExperimentPlan plan;
    plan.name = "paper-sweep";
    for (const Workload *w : refrint::paperWorkloads()) {
        const int base =
            plan.addBaseline(scenario(w, "SRAM", 0, 16, refs, seed));
        for (refrint::Tick ret : refrint::paperRetentions())
            for (const refrint::RefreshPolicy &pol :
                 refrint::paperPolicySweep())
                plan.add(scenario(w, pol.name(),
                                  static_cast<double>(ret) / 1e3, 16, refs,
                                  seed),
                         base);
    }
    return plan;
}

ExperimentPlan
steadyRefreshPlan(std::uint64_t seed)
{
    ExperimentPlan plan;
    plan.name = "steady-refresh";
    for (const char *name : {"fft", "lu"}) {
        const Workload *w = app(name);
        const int base =
            plan.addBaseline(scenario(w, "SRAM", 0, 16, kSteadyRefs, seed));
        for (const char *cfg : {"P.all", "R.valid", "R.WB(32,32)"})
            plan.add(scenario(w, cfg, 50.0, 16, kSteadyRefs, seed), base);
        if (std::string(name) == "fft") {
            for (const char *cfg : {"P.all", "R.WB(32,32)"}) {
                Scenario s = scenario(w, cfg, 50.0, 16, kSteadyRefs, seed);
                s.ambientC = 85.0;
                plan.add(std::move(s), base);
            }
        }
    }
    return plan;
}

ExperimentPlan
sramC32Plan(std::uint64_t seed)
{
    ExperimentPlan plan;
    plan.name = "sram-c32";
    for (const Workload *w : refrint::paperWorkloads())
        plan.addBaseline(scenario(w, "SRAM", 0, 32, kSramC32Refs, seed));
    return plan;
}

ExperimentPlan
headlinePlan(std::uint64_t refs, std::uint64_t seed)
{
    ExperimentPlan plan;
    plan.name = "headline";
    for (const Workload *w : refrint::paperWorkloads()) {
        const int base =
            plan.addBaseline(scenario(w, "SRAM", 0, 16, refs, seed));
        for (const char *cfg : {"P.all", "R.WB(32,32)"})
            plan.add(scenario(w, cfg, 50.0, 16, refs, seed), base);
    }
    return plan;
}

ExperimentPlan
appSlice(const ExperimentPlan &plan, const std::string &appName)
{
    ExperimentPlan out;
    out.name = plan.name + ":" + appName;
    out.energy = plan.energy;
    int base = -1;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan.scenarios[i].app != appName)
            continue;
        if (plan.baseline[i] < 0)
            base = out.addBaseline(plan.scenarios[i]);
        else
            out.add(plan.scenarios[i], base);
    }
    return out;
}

std::vector<std::string>
appsOf(const ExperimentPlan &plan)
{
    std::vector<std::string> apps;
    for (const Scenario &s : plan.scenarios)
        if (apps.empty() || apps.back() != s.app)
            apps.push_back(s.app);
    return apps;
}

ExperimentPlan
coldPlan(const std::string &appName, std::uint32_t cores, std::uint64_t refs,
         std::uint64_t seed)
{
    ExperimentPlan plan;
    plan.name = "cold";
    plan.addBaseline(scenario(app(appName.c_str()), "SRAM", 0, cores, refs,
                              seed));
    return plan;
}

std::string
requestLine(const ExperimentPlan &plan)
{
    refrint::JsonValue doc;
    std::string err;
    if (!refrint::JsonValue::parse(plan.toJson(), doc, err))
        refrint::fatal("perfbench: plan JSON does not parse: %s",
                       err.c_str());
    return doc.dump(0);
}

double
headlineError(const std::vector<refrint::NormalizedResult> &rows)
{
    struct Cell
    {
        const char *cfg;
        double paperMem, paperSys, paperTime;
    };
    // The references printHeadline prints (paper abstract / Sec. 6).
    const Cell cells[] = {
        {"P.all", 0.50, 0.72, 1.18},
        {"R.WB(32,32)", 0.36, 0.61, 1.02},
    };
    double err = 0;
    for (const Cell &c : cells) {
        double mem = 0, sys = 0, time = 0;
        std::size_t n = 0;
        for (const refrint::NormalizedResult &r : rows) {
            if (r.config != c.cfg || !r.machine.empty() || r.ambientC != 0 ||
                std::fabs(r.retentionUs - 50.0) > 1e-9)
                continue;
            mem += r.memEnergy;
            sys += r.sysEnergy;
            time += r.time;
            ++n;
        }
        if (n == 0)
            return -1;
        const double k = static_cast<double>(n);
        err += std::fabs(mem / k - c.paperMem) +
               std::fabs(sys / k - c.paperSys) +
               std::fabs(time / k - c.paperTime);
    }
    return err / 6.0;
}

} // namespace perfbench
