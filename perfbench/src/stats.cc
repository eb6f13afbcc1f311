#include "stats.hh"

#include <algorithm>

#include "api/json.hh"

namespace perfbench
{

Percentile
percentile(std::vector<double> v, unsigned pct)
{
    Percentile p;
    p.samples = v.size();
    if (v.empty() || pct == 0 || pct > 100)
        return p;
    std::sort(v.begin(), v.end());
    // Integer nearest rank: ceil(pct * n / 100), at least 1.
    std::size_t rank = (pct * v.size() + 99) / 100;
    if (rank == 0)
        rank = 1;
    p.value = v[rank - 1];
    p.beyond = v.size() - rank;
    p.ok = p.beyond >= kMinBeyond;
    return p;
}

std::size_t
samplesNeeded(unsigned pct)
{
    std::size_t n = 1;
    while (n - (pct * n + 99) / 100 < kMinBeyond)
        ++n;
    return n;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t
Balanced::next()
{
    if (bag_.empty()) {
        for (std::size_t k = 0; k < kinds_; ++k)
            bag_.push_back(k);
        std::shuffle(bag_.begin(), bag_.end(), rng_);
    }
    const std::size_t k = bag_.back();
    bag_.pop_back();
    return k;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
Response::addLine(const std::string &line)
{
    // Only terminators are parsed: they are the sole lines that open
    // with "done" or "error", and parsing every row line would bill the
    // client's JSON cost to the service's latency.
    const bool terminator = line.rfind("{\"done\"", 0) == 0 ||
                            line.rfind("{\"error\"", 0) == 0;
    refrint::JsonValue doc;
    std::string err;
    if (terminator && refrint::JsonValue::parse(line, doc, err) &&
        doc.isObject()) {
        const auto num = [&](const char *k) -> double {
            const refrint::JsonValue *v = doc.get(k);
            return v != nullptr && v->isNumber() ? v->asNumber() : 0.0;
        };
        if (const refrint::JsonValue *e = doc.get("error")) {
            error = true;
            shed = e->isString() && e->asString() == "overloaded";
            return true;
        }
        if (doc.get("done") != nullptr) {
            done = true;
            scenarios = static_cast<std::size_t>(num("scenarios"));
            warm = static_cast<std::size_t>(num("warm"));
            cold = static_cast<std::size_t>(num("cold"));
            queueDepth = static_cast<std::size_t>(num("queueDepth"));
            wallSeconds = num("wallSeconds");
            return true;
        }
    }
    ++rows;
    rowBytes += line;
    return false;
}

std::string
classify(ReqKind kind, std::size_t scenarios, const Response &r)
{
    if (r.shed)
        return "shed";
    if (r.error)
        return "error_line";
    if (!r.done)
        return "missing_done";
    if (r.rows != scenarios || r.scenarios != scenarios)
        return "missing_rows";
    if (kind == ReqKind::Warm && (r.warm != scenarios || r.cold != 0))
        return "warm_simulated";
    if (kind == ReqKind::Cold && (r.cold != scenarios || r.warm != 0))
        return "cold_not_simulated";
    return "";
}

void
Failures::fail(const std::string &reason, std::size_t n)
{
    failed += n;
    reasons[reason] += n;
}

double
Failures::okFraction() const
{
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
}

} // namespace perfbench
