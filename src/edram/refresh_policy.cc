#include "edram/refresh_policy.hh"

#include <cstdio>

#include "common/log.hh"

namespace refrint
{

const char *
timePolicyName(TimePolicy t)
{
    switch (t) {
      case TimePolicy::Periodic:
        return "P";
      case TimePolicy::Refrint:
        return "R";
      case TimePolicy::SmartRefresh:
        return "S";
    }
    return "?";
}

const char *
dataPolicyName(DataPolicy d)
{
    switch (d) {
      case DataPolicy::All:
        return "all";
      case DataPolicy::Valid:
        return "valid";
      case DataPolicy::Dirty:
        return "dirty";
      case DataPolicy::WB:
        return "WB";
    }
    return "?";
}

const char *
refreshActionName(RefreshAction a)
{
    switch (a) {
      case RefreshAction::Refresh:
        return "refresh";
      case RefreshAction::Writeback:
        return "writeback";
      case RefreshAction::Invalidate:
        return "invalidate";
      case RefreshAction::Skip:
        return "skip";
    }
    return "?";
}

std::string
RefreshPolicy::name() const
{
    std::string s = timePolicyName(time);
    s += ".";
    if (data == DataPolicy::WB) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "WB(%u,%u)", n, m);
        s += buf;
    } else {
        s += dataPolicyName(data);
    }
    return s;
}

RefreshPolicy
RefreshPolicy::periodic(DataPolicy d, std::uint32_t n, std::uint32_t m)
{
    return RefreshPolicy{TimePolicy::Periodic, d, n, m};
}

RefreshPolicy
RefreshPolicy::refrint(DataPolicy d, std::uint32_t n, std::uint32_t m)
{
    return RefreshPolicy{TimePolicy::Refrint, d, n, m};
}

std::optional<RefreshPolicy>
tryParsePolicy(const std::string &s)
{
    RefreshPolicy p;
    if (s.size() < 3 || (s[0] != 'P' && s[0] != 'R' && s[0] != 'S') ||
        s[1] != '.')
        return std::nullopt;
    p.time = s[0] == 'P'   ? TimePolicy::Periodic
             : s[0] == 'R' ? TimePolicy::Refrint
                           : TimePolicy::SmartRefresh;
    const std::string body = s.substr(2);
    if (body == "all") {
        p.data = DataPolicy::All;
    } else if (body == "valid") {
        p.data = DataPolicy::Valid;
    } else if (body == "dirty") {
        p.data = DataPolicy::Dirty;
    } else {
        unsigned n = 0, m = 0;
        if (std::sscanf(body.c_str(), "WB(%u,%u)", &n, &m) != 2)
            return std::nullopt;
        p.data = DataPolicy::WB;
        p.n = n;
        p.m = m;
    }
    // Only the canonical spelling: a name must never alias another
    // policy's store key.
    if (p.name() != s)
        return std::nullopt;
    return p;
}

RefreshPolicy
parsePolicy(const std::string &s)
{
    const std::optional<RefreshPolicy> p = tryParsePolicy(s);
    if (!p)
        fatal("cannot parse policy '%s'", s.c_str());
    return *p;
}

} // namespace refrint
