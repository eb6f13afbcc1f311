/**
 * @file
 * Refrint refresh policies (paper Table 3.1) and the per-line decision
 * algorithm of Fig. 4.1.
 *
 * A policy has a time-based component (when to refresh: Periodic or
 * Refrint/sentry-interrupt) and a data-based component (what to refresh:
 * All, Valid, Dirty, or WB(n,m)).  Either time policy combines with any
 * data policy; the paper sweeps the full cross product (Table 5.4).
 */

#ifndef REFRINT_EDRAM_REFRESH_POLICY_HH
#define REFRINT_EDRAM_REFRESH_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/log.hh"
#include "common/types.hh"
#include "mem/line_state.hh"

namespace refrint
{

/** When to refresh (Table 3.1, top half, plus the related-work
 *  comparator of §7). */
enum class TimePolicy : std::uint8_t
{
    Periodic = 0, ///< refresh groups of lines on a fixed schedule
    Refrint,      ///< refresh on Sentry-bit decay interrupts
    /** SmartRefresh (Ghosh & Lee, MICRO'07): per-line timeout counters
     *  polled at a coarse phase clock skip lines that a recent access
     *  already refreshed.  Implemented in related/smart_refresh.hh;
     *  evaluated as a comparator, not part of the paper's sweep. */
    SmartRefresh,
};

/** What to refresh (Table 3.1, bottom half). */
enum class DataPolicy : std::uint8_t
{
    All = 0, ///< every line, valid or not (reference policy)
    Valid,   ///< only valid lines; everything else decays
    Dirty,   ///< only dirty lines; clean valid lines are invalidated
    WB,      ///< WB(n,m): n refreshes then write back; m then invalidate
};

const char *timePolicyName(TimePolicy t);
const char *dataPolicyName(DataPolicy d);

/** Full policy: time component, data component and the WB tuple. */
struct RefreshPolicy
{
    TimePolicy time = TimePolicy::Refrint;
    DataPolicy data = DataPolicy::Valid;
    std::uint32_t n = 0; ///< WB: refreshes before write-back (dirty lines)
    std::uint32_t m = 0; ///< WB: refreshes before invalidation (clean)

    /** "R.WB(32,32)", "P.valid", ... matching the paper's bar labels. */
    std::string name() const;

    static RefreshPolicy periodic(DataPolicy d, std::uint32_t n = 0,
                                  std::uint32_t m = 0);
    static RefreshPolicy refrint(DataPolicy d, std::uint32_t n = 0,
                                 std::uint32_t m = 0);
};

/** Outcome of a refresh-deadline decision for one line. */
enum class RefreshAction : std::uint8_t
{
    Refresh = 0, ///< refresh line (and sentry bit)
    Writeback,   ///< write dirty data down, keep line as Valid-Clean
    Invalidate,  ///< drop the line (and upper-level copies)
    Skip,        ///< do nothing; the line may decay
};

const char *refreshActionName(RefreshAction a);

/**
 * Decide what to do with @p line when its refresh deadline arrives
 * (sentry interrupt for Refrint, scheduled visit for Periodic).
 *
 * Implements Fig. 4.1 for WB(n,m), including the Count decrement; for
 * the Writeback outcome the caller must complete the state change
 * (mark clean, reset Count to m) after performing the write-back, which
 * this function anticipates by setting count = m.
 *
 * The line is identified as dirty via its local dirty flag — at the
 * shared L3 this deliberately ignores Modified copies in upper levels,
 * reproducing the visibility limitation discussed in §3.2.
 *
 * Inline: this runs once per line visit, millions of times per run.
 */
inline RefreshAction
decideRefresh(const RefreshPolicy &policy, CacheLine &line)
{
    switch (policy.data) {
      case DataPolicy::All:
        // Refresh every line, irrespective of validity (§3.2).
        return RefreshAction::Refresh;

      case DataPolicy::Valid:
        return line.valid() ? RefreshAction::Refresh : RefreshAction::Skip;

      case DataPolicy::Dirty:
        // Refresh dirty lines; invalidate valid-clean ones; let the rest
        // decay.  Equivalent to WB(inf, 0).
        if (!line.valid())
            return RefreshAction::Skip;
        return line.dirty ? RefreshAction::Refresh
                          : RefreshAction::Invalidate;

      case DataPolicy::WB:
        // Fig. 4.1.
        if (!line.valid())
            return RefreshAction::Skip;
        if (line.count >= 1) {
            --line.count;
            return RefreshAction::Refresh;
        }
        if (line.dirty) {
            // Write back; the write-back itself refreshes the line and
            // it continues life as Valid-Clean with Count = m.
            line.count = policy.m;
            return RefreshAction::Writeback;
        }
        return RefreshAction::Invalidate;
    }
    panic("unreachable data policy");
}

/**
 * Reset the WB(n,m) Count on a normal (non-refresh) access, per §3.2:
 * "On any normal, non-refresh access to the line, Count is reset to its
 * reference value" — n if the line is dirty, m if clean.
 */
inline void
noteAccess(const RefreshPolicy &policy, CacheLine &line)
{
    if (policy.data == DataPolicy::WB)
        line.count = line.dirty ? policy.n : policy.m;
}

/**
 * Parse "R.WB(32,32)" / "P.valid" style names.  Accepts a string only
 * if name() reproduces it byte for byte, so no two spellings (and no
 * store keys) can alias one policy.  @return nullopt if malformed.
 */
std::optional<RefreshPolicy> tryParsePolicy(const std::string &s);

/** tryParsePolicy, but a malformed name is fatal (exit 1). */
RefreshPolicy parsePolicy(const std::string &s);

} // namespace refrint

#endif // REFRINT_EDRAM_REFRESH_POLICY_HH
