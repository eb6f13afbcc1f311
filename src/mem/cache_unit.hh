/**
 * @file
 * CacheUnit: one physical cache (an L1, a private L2, or one L3 bank)
 * — the tag/state array plus port availability, the unit's own event
 * counts and the optional eDRAM refresh engine attached to it.
 */

#ifndef REFRINT_MEM_CACHE_UNIT_HH
#define REFRINT_MEM_CACHE_UNIT_HH

#include <algorithm>
#include <memory>

#include "common/types.hh"
#include "edram/refresh_engine.hh"
#include "mem/cache_array.hh"

namespace refrint
{

/** Hierarchy-walk lookahead tolerated by the decay check (touchLine). */
constexpr Tick kWalkLookaheadSlack = 256;

/** Demand-side events one cache unit counts.  Hierarchy::counts()
 *  sums them per level (the paper reports per-level energy); the
 *  thermal driver samples reads + writes of its own unit per epoch. */
struct AccessCounts
{
    std::uint64_t reads = 0;  ///< array reads (fetch blocks on an IL1)
    std::uint64_t writes = 0; ///< array writes, fills included
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t backInvals = 0; ///< copies dropped for inclusion
    /** Accesses that found a line past its data retention — must stay
     *  0; a nonzero value indicates a refresh-engine bug. */
    std::uint64_t decayedHits = 0;

    AccessCounts &
    operator+=(const AccessCounts &o)
    {
        reads += o.reads;
        writes += o.writes;
        misses += o.misses;
        fills += o.fills;
        backInvals += o.backInvals;
        decayedHits += o.decayedHits;
        return *this;
    }
};

class CacheUnit
{
  public:
    /** @p arena: optional recycled backing store for the tag/probe
     *  arrays (sweep workers; see common/arena.hh). */
    CacheUnit(const char *name, const CacheGeometry &geom,
              Arena *arena = nullptr)
        : array(geom, name, arena), latency(geom.latency)
    {
    }

    CacheUnit(const CacheUnit &) = delete;
    CacheUnit &operator=(const CacheUnit &) = delete;

    /** Earliest tick at which a request arriving at @p t is served —
     *  refresh activity has priority over plain R/W requests (§4.2). */
    Tick admit(Tick t) const { return std::max(t, busyUntil); }

    /** Block the unit's port for @p cycles starting no earlier than
     *  @p now (refresh bursts, sentry interrupt service). */
    void
    addBusy(Tick now, Tick cycles)
    {
        busyUntil = std::max(busyUntil, now) + cycles;
    }

    /** Record a demand access to a resident line: LRU, WB(n,m) Count
     *  reset and the automatic line+sentry refresh.
     *
     * The decay check tolerates the hierarchy walk's synchronous
     * lookahead: an access starting at event time T0 may touch a lower
     * level at T0 + ~100 cycles, before refresh events scheduled in
     * (T0, T0+100) have fired.  Genuine refresh-engine bugs miss
     * deadlines by a whole retention period, far beyond this slack.
     */
    void
    touchLine(CacheLine &line, Tick now)
    {
        // kTickNever marks non-decaying cells (SRAM under the decay
        // comparator); the addition would wrap on it.
        if (engine != nullptr && line.dataExpiry != kTickNever &&
            line.dataExpiry + kWalkLookaheadSlack < now)
            ++counts.decayedHits;
        array.touch(line, now);
        if (engine != nullptr)
            notifyAccess(array.indexOf(&line), now);
    }

    /** Record a fresh install of @p line. */
    void
    installLine(CacheLine &line, Tick now)
    {
        array.touch(line, now);
        if (engine != nullptr)
            notifyInstall(array.indexOf(&line), now);
    }

    /** Engine callback on a demand access, devirtualized for the two
     *  concrete engine kinds (qualified calls compile to direct,
     *  inlinable calls — this runs once or twice per reference). */
    void
    notifyAccess(std::uint32_t idx, Tick now)
    {
        switch (engine->kind()) {
          case EngineKind::Refrint:
            static_cast<RefrintEngine *>(engine)->RefrintEngine::onAccess(
                idx, now);
            break;
          case EngineKind::Periodic:
            static_cast<PeriodicEngine *>(engine)
                ->PeriodicEngine::onAccess(idx, now);
            break;
          case EngineKind::Other:
            engine->onAccess(idx, now);
            break;
        }
    }

    /** Engine callback on a line install (see notifyAccess). */
    void
    notifyInstall(std::uint32_t idx, Tick now)
    {
        switch (engine->kind()) {
          case EngineKind::Refrint:
            static_cast<RefrintEngine *>(engine)
                ->RefrintEngine::onInstall(idx, now);
            break;
          case EngineKind::Periodic:
            static_cast<PeriodicEngine *>(engine)
                ->PeriodicEngine::onInstall(idx, now);
            break;
          case EngineKind::Other:
            engine->onInstall(idx, now);
            break;
        }
    }

    CacheArray array;
    Tick latency;
    Tick busyUntil = 0;

    /** Refresh engine for eDRAM configurations; null for SRAM. */
    RefreshEngine *engine = nullptr;

    AccessCounts counts;
};

} // namespace refrint

#endif // REFRINT_MEM_CACHE_UNIT_HH
