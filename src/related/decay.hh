/**
 * @file
 * Cache-decay comparator (Kaxiras et al., ISCA 2001; paper §7).
 *
 * Cache decay attacks SRAM leakage directly: a line that has not been
 * accessed for a *decay interval* is turned off (power-gated), paying a
 * refill from the next level if it is referenced again.  Dirty lines
 * are written back before gating.  This is the paper's main SRAM-side
 * alternative — it saves leakage on dead lines where Refrint saves
 * refresh energy on them — so the related-work bench runs it on the
 * full-SRAM baseline machine.
 *
 * The engine reuses the RefreshEngine plumbing: it scans at a coarse
 * granularity (interval / scanDiv, modelling the hierarchical 2-level
 * counters of the original paper), invalidates idle lines through the
 * hierarchy's RefreshTarget adapter (so inclusion and the directory stay
 * exact), and integrates per-line OFF time (offLineTicks()) that the
 * energy model uses to discount leakage.
 */

#ifndef REFRINT_RELATED_DECAY_HH
#define REFRINT_RELATED_DECAY_HH

#include <cstdint>
#include <vector>

#include "edram/refresh_engine.hh"

namespace refrint
{

/** Decay settings for the SRAM baseline machine. */
struct DecayConfig
{
    bool enabled = false;

    /** Idle time after which a line is gated off (Kaxiras' competitive
     *  sweet spot is tens of thousands of cycles for an LLC). */
    Tick interval = usToTicks(100.0);

    /** Scan granularity divisor: counters are polled every
     *  interval/scanDiv ticks (2-level counter quantization). */
    std::uint32_t scanDiv = 4;

    /** Apply decay at the private L2s / the shared L3. */
    bool atL2 = true;
    bool atL3 = true;
};

class DecayEngine : public RefreshEngine
{
  public:
    DecayEngine(RefreshTarget &target, const DecayConfig &cfg,
                EventQueue &eq);

    void start(Tick now) override;
    void onInstall(std::uint32_t idx, Tick now) override;
    void onAccess(std::uint32_t idx, Tick now) override;
    void finish(Tick now) override;

    void fire(Tick now, std::uint64_t tag) override;

    /** Accumulated line-OFF time so far (ticks x lines).  A sum of
     *  integer tick spans, so exact in 64 bits. */
    std::uint64_t offLineTicks() const { return offLineTicks_; }

  private:
    DecayConfig cfg_;
    Tick scanPeriod_;

    /** Gate-off tick per line; kTickNever while the line is powered. */
    std::vector<Tick> offSince_;

    std::uint64_t offLineTicks_ = 0;
};

} // namespace refrint

#endif // REFRINT_RELATED_DECAY_HH
