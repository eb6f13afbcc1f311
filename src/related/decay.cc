#include "related/decay.hh"

#include "common/log.hh"

namespace refrint
{

namespace
{

/** RetentionParams shim: SRAM cells never decay, but the base class
 *  wants a retention clock; use the decay interval with a 1-tick
 *  sentry margin so nothing panics and the clocks stay inert. */
RetentionParams
decayRetention(const DecayConfig &cfg)
{
    return RetentionParams{cfg.interval, 1, {}, {}};
}

} // namespace

DecayEngine::DecayEngine(RefreshTarget &target, const DecayConfig &cfg,
                         EventQueue &eq)
    : RefreshEngine(target, RefreshPolicy::refrint(DataPolicy::Valid),
                    decayRetention(cfg), EngineGeometry{}, eq),
      cfg_(cfg)
{
    panicIf(cfg_.scanDiv == 0, "decay scan divisor must be positive");
    scanPeriod_ = std::max<Tick>(1, cfg_.interval / cfg_.scanDiv);
    offSince_.assign(target.array().numLines(), kTickNever);
}

void
DecayEngine::start(Tick now)
{
    // Lines that are never filled stay gated from power-on: account
    // their OFF time from t=0 by marking every line off initially.
    for (Tick &t : offSince_)
        t = now;
    eq_.schedule(now + scanPeriod_, this, 0);
}

void
DecayEngine::onInstall(std::uint32_t idx, Tick now)
{
    if (offSince_[idx] != kTickNever) {
        offLineTicks_ += now - offSince_[idx];
        offSince_[idx] = kTickNever;
    }
    // SRAM data never expires; keep the retention clocks inert so the
    // decayed-hit detector in CacheUnit stays silent.
    CacheLine &line = arr_.lineAt(idx);
    line.dataExpiry = kTickNever;
}

void
DecayEngine::onAccess(std::uint32_t idx, Tick now)
{
    (void)now;
    (void)idx; // lastTouch is maintained by CacheUnit::touchLine
}

void
DecayEngine::finish(Tick now)
{
    for (std::size_t idx = 0; idx < offSince_.size(); ++idx) {
        if (offSince_[idx] != kTickNever) {
            offLineTicks_ += now - offSince_[idx];
            offSince_[idx] = now; // idempotent wrt. repeated finish()
        }
    }
}

void
DecayEngine::fire(Tick now, std::uint64_t)
{
    CacheArray &arr = arr_;
    const std::uint32_t lines = arr.numLines();
    for (std::uint32_t idx = 0; idx < lines; ++idx) {
        CacheLine &line = arr.lineAt(idx);
        if (!line.valid() || offSince_[idx] != kTickNever)
            continue;
        if (arr.lastTouchOf(idx) + cfg_.interval > now)
            continue;
        // Idle past the decay interval: write back if dirty (the
        // adapter routes through the hierarchy, rescuing Modified
        // owners), then gate the line off.
        ++counts_.invalidations;
        target_.invalidateLine(idx, now);
        offSince_[idx] = now;
    }
    eq_.schedule(now + scanPeriod_, this, 0);
}

} // namespace refrint
