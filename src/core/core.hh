/**
 * @file
 * Trace-driven core model.
 *
 * The paper's cores are dual-issue OOO MIPS32 (Table 5.1); what Refrint
 * actually depends on is the memory reference stream those cores emit
 * and the timing feedback (stalls on misses and on refresh-blocked
 * banks).  Each Core therefore replays a synthetic reference stream:
 * per reference it performs one instruction-fetch probe plus the data
 * access, then advances by the reference's compute gap (IPC 1 at the
 * paper's modest 1 GHz operating point).
 */

#ifndef REFRINT_CORE_CORE_HH
#define REFRINT_CORE_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/hierarchy.hh"
#include "common/prng.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace refrint
{

/** One synthetic memory reference. */
struct MemRef
{
    Addr addr = 0;
    bool write = false;
    /** Compute cycles (= instructions at IPC 1) before the next ref. */
    std::uint32_t gap = 0;
    /** Idle ticks before this reference may issue (open-loop streams
     *  waiting for the next request arrival).  The core stalls — it
     *  never issues hierarchy accesses at a future tick. */
    Tick delay = 0;
};

/** An endless per-core reference stream (owned by its Core). */
class CoreStream
{
  public:
    virtual ~CoreStream() = default;
    virtual MemRef next() = 0;

    /** Timed variant: @p now is the tick at which the previous
     *  reference completed (request-serving streams derive per-request
     *  latency from it).  Default ignores the clock. */
    virtual MemRef
    next(Tick now)
    {
        (void)now;
        return next();
    }

    /** Completed per-request latencies in ticks, or null for streams
     *  with no request structure. */
    virtual const std::vector<Tick> *requestLatencies() const
    {
        return nullptr;
    }
};

class Core : public EventClient
{
  public:
    /** Base of the (shared, read-only) code region all cores fetch
     *  from; far above any data region the workloads generate. */
    static constexpr Addr kCodeBase = 0xC000'0000ULL;

    Core(CoreId id, Hierarchy &hier, EventQueue &eq,
         std::unique_ptr<CoreStream> stream, std::uint64_t targetRefs,
         std::uint32_t codeLines, std::uint64_t seed,
         std::function<void(CoreId)> onDone);

    /** Issue the first reference at @p now. */
    void start(Tick now);

    void fire(Tick now, std::uint64_t tag) override;

    bool done() const { return done_; }
    Tick doneTick() const { return doneTick_; }
    std::uint64_t instructions() const { return instrs_; }
    std::uint64_t refsIssued() const { return refsIssued_; }
    const CoreStream &stream() const { return *stream_; }

  private:
    /** Fetch-path access for the current reference. */
    Tick issueFetch(Tick now, std::uint32_t instrCount);

    CoreId id_;
    Hierarchy &hier_;
    EventQueue &eq_;
    std::unique_ptr<CoreStream> stream_;
    std::uint64_t targetRefs_;
    std::uint32_t codeLines_;
    Prng fetchPrng_;
    std::function<void(CoreId)> onDone_;

    std::uint64_t refsIssued_ = 0;
    std::uint64_t instrs_ = 0;
    bool done_ = false;
    Tick doneTick_ = 0;
    MemRef pending_; ///< delayed reference awaiting its issue tick
};

} // namespace refrint

#endif // REFRINT_CORE_CORE_HH
