#include "core/core.hh"

namespace refrint
{

Core::Core(CoreId id, Hierarchy &hier, EventQueue &eq,
           std::unique_ptr<CoreStream> stream, std::uint64_t targetRefs,
           std::uint32_t codeLines, std::uint64_t seed,
           std::function<void(CoreId)> onDone)
    : id_(id),
      hier_(hier),
      eq_(eq),
      stream_(std::move(stream)),
      targetRefs_(targetRefs),
      codeLines_(codeLines == 0 ? 1 : codeLines),
      fetchPrng_(seed ^ 0x9e3779b97f4a7c15ULL, id * 2 + 1),
      onDone_(std::move(onDone))
{
}

void
Core::start(Tick now)
{
    // Small per-core skew so the cores do not march in lockstep.
    eq_.schedule(now + 1 + id_ * 3, this, 0);
}

Tick
Core::issueFetch(Tick now, std::uint32_t instrCount)
{
    // One IL1 probe models the fetch of this reference's instruction
    // block; energy is charged for all 4-instruction fetch groups the
    // gap implies (the probe line is drawn with a hot-loop skew).
    const std::uint32_t blocks = (instrCount + 3) / 4;
    const Addr codeAddr =
        kCodeBase +
        static_cast<Addr>(fetchPrng_.skewed(codeLines_, 3.0)) * 64;
    return hier_.access(id_, codeAddr, AccessType::Fetch, now,
                        blocks == 0 ? 1 : blocks);
}

void
Core::fire(Tick now, std::uint64_t tag)
{
    // tag 1 = the issue tick of a reference stashed for its delay;
    // tag 0 = pull a fresh reference from the stream, and if it asks
    // for an idle period, stall until then rather than touching the
    // hierarchy at a future tick.
    MemRef ref;
    if (tag == 1) {
        ref = pending_;
    } else {
        ref = stream_->next(now);
        if (ref.delay > 0) {
            pending_ = ref;
            eq_.schedule(now + ref.delay, this, 1);
            return;
        }
    }
    const std::uint32_t instrCount = ref.gap + 1;

    const Tick tFetch = issueFetch(now, instrCount);
    const Tick tData = hier_.access(
        id_, ref.addr, ref.write ? AccessType::Store : AccessType::Load,
        now);
    const Tick completion = std::max(tFetch, tData);

    instrs_ += instrCount;

    ++refsIssued_;
    if (refsIssued_ >= targetRefs_) {
        done_ = true;
        doneTick_ = completion;
        if (onDone_)
            onDone_(id_);
        return;
    }
    eq_.schedule(completion + ref.gap, this, 0);
}

} // namespace refrint
