#include "sim/event_queue.hh"

namespace refrint
{

void
EventQueue::rewind(const Key &k, const Val &v)
{
    // The window only ever slid past now_ over cancelled entries (any
    // live one would have fired and moved now_), so every bucketed
    // entry still pending lies ahead of k; the consumed prefix of the
    // current bucket is dead and melts here.
    for (auto &b : wheel_) {
        for (const Entry &e : b) {
            if (!dead(e.key))
                push(e.key, e.val);
        }
        b.clear();
    }
    occ_ = 0;
    pos_ = 0;
    base_ = now_;
    admit(k, v); // k.when >= now_ == base_: wheel or heap, never here
}

bool
EventQueue::prepareNext(Tick limit)
{
    // Retire the exhausted current bucket (every entry consumed).
    bucketOf(base_).clear();
    occ_ &= ~(1ull << (base_ & kWheelMask));
    pos_ = 0;

    // Melt cancelled heap tops so hNext names a live entry.
    while (!keys_.empty() && dead(keys_.front()))
        popTop();

    const Tick wNext = nextWheelTick();
    const Tick hNext = keys_.empty() ? kTickNever : keys_.front().when;
    const Tick cand = wNext < hNext ? wNext : hNext;
    if (cand == kTickNever || cand > limit)
        return false; // base_ stays: the window has not moved
    base_ = cand;

    // Slide the window over the heap: entries now inside it become
    // bucket entries, in (when, seq) pop order.
    while (!keys_.empty() && keys_.front().when <= base_ + kWheelMask) {
        const Key k = keys_.front();
        const Val v = vals_.front();
        popTop();
        if (!dead(k))
            bucketInsert(k, v);
    }
    return true;
}

} // namespace refrint
