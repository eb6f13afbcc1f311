/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, tie-breaking,
 * client dispatch, run limits, cancellable handles, and randomized
 * differential tests against a reference stable-order model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/prng.hh"
#include "sim/event_queue.hh"
#include "test_util.hh"

namespace refrint::test
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    Callbacks cb(eq);
    std::vector<Tick> fired;
    cb.at(30, [&](Tick t) { fired.push_back(t); });
    cb.at(10, [&](Tick t) { fired.push_back(t); });
    cb.at(20, [&](Tick t) { fired.push_back(t); });
    eq.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 20u);
    EXPECT_EQ(fired[2], 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    Callbacks cb(eq);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        cb.at(5, [&order, i](Tick) { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesWithDispatch)
{
    EventQueue eq;
    Callbacks cb(eq);
    EXPECT_EQ(eq.now(), 0u);
    cb.at(42, [](Tick) {});
    eq.run();
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    Callbacks cb(eq);
    int count = 0;
    std::function<void(Tick)> chain = [&](Tick t) {
        if (++count < 5)
            cb.at(t + 10, chain);
    };
    cb.at(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    Callbacks cb(eq);
    int fired = 0;
    cb.at(10, [&](Tick) { ++fired; });
    cb.at(20, [&](Tick) { ++fired; });
    cb.at(30, [&](Tick) { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2); // the tick-20 event still fires
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 3);
}

namespace
{
struct TagRecorder : EventClient
{
    std::vector<std::pair<Tick, std::uint64_t>> seen;
    void
    fire(Tick now, std::uint64_t tag) override
    {
        seen.emplace_back(now, tag);
    }
};
} // namespace

TEST(EventQueue, ClientDispatchCarriesTags)
{
    EventQueue eq;
    TagRecorder rec;
    eq.schedule(5, &rec, 111);
    eq.schedule(7, &rec, 222);
    eq.run();
    ASSERT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.seen[0], (std::pair<Tick, std::uint64_t>{5, 111}));
    EXPECT_EQ(rec.seen[1], (std::pair<Tick, std::uint64_t>{7, 222}));
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    Callbacks cb(eq);
    EXPECT_FALSE(eq.step());
    cb.at(1, [](Tick) {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, StepStopsAtItsLimit)
{
    // step(limit) is the one dispatch loop: run(limit) only repeats it.
    EventQueue eq;
    TagRecorder rec;
    eq.schedule(10, &rec, 1);
    eq.schedule(300, &rec, 2); // beyond the wheel window: heap
    EXPECT_FALSE(eq.step(9));
    EXPECT_TRUE(eq.step(10));
    EXPECT_FALSE(eq.step(299));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.step(300));
    EXPECT_FALSE(eq.step());
    ASSERT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.seen[1], (std::pair<Tick, std::uint64_t>{300, 2}));
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    TagRecorder rec;
    eq.schedule(100, &rec);
    eq.run();
    EXPECT_DEATH(eq.schedule(50, &rec), "past");
}

// ---------------------------------------------------------------------
// 4-ary heap ordering under load
// ---------------------------------------------------------------------

TEST(EventQueue, SameTickFifoAcrossManyEventsAndKinds)
{
    // Hundreds of same-tick events from two clients, mixing plain and
    // cancellable ones: dispatch must stay in scheduling order across
    // clients and cancellation slots.
    EventQueue eq;
    Callbacks cb(eq);
    std::vector<int> order;
    struct Rec : EventClient
    {
        std::vector<int> *order;
        void
        fire(Tick, std::uint64_t tag) override
        {
            order->push_back(static_cast<int>(tag));
        }
    };
    Rec rec;
    rec.order = &order;
    for (int i = 0; i < 300; ++i) {
        switch (i % 3) {
          case 0:
            cb.at(7, [&order, i](Tick) { order.push_back(i); });
            break;
          case 1:
            eq.schedule(7, &rec, static_cast<std::uint64_t>(i));
            break;
          default:
            eq.scheduleCancellable(7, &rec,
                                   static_cast<std::uint64_t>(i));
            break;
        }
    }
    eq.run();
    ASSERT_EQ(order.size(), 300u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FarFutureEventsInterleaveCorrectly)
{
    // Events far beyond the wheel window must still dispatch in
    // global (tick, seq) order with wheel events scheduled later.
    EventQueue eq;
    Callbacks cb(eq);
    std::vector<Tick> fired;
    auto rec = [&](Tick t) { fired.push_back(t); };
    cb.at(1'000'000, rec); // heap
    cb.at(500'000, rec);   // heap
    cb.at(3, rec);         // wheel
    cb.at(0, [&](Tick t) {
        fired.push_back(t);
        // Scheduled mid-run: lands between the two far events.
        cb.at(750'000, rec);
    });
    eq.run();
    ASSERT_EQ(fired.size(), 5u);
    EXPECT_EQ(fired, (std::vector<Tick>{0, 3, 500'000, 750'000,
                                        1'000'000}));
}

// ---------------------------------------------------------------------
// Cancellable handles
// ---------------------------------------------------------------------

namespace
{
struct CountingClient : EventClient
{
    int fired = 0;
    void fire(Tick, std::uint64_t) override { ++fired; }
};
} // namespace

TEST(EventQueue, CancelledHandleNeverFires)
{
    EventQueue eq;
    CountingClient c;
    EventHandle h = eq.scheduleCancellable(10, &c, 0);
    eq.schedule(20, &c, 0);
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_TRUE(eq.cancel(h));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(c.fired, 1); // only the un-cancelled event
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, CancelIsSingleShotAndSpentAfterFire)
{
    EventQueue eq;
    CountingClient c;
    EventHandle h = eq.scheduleCancellable(5, &c, 0);
    EXPECT_TRUE(eq.cancel(h));
    EXPECT_FALSE(eq.cancel(h)) << "second cancel must be a no-op";

    EventHandle h2 = eq.scheduleCancellable(6, &c, 0);
    eq.run();
    EXPECT_EQ(c.fired, 1);
    EXPECT_FALSE(eq.cancel(h2)) << "handle is spent once fired";

    EXPECT_FALSE(eq.cancel(EventHandle{})) << "inert default handle";
}

TEST(EventQueue, CancelledSlotReuseCannotAliasNewEvent)
{
    // Cancel an event, schedule a replacement (which recycles the
    // slot), and make sure the stale handle cannot kill the new event.
    EventQueue eq;
    CountingClient c;
    EventHandle stale = eq.scheduleCancellable(10, &c, 0);
    EXPECT_TRUE(eq.cancel(stale));
    EventHandle fresh = eq.scheduleCancellable(10, &c, 0);
    EXPECT_FALSE(eq.cancel(stale));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(c.fired, 1);
    EXPECT_FALSE(eq.cancel(fresh));
}

TEST(EventQueue, CancelDeepInTheHeap)
{
    // Heap entries are lazily deleted too: cancel an event far beyond
    // the wheel window and drain past its tick.
    EventQueue eq;
    CountingClient c;
    EventHandle far = eq.scheduleCancellable(900'000, &c, 0);
    eq.schedule(950'000, &c, 0);
    EXPECT_TRUE(eq.cancel(far));
    eq.run();
    EXPECT_EQ(c.fired, 1);
    EXPECT_EQ(eq.now(), 950'000u);
}

TEST(EventQueue, RunLimitBoundaryWithCancellations)
{
    EventQueue eq;
    CountingClient c;
    eq.schedule(10, &c, 0);
    EventHandle atLimit = eq.scheduleCancellable(20, &c, 0);
    eq.schedule(20, &c, 0);
    eq.schedule(21, &c, 0);
    EXPECT_TRUE(eq.cancel(atLimit));
    eq.run(20);
    EXPECT_EQ(c.fired, 2) << "tick-20 survivor fires, tick-21 waits";
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(c.fired, 3);
}

TEST(EventQueue, ScheduleBehindASlidWindowStillFiresFirst)
{
    // A bounded run slides the window over a bucket whose only entry
    // was cancelled, leaving it ahead of now().  A later, lower limit
    // still holds, and work scheduled behind the window fires before
    // the entry already sitting in the window's current bucket.
    EventQueue eq;
    TagRecorder rec;
    eq.cancel(eq.scheduleCancellable(10, &rec, 0));
    eq.run(20);
    EXPECT_EQ(eq.now(), 0u);
    eq.schedule(10, &rec, 1); // at the slid window's base
    EXPECT_EQ(eq.run(7), 0u) << "a limit below the slid base holds";
    EXPECT_TRUE(rec.seen.empty());
    eq.schedule(5, &rec, 2); // behind it
    eq.run();
    EXPECT_EQ(rec.seen, (std::vector<std::pair<Tick, std::uint64_t>>{
                            {5, 2}, {10, 1}}));
}

TEST(EventQueue, SameTickFifoHoldsAfterARewind)
{
    // The rewind restarts the window at now().  An entry scheduled at
    // now() itself must then sit in the current bucket, ahead of a
    // later same-tick schedule, not wait in the heap behind it.
    EventQueue eq;
    TagRecorder rec;
    eq.cancel(eq.scheduleCancellable(10, &rec, 0));
    eq.run(20);
    eq.schedule(0, &rec, 1); // behind the slid window: rewinds
    eq.schedule(0, &rec, 2);
    eq.run();
    EXPECT_EQ(rec.seen, (std::vector<std::pair<Tick, std::uint64_t>>{
                            {0, 1}, {0, 2}}));
}

// ---------------------------------------------------------------------
// Randomized differential test: kernel order vs reference model
// ---------------------------------------------------------------------

TEST(EventQueue, DifferentialOrderAgainstReferenceModel)
{
    // A reference model of the kernel contract: dispatch strictly by
    // (tick, schedule order), cancelled entries silently gone.  Random
    // schedules span the near/far split and random cancellations hit
    // fired, pending and already-cancelled events.
    struct RefEvent
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };

    Prng prng(1234, 7);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<RefEvent> ref;
        std::vector<int> expect, got;
        std::vector<EventHandle> handles;
        std::vector<int> handleIds;
        std::uint64_t seq = 0;
        int nextId = 0;

        struct Rec : EventClient
        {
            std::vector<int> *got;
            void
            fire(Tick, std::uint64_t tag) override
            {
                got->push_back(static_cast<int>(tag));
            }
        };
        Rec rec;
        rec.got = &got;

        const int ops = 400;
        for (int i = 0; i < ops; ++i) {
            const std::uint32_t dice = prng.below(10);
            if (dice < 7 || handles.empty()) {
                // Schedule at a random tick spanning both bands.
                const Tick when = prng.below(2) == 0
                                      ? prng.below(1'000)
                                      : prng.below(2'000'000);
                const int id = nextId++;
                if (prng.below(2) == 0) {
                    eq.schedule(when, &rec,
                                static_cast<std::uint64_t>(id));
                    ref.push_back(RefEvent{when, seq++, id});
                } else {
                    handles.push_back(eq.scheduleCancellable(
                        when, &rec, static_cast<std::uint64_t>(id)));
                    handleIds.push_back(id);
                    ref.push_back(RefEvent{when, seq++, id});
                }
            } else {
                // Cancel a random handle (possibly already spent).
                const std::uint32_t pick =
                    prng.below(static_cast<std::uint32_t>(
                        handles.size()));
                if (eq.cancel(handles[pick])) {
                    const int id = handleIds[pick];
                    ref.erase(std::find_if(ref.begin(), ref.end(),
                                           [&](const RefEvent &e) {
                                               return e.id == id;
                                           }));
                }
                handles.erase(handles.begin() + pick);
                handleIds.erase(handleIds.begin() + pick);
            }
        }

        std::stable_sort(ref.begin(), ref.end(),
                         [](const RefEvent &a, const RefEvent &b) {
                             return a.when != b.when ? a.when < b.when
                                                     : a.seq < b.seq;
                         });
        for (const RefEvent &e : ref)
            expect.push_back(e.id);

        eq.run();
        EXPECT_EQ(got, expect) << "round " << round;
        EXPECT_TRUE(eq.empty());
    }
}

TEST(EventQueue, DifferentialInterleavedOpsAgainstReferenceModel)
{
    // The same reference contract, but with the operations interleaved
    // the way a simulation issues them: bounded run(limit) calls,
    // schedules made from inside fire() at wheel and heap distances,
    // and cancels of entries left pending across a window slide.  A
    // bounded run can leave the window ahead of now() (it slides over
    // buckets whose entries were all cancelled); a later schedule
    // behind it rewinds the window.
    struct Plan
    {
        int child = -1;       ///< event scheduled when this one fires
        Tick childDelta = 0;  ///< child's distance from the fire tick
        bool childCancellable = false;
    };
    struct Pending
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };

    Prng prng(4321, 9);
    auto distance = [&]() -> Tick {
        switch (prng.below(5)) {
          case 0:
            return prng.below(4); // same or adjacent tick
          case 1:
            return prng.below(64); // wheel window
          case 2:
            return 32 + prng.below(96); // straddles the window edge
          case 3:
            return 64 + prng.below(4'000); // heap
          default:
            return prng.below(200'000);
        }
    };

    for (int round = 0; round < 30; ++round) {
        EventQueue eq;
        std::vector<Plan> plans;
        std::vector<EventHandle> handles;
        std::vector<int> handleIds;
        std::vector<int> expect, got;

        // A chain of up to three events: each fire schedules the next.
        auto makeChain = [&]() {
            const int head = static_cast<int>(plans.size());
            plans.emplace_back();
            int at = head;
            while (plans.size() - head < 3 && prng.below(2) == 0) {
                const int child = static_cast<int>(plans.size());
                plans.emplace_back();
                plans[at].child = child;
                plans[at].childDelta = distance();
                plans[at].childCancellable = prng.below(2) == 0;
                at = child;
            }
            return head;
        };

        // Kernel side: fire records the id and schedules the child.
        struct ChainClient : EventClient
        {
            EventQueue *eq;
            const std::vector<Plan> *plans;
            std::vector<int> *got;
            std::vector<EventHandle> *handles;
            std::vector<int> *handleIds;
            void
            fire(Tick now, std::uint64_t tag) override
            {
                got->push_back(static_cast<int>(tag));
                const Plan &p = (*plans)[tag];
                if (p.child < 0)
                    return;
                const Tick when = now + p.childDelta;
                const auto child = static_cast<std::uint64_t>(p.child);
                if (p.childCancellable) {
                    handles->push_back(
                        eq->scheduleCancellable(when, this, child));
                    handleIds->push_back(p.child);
                } else {
                    eq->schedule(when, this, child);
                }
            }
        };
        ChainClient drv;
        drv.eq = &eq;
        drv.plans = &plans;
        drv.got = &got;
        drv.handles = &handles;
        drv.handleIds = &handleIds;

        // Reference side: an unsorted pending list drained by
        // (when, seq), scheduling children in the same order.
        std::vector<Pending> pend;
        std::uint64_t seq = 0;
        Tick refNow = 0;
        auto refAdvance = [&](Tick limit) {
            for (;;) {
                auto best = pend.end();
                for (auto it = pend.begin(); it != pend.end(); ++it) {
                    if (it->when <= limit &&
                        (best == pend.end() || it->when < best->when ||
                         (it->when == best->when && it->seq < best->seq)))
                        best = it;
                }
                if (best == pend.end())
                    return;
                const Pending e = *best;
                pend.erase(best);
                refNow = e.when;
                expect.push_back(e.id);
                const Plan &p = plans[e.id];
                if (p.child >= 0)
                    pend.push_back(
                        Pending{e.when + p.childDelta, seq++, p.child});
            }
        };
        auto refPending = [&](int id) {
            return std::find_if(pend.begin(), pend.end(),
                                [&](const Pending &e) {
                                    return e.id == id;
                                });
        };

        for (int i = 0; i < 300; ++i) {
            const std::uint32_t dice = prng.below(11);
            if (dice == 10) {
                // A dead bucket inside the window: a bounded run that
                // reaches it slides the window past now(), so a later
                // schedule behind it rewinds.
                eq.cancel(eq.scheduleCancellable(
                    refNow + 1 + prng.below(63), &drv, 0));
            } else if (dice < 5) {
                // One to three chains sharing a tick, so same-tick
                // order is checked right after a rewind too.
                const Tick when = refNow + distance();
                for (std::uint32_t n = 1 + prng.below(3); n > 0; --n) {
                    const int id = makeChain();
                    const auto tag = static_cast<std::uint64_t>(id);
                    if (prng.below(2) == 0) {
                        handles.push_back(
                            eq.scheduleCancellable(when, &drv, tag));
                        handleIds.push_back(id);
                    } else {
                        eq.schedule(when, &drv, tag);
                    }
                    pend.push_back(Pending{when, seq++, id});
                }
            } else if (dice < 8 && !handles.empty()) {
                const std::uint32_t pick = prng.below(
                    static_cast<std::uint32_t>(handles.size()));
                const auto it = refPending(handleIds[pick]);
                const bool live = it != pend.end();
                ASSERT_EQ(eq.cancel(handles[pick]), live)
                    << "round " << round << " op " << i;
                if (live)
                    pend.erase(it);
                handles.erase(handles.begin() + pick);
                handleIds.erase(handleIds.begin() + pick);
            } else {
                const Tick limit = refNow + distance();
                refAdvance(limit);
                EXPECT_EQ(eq.run(limit), refNow);
                ASSERT_EQ(got, expect) << "round " << round << " op " << i;
                ASSERT_EQ(eq.size(), pend.size());
            }
        }
        refAdvance(kTickNever);
        eq.run();
        EXPECT_EQ(got, expect) << "round " << round;
        EXPECT_EQ(eq.now(), refNow);
        EXPECT_TRUE(eq.empty());
    }
}

} // namespace refrint::test
