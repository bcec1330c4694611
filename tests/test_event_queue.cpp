/**
 * @file
 * Lockstep equivalence tests for the two event-queue implementations.
 *
 * The determinism contract says the pending set is an implementation
 * detail: whatever backs EventQueue — the 4-ary heap or the calendar
 * queue — the dispatch stream must be the exact same (when, seq)
 * sequence, so every golden table is byte-identical under either
 * --event-queue value. These tests drive both implementations through
 * identical randomized schedules (same-tick bursts, tombstone cancels,
 * far-future events that spill the calendar's overflow ladder,
 * interleaved pops and horizon runs) and assert the streams never
 * diverge, plus cover the calendar's own machinery: bucket resizing,
 * overflow re-anchoring, the insert-behind-the-year rebuild, and
 * reserve() pre-sizing and the ring floor it sets.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_calendar.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace declust {
namespace {

/** One dispatched event as observed by the recording callbacks. */
struct Dispatch
{
    Tick when = 0;
    int id = 0;
    bool cancelled = false;

    bool
    operator==(const Dispatch &other) const
    {
        return when == other.when && id == other.id &&
               cancelled == other.cancelled;
    }
};

/**
 * A pre-generated operation script, applied identically to each
 * implementation. Generating the script once (rather than drawing from
 * the Rng while driving each queue) guarantees both queues see the very
 * same operations even though the test itself is randomized.
 */
struct Op
{
    enum Kind
    {
        Schedule, ///< schedule `count` events, delays[] ticks from now
        Pop,      ///< step() up to `count` times
        RunUntil, ///< runUntil(now + horizon)
        Cancel,   ///< tombstone event id `target` (if still pending)
    };
    Kind kind = Schedule;
    int count = 0;
    Tick horizon = 0;
    int target = 0;
    std::vector<Tick> delays;
};

std::vector<Op>
makeScript(std::uint64_t seed, int rounds)
{
    Rng rng(seed);
    std::vector<Op> script;
    int scheduled = 0;
    for (int r = 0; r < rounds; ++r) {
        const double pick = rng.uniform();
        Op op;
        if (pick < 0.45) {
            op.kind = Op::Schedule;
            op.count = 1 + static_cast<int>(rng.uniformInt(24));
            for (int i = 0; i < op.count; ++i) {
                const double kind = rng.uniform();
                Tick delay;
                if (kind < 0.25) {
                    delay = 0; // same-tick tie: FIFO order must hold
                } else if (kind < 0.55) {
                    delay = rng.uniformInt(64);
                } else if (kind < 0.90) {
                    delay = static_cast<Tick>(rng.exponential(5000.0));
                } else {
                    // Far past any sane calendar year: lands in the
                    // overflow ladder and forces a re-anchor later.
                    delay = (Tick{1} << 44) + rng.uniformInt(1u << 20);
                }
                op.delays.push_back(delay);
            }
            scheduled += op.count;
        } else if (pick < 0.70) {
            op.kind = Op::Pop;
            op.count = 1 + static_cast<int>(rng.uniformInt(16));
        } else if (pick < 0.90) {
            op.kind = Op::RunUntil;
            op.horizon = rng.uniformInt(20000);
        } else {
            op.kind = Op::Cancel;
            op.target = scheduled > 0
                            ? static_cast<int>(rng.uniformInt(
                                  static_cast<std::uint64_t>(scheduled)))
                            : 0;
        }
        script.push_back(std::move(op));
    }
    return script;
}

/**
 * Run @p script against a queue of the given implementation and return
 * the dispatch stream. Cancellation is the tombstone pattern the
 * simulator itself uses (a flag the callback checks): the event still
 * dispatches in (when, seq) order, it just records itself cancelled —
 * so cancels exercise ordering rather than removal.
 */
std::vector<Dispatch>
runScript(EventQueue::Impl impl, const std::vector<Op> &script)
{
    EventQueue eq(impl);
    std::vector<Dispatch> stream;
    std::vector<bool> cancelled;
    int nextId = 0;

    auto schedule = [&](Tick delay) {
        const int id = nextId++;
        cancelled.push_back(false);
        eq.scheduleIn(delay, [&, id] {
            stream.push_back(Dispatch{eq.now(), id, cancelled[id]});
        });
    };

    for (const Op &op : script) {
        switch (op.kind) {
        case Op::Schedule:
            for (Tick delay : op.delays)
                schedule(delay);
            break;
        case Op::Pop:
            for (int i = 0; i < op.count && !eq.empty(); ++i)
                eq.step();
            break;
        case Op::RunUntil:
            eq.runUntil(eq.now() + op.horizon);
            break;
        case Op::Cancel:
            if (op.target < static_cast<int>(cancelled.size()))
                cancelled[static_cast<std::size_t>(op.target)] = true;
            break;
        }
    }
    eq.runToCompletion();
    return stream;
}

/** (when, id, cancelled) streams must be identical across impls. */
void
expectLockstep(std::uint64_t seed, int rounds)
{
    const std::vector<Op> script = makeScript(seed, rounds);
    const std::vector<Dispatch> heap =
        runScript(EventQueue::Impl::Heap, script);
    const std::vector<Dispatch> calendar =
        runScript(EventQueue::Impl::Calendar, script);

    ASSERT_EQ(heap.size(), calendar.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.size(); ++i) {
        ASSERT_TRUE(heap[i] == calendar[i])
            << "seed " << seed << ": streams diverge at dispatch " << i
            << ": heap (" << heap[i].when << ", " << heap[i].id
            << ") vs calendar (" << calendar[i].when << ", "
            << calendar[i].id << ")";
    }
    // The stream itself must be non-decreasing in time (FIFO ties are
    // checked implicitly: ids scheduled for the same tick appear in
    // schedule order because both impls agreed with the heap, and the
    // heap is pinned by EventQueue.HeapOrderMatchesReferenceUnderStress).
    for (std::size_t i = 1; i < heap.size(); ++i)
        ASSERT_GE(heap[i].when, heap[i - 1].when);
}

TEST(EventQueueLockstep, RandomizedInterleavingsAgreeAcrossImpls)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectLockstep(0xec0de000 + seed, 400);
}

TEST(EventQueueLockstep, LongRunWithLargePopulationAgrees)
{
    expectLockstep(0xb16badu, 2500);
}

TEST(EventQueueLockstep, EventsSchedulingEventsAgreeAcrossImpls)
{
    // Self-scheduling callbacks (the simulator's normal mode: an event's
    // continuation schedules the next hop) — compare full streams.
    auto run = [](EventQueue::Impl impl) {
        EventQueue eq(impl);
        Rng rng(0x5eed);
        std::vector<std::pair<Tick, int>> stream;
        int nextId = 0;
        // Fixed-depth chains so both runs make identical Rng draws.
        std::function<void(int)> chain = [&](int depth) {
            const int id = nextId++;
            const Tick delay = rng.uniformInt(128);
            eq.scheduleIn(delay, [&, id, depth] {
                stream.emplace_back(eq.now(), id);
                if (depth > 0)
                    chain(depth - 1);
            });
        };
        for (int i = 0; i < 200; ++i)
            chain(static_cast<int>(rng.uniformInt(6)));
        eq.runToCompletion();
        return stream;
    };
    EXPECT_EQ(run(EventQueue::Impl::Heap),
              run(EventQueue::Impl::Calendar));
}

TEST(EventQueueLockstep, RunUntilParityAcrossImpls)
{
    // Clock advancement semantics (idle time passing, horizon-inclusive
    // dispatch) must match, not just dispatch order.
    auto run = [](EventQueue::Impl impl) {
        EventQueue eq(impl);
        std::vector<Tick> clocks;
        std::uint64_t ran = 0;
        for (Tick t : {Tick{10}, Tick{20}, Tick{20}, Tick{35}, Tick{900}})
            eq.scheduleAt(t, [&ran] { ++ran; });
        for (Tick horizon : {Tick{5}, Tick{20}, Tick{50}, Tick{100}}) {
            eq.runUntil(horizon);
            clocks.push_back(eq.now());
        }
        eq.runToCompletion();
        clocks.push_back(eq.now());
        clocks.push_back(static_cast<Tick>(ran));
        clocks.push_back(static_cast<Tick>(eq.executed()));
        return clocks;
    };
    EXPECT_EQ(run(EventQueue::Impl::Heap),
              run(EventQueue::Impl::Calendar));
}

// ---------------------------------------------------------------------
// Calendar-specific machinery, driven through the raw implementation so
// bucket counts, overflow sizes, and node capacities can be asserted.

EventEntry
entryAt(Tick when, std::uint64_t seq)
{
    EventEntry e;
    e.when = when;
    e.seq = seq;
    return e;
}

TEST(CalendarQueue, ResizesOnPopulationDoublingAndDrainsInOrder)
{
    CalendarEventQueue q;
    Rng rng(0xca1);
    std::vector<std::pair<Tick, std::uint64_t>> expected;
    for (std::uint64_t seq = 0; seq < 10000; ++seq) {
        const Tick when = rng.uniformInt(1u << 20);
        expected.emplace_back(when, seq);
        q.push(0, entryAt(when, seq));
    }
    // 10k events against 16 initial buckets: the ring must have grown.
    EXPECT_GT(q.bucketCount(), std::size_t{16});

    std::stable_sort(expected.begin(), expected.end());
    Tick now = 0;
    for (const auto &[when, seq] : expected) {
        const EventEntry top = q.popTop(now);
        ASSERT_EQ(top.when, when);
        ASSERT_EQ(top.seq, seq);
        now = top.when;
    }
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, FarFutureEventsSpillToOverflowAndReanchor)
{
    CalendarEventQueue q;
    const Tick far = Tick{1} << 50;
    q.push(0, entryAt(5, 0));
    q.push(0, entryAt(far + 7, 1));
    q.push(0, entryAt(far + 7, 2)); // same-tick tie in overflow
    q.push(0, entryAt(far, 3));
    EXPECT_EQ(q.overflowSize(), std::size_t{3});

    EXPECT_EQ(q.popTop(0).seq, 0u);
    // Calendar proper is now empty: the next pop re-anchors the year at
    // the overflow minimum and must still honor (when, seq).
    EXPECT_EQ(q.popTop(5).seq, 3u);
    EXPECT_EQ(q.popTop(far).seq, 1u);
    EXPECT_EQ(q.popTop(far + 7).seq, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, InsertBehindReanchoredYearRebuilds)
{
    // Re-anchor the year far ahead of the clock, then schedule an event
    // between the clock and the calendar start: the queue must rebuild
    // behind itself rather than alias the event into a wrong bucket.
    EventQueue eq(EventQueue::Impl::Calendar);
    std::vector<int> order;
    eq.scheduleAt(100, [&] { order.push_back(0); });
    const Tick far = Tick{1} << 50;
    eq.scheduleAt(far, [&] { order.push_back(1); });

    eq.runUntil(200); // pops event 0; peeking re-anchors at `far`
    EXPECT_EQ(eq.now(), Tick{200});

    eq.scheduleAt(300, [&] { order.push_back(2); }); // behind the year
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(eq.now(), far);
}

TEST(CalendarQueue, ReservePreSizesNodesAndBuckets)
{
    CalendarEventQueue q;
    q.reserve(1000);
    EXPECT_GE(q.nodeCapacity(), std::size_t{1000});
    // The ring is sized by reserve() itself, before any push.
    EXPECT_EQ(q.bucketCount(), std::size_t{512});
    q.push(0, entryAt(1, 0));
    EXPECT_EQ(q.bucketCount(), std::size_t{512});
    EXPECT_EQ(q.popTop(0).seq, 0u);
    // A later, larger reserve grows the ring in use to its new floor.
    q.push(1, entryAt(7, 1));
    q.reserve(4000);
    EXPECT_EQ(q.bucketCount(), std::size_t{2048});
    EXPECT_EQ(q.popTop(1).seq, 1u);
    EXPECT_EQ(q.bucketCount(), std::size_t{2048});
}

TEST(CalendarQueue, ReservedRingSurvivesEmptyRefillCycles)
{
    // A cluster array's queue: reserved at bring-up, then drained to
    // empty between sparse arrivals. The reserved ring is the floor, so
    // neither the drains (shrink) nor the refills (re-init) resize it.
    CalendarEventQueue q;
    q.reserve(464);
    ASSERT_EQ(q.bucketCount(), std::size_t{256});
    Rng rng(0x0f1);
    std::uint64_t seq = 0;
    Tick now = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const int events = 1 + static_cast<int>(rng.uniformInt(5));
        for (int i = 0; i < events; ++i) {
            const Tick when = now + 1 + rng.uniformInt(1u << 16);
            q.push(now, entryAt(when, seq++));
            ASSERT_EQ(q.bucketCount(), std::size_t{256})
                << "cycle " << cycle;
        }
        while (!q.empty()) {
            now = q.popTop(now).when;
            ASSERT_EQ(q.bucketCount(), std::size_t{256})
                << "cycle " << cycle;
        }
    }
}

TEST(CalendarQueue, GrownRingShrinksBackToReserveNotBelow)
{
    CalendarEventQueue q;
    q.reserve(464);
    Rng rng(0x5e7);
    std::uint64_t seq = 0;
    for (; seq < 3000; ++seq)
        q.push(0, entryAt(1 + rng.uniformInt(1u << 20), seq));
    // 3000 events past a 256-bucket reserve: grown to 2048.
    EXPECT_EQ(q.bucketCount(), std::size_t{2048});

    Tick now = 0;
    std::size_t smallest = q.bucketCount();
    while (!q.empty()) {
        now = q.popTop(now).when;
        smallest = std::min(smallest, q.bucketCount());
    }
    EXPECT_EQ(q.bucketCount(), std::size_t{256});
    EXPECT_EQ(smallest, std::size_t{256});

    // Refilled and drained again, the ring stays at the reserve.
    for (int i = 0; i < 4; ++i)
        q.push(now, entryAt(now + 10 + i, seq++));
    while (!q.empty()) {
        now = q.popTop(now).when;
        EXPECT_EQ(q.bucketCount(), std::size_t{256});
    }
}

TEST(CalendarQueue, SameTickBurstsStayFifoThroughResizes)
{
    // Monotone same-tick appends hit the O(1) tail path; interleave
    // bursts with enough population change to force resizes both ways.
    CalendarEventQueue q;
    std::uint64_t seq = 0;
    std::vector<std::pair<Tick, std::uint64_t>> expected;
    Tick now = 0;
    for (int round = 0; round < 6; ++round) {
        const Tick burstTick = now + 10;
        for (int i = 0; i < 600; ++i) {
            expected.emplace_back(burstTick, seq);
            q.push(now, entryAt(burstTick, seq++));
        }
        for (int i = 0; i < 300; ++i) {
            const EventEntry top = q.popTop(now);
            ASSERT_EQ(top.when, expected.front().first);
            ASSERT_EQ(top.seq, expected.front().second);
            expected.erase(expected.begin());
            now = top.when;
        }
    }
    while (!q.empty()) {
        const EventEntry top = q.popTop(now);
        ASSERT_EQ(top.seq, expected.front().second);
        expected.erase(expected.begin());
        now = top.when;
    }
    EXPECT_TRUE(expected.empty());
}

TEST(EventQueueFacade, ImplSelectionAndNames)
{
    EXPECT_STREQ(EventQueue::implName(EventQueue::Impl::Heap), "heap");
    EXPECT_STREQ(EventQueue::implName(EventQueue::Impl::Calendar),
                 "calendar");

    EventQueue::Impl impl = EventQueue::Impl::Heap;
    EXPECT_TRUE(EventQueue::parseImplName("calendar", &impl));
    EXPECT_EQ(impl, EventQueue::Impl::Calendar);
    EXPECT_TRUE(EventQueue::parseImplName("heap", &impl));
    EXPECT_EQ(impl, EventQueue::Impl::Heap);
    EXPECT_FALSE(EventQueue::parseImplName("splay", &impl));
    EXPECT_FALSE(EventQueue::parseImplName("", &impl));

    const EventQueue::Impl saved = EventQueue::defaultImpl();
    EventQueue::setDefaultImpl(EventQueue::Impl::Calendar);
    EXPECT_EQ(EventQueue().impl(), EventQueue::Impl::Calendar);
    EventQueue::setDefaultImpl(saved);
    EXPECT_EQ(EventQueue().impl(), saved);
}

} // namespace
} // namespace declust
