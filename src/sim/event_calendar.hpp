/**
 * @file
 * Calendar-queue implementation of the event core: O(1) amortized
 * schedule/dispatch for large pending populations.
 *
 * A Brown-style calendar queue divides the near future — one "year" —
 * into nbuckets fixed-width "days". An event lands in the bucket of its
 * day (`(when >> widthShift) & (nbuckets - 1)`, so day width is a power
 * of two and the year covers `nbuckets << widthShift` ticks); each
 * bucket is a singly-linked list kept in strict (when, seq) order with
 * a tail pointer so the common monotone/same-tick append is O(1).
 * Dispatch scans forward from now's day to the first non-empty bucket
 * and pops its head, which is the global minimum because the year maps
 * injectively onto the bucket ring.
 *
 * Where a textbook calendar queue stores far-future events in their
 * modulo bucket (degrading scans under timestamp skew), this one spills
 * them to an overflow list, ladder-queue style: events at or beyond the
 * year horizon wait unsorted in overflow, and when the calendar drains
 * the queue re-anchors a fresh year at the earliest overflow event and
 * redistributes whatever fits. Bucket width self-tunes from the
 * observed inter-dispatch gap, and the bucket count resizes on
 * population doubling/halving — both rebuilds are deterministic
 * functions of queue state, so replays stay bit-identical. The ring
 * never shrinks below its floor: kMinBuckets, or the size reserve()
 * asked for. A queue that drains to empty between sparse arrivals (a
 * cluster array's) would otherwise walk its ring down by halvings on
 * every drain and back up on every refill.
 *
 * Nodes are recycled through an internal slab free list (per queue, not
 * thread-local: each simulation owns its queue outright), so steady
 * state performs zero heap allocations — the alloc-guard test covers
 * this implementation too. The EventQueue facade owns the clock,
 * sequence numbering, and the (when, seq) dispatch audits; this class
 * only stores and orders entries.
 *
 * DECLUST_PERF_COUNTERS instrumentation: `event_queue_spills` (pushes
 * that landed in overflow), `event_queue_resizes` (every bucket-count
 * change after the ring is first sized), `event_queue_rebuilds` (all
 * redistributions, including year re-anchors), plus histograms
 * `event_bucket_scan_steps` (buckets scanned per dispatch) and
 * `event_bucket_occupancy` (list lengths sampled at every rebuild).
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_entry.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/validate.hpp"

namespace declust {

/** Calendar queue of EventEntry in strict (when, seq) order. */
class CalendarEventQueue
{
  public:
    CalendarEventQueue() = default;
    CalendarEventQueue(const CalendarEventQueue &) = delete;
    CalendarEventQueue &operator=(const CalendarEventQueue &) = delete;

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /**
     * Insert @p entry. @p now is the facade clock (every pending event
     * satisfies when >= now), used to anchor lazy initialization and
     * resize rebuilds.
     */
    void push(Tick now, EventEntry entry);

    /** Remove and return the (when, seq)-minimum entry. Requires
     * !empty(). */
    EventEntry popTop(Tick now);

    /**
     * Earliest pending tick. Requires !empty(). May re-anchor the
     * calendar (a mutation), but never changes the pending set.
     */
    Tick topWhen(Tick now);

    /**
     * Pre-size for @p expected pending events: carve enough slab nodes
     * and size the bucket ring so a run that stays at or below this
     * population never allocates after bring-up. The ring size becomes
     * the ring's floor, which population shrinks never cross.
     */
    void reserve(std::size_t expected);

    /** @{ Introspection for tests and instrumentation. */
    std::size_t bucketCount() const { return nbuckets_; }
    int bucketWidthShift() const { return widthShift_; }
    std::size_t overflowSize() const { return overflowCount_; }
    std::size_t nodeCapacity() const { return totalNodes_; }
    /** @} */

  private:
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr;
        EventCallback cb;
    };

    /** Sorted day list with O(1) append at the tail. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    static constexpr std::size_t kMinBuckets = 16;
    static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
    /** First-guess day width before any dispatch gap is observed:
     * 2^10 ticks ~ 1 ms of simulated time. */
    static constexpr int kInitialWidthShift = 10;
    static constexpr int kMaxWidthShift = 40;
    static constexpr std::size_t kNodesPerSlab = 256;
    /** Dispatch-gap window; halved (exponential decay) when full. */
    static constexpr std::uint64_t kGapWindow = 4096;
    /**
     * Sorted-insert walk length that triggers a width-shrinking
     * rebuild: a walk this long means >= this many distinct ticks
     * share one day, so the day is far too wide (same-tick bursts
     * never walk — they take the O(1) tail-append path).
     */
    static constexpr std::size_t kWalkRebuildThreshold = 64;

    Tick
    yearTicks() const
    {
        return static_cast<Tick>(nbuckets_) << widthShift_;
    }

    /** First tick past the calendar's year (saturating). */
    Tick
    horizon() const
    {
        const Tick year = yearTicks();
        const Tick maxTick = ~Tick{0};
        return calendarStart_ > maxTick - year ? maxTick
                                               : calendarStart_ + year;
    }

    std::size_t
    bucketOf(Tick when) const
    {
        return static_cast<std::size_t>(when >> widthShift_) &
               (nbuckets_ - 1);
    }

    static Tick
    alignDown(Tick when, int shift)
    {
        return (when >> shift) << shift;
    }

    Node *allocNode();
    void freeNode(Node *node);
    void growPool();
    void ensureInit(Tick anchor);
    /** Link @p node into its day bucket or the overflow list. Requires
     * node->when >= calendarStart_. Does not touch count_.
     * @return true if the node spilled to overflow. */
    bool link(Node *node);
    /** Locate (and cache) the minimum node; re-anchors from overflow if
     * the calendar proper is empty. Requires !empty(). */
    Node *findMin(Tick now);
    /**
     * Redistribute every pending node into a ring of @p newBuckets
     * buckets of width 2^@p newShift anchored at @p anchor (which must
     * be <= every pending tick).
     */
    void rebuild(Tick anchor, std::size_t newBuckets, int newShift);
    void maybeGrow(Tick now);
    void maybeShrink(Tick now);
    /**
     * Rebuild with the tuned day width when the estimate has drifted
     * >= 2 shifts from the live width. Population resizes retune as a
     * side effect, but a steady-state population never resizes — this
     * is what keeps bucket lists short when the dispatch rate settles
     * somewhere the initial width guess did not anticipate.
     */
    void maybeRetune(Tick now);
    /** Day width from the decayed mean inter-dispatch gap. */
    int tunedWidthShift() const;
    /** Gap-tuned width, capped by the insert-walk ceiling. */
    int
    targetWidthShift() const
    {
        const int tuned = tunedWidthShift();
        return tuned < walkShiftCeiling_ ? tuned : walkShiftCeiling_;
    }
    void auditStructure() const;

    std::vector<Bucket> buckets_;  // logical size nbuckets_
    std::size_t nbuckets_ = 0;     // 0 until first push; power of two
    int widthShift_ = kInitialWidthShift;
    Tick calendarStart_ = 0;       // aligned to the day width
    Node *overflow_ = nullptr;     // unsorted; all >= horizon()
    std::size_t calCount_ = 0;
    std::size_t overflowCount_ = 0;
    std::size_t count_ = 0;

    // Node slab pool (per queue: simulations are thread-confined).
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *freeNodes_ = nullptr;
    std::size_t totalNodes_ = 0;

    // One-entry min cache: findMin's scan, reused by the peek-then-pop
    // pattern in runUntil. Invalidated by any mutation.
    Node *cachedMin_ = nullptr;
    std::size_t cachedMinBucket_ = 0;

    // Inter-dispatch gap statistics driving the width self-tuning.
    Tick lastPopWhen_ = 0;
    bool poppedAny_ = false;
    std::uint64_t gapSum_ = 0;
    std::uint64_t gapCount_ = 0;

    /**
     * Width ceiling learned from overlong insert walks (the fill-phase
     * signal, available before any dispatch gap exists). Walk-triggered
     * rebuilds lower it so the gap-based retuner cannot immediately
     * widen the days back (no rebuild ping-pong); it relaxes by one
     * shift per gap window so a stale constraint eventually expires.
     */
    int walkShiftCeiling_ = kMaxWidthShift;
    /** Steps the most recent sorted bucket insert walked. */
    std::size_t lastLinkWalk_ = 0;

    /** Smallest ring maybeShrink() leaves: kMinBuckets, raised by
     * reserve(). */
    std::size_t floorBuckets_ = kMinBuckets;
};

} // namespace declust
