#include "sim/event_calendar.hpp"

#include <utility>

#include "sim/event_entry.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/validate.hpp"

namespace declust {

namespace {

/** Strict (when, seq) order over raw node fields. */
inline bool
nodeBefore(Tick aWhen, std::uint64_t aSeq, Tick bWhen, std::uint64_t bSeq)
{
    if (aWhen != bWhen)
        return aWhen < bWhen;
    return aSeq < bSeq;
}

} // namespace

CalendarEventQueue::Node *
CalendarEventQueue::allocNode()
{
    if (!freeNodes_)
        growPool();
    Node *node = freeNodes_;
    freeNodes_ = node->next;
    return node;
}

void
CalendarEventQueue::freeNode(Node *node)
{
    node->next = freeNodes_;
    freeNodes_ = node;
}

void
CalendarEventQueue::growPool()
{
    // Warm-up growth path: nodes recycle through the free list, so this
    // runs O(1) times per run and steady state never allocates.
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-alloc,hot-path-growth: slab warm-up");
    slabs_.push_back(std::make_unique_for_overwrite<Node[]>(kNodesPerSlab));
    Node *base = slabs_.back().get();
    // Thread the slab onto the free list back-to-front so nodes are
    // handed out in address order.
    for (std::size_t i = kNodesPerSlab; i-- > 0;) {
        base[i].next = freeNodes_;
        freeNodes_ = &base[i];
    }
    totalNodes_ += kNodesPerSlab;
}

void
CalendarEventQueue::ensureInit(Tick anchor)
{
    if (count_ != 0)
        return; // live calendar: leave it anchored where it is
    if (nbuckets_ == 0) {
        // First use of a queue nobody reserve()d: the ring starts at its
        // floor. After this, only counted resizes change its size.
        nbuckets_ = floorBuckets_;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: one-time ring allocation on a queue's first "
            "push; reserve() makes it at bring-up instead");
        buckets_.assign(nbuckets_, Bucket{});
    }
    widthShift_ = targetWidthShift();
    calendarStart_ = alignDown(anchor, widthShift_);
}

bool
CalendarEventQueue::link(Node *node)
{
    lastLinkWalk_ = 0;
    if (node->when >= horizon()) {
        // Ladder-style spill: beyond this year's horizon, wait unsorted.
        node->next = overflow_;
        overflow_ = node;
        ++overflowCount_;
        return true;
    }
    Bucket &bucket = buckets_[bucketOf(node->when)];
    ++calCount_;
    if (!bucket.head) {
        node->next = nullptr;
        bucket.head = bucket.tail = node;
        return false;
    }
    if (!nodeBefore(node->when, node->seq, bucket.tail->when,
                    bucket.tail->seq)) {
        // Monotone appends (incl. same-tick FIFO bursts) are O(1).
        node->next = nullptr;
        bucket.tail->next = node;
        bucket.tail = node;
        return false;
    }
    if (nodeBefore(node->when, node->seq, bucket.head->when,
                   bucket.head->seq)) {
        node->next = bucket.head;
        bucket.head = node;
        return false;
    }
    Node *prev = bucket.head;
    std::size_t walk = 0;
    while (prev->next && !nodeBefore(node->when, node->seq,
                                     prev->next->when, prev->next->seq)) {
        prev = prev->next;
        ++walk;
    }
    node->next = prev->next;
    prev->next = node;
    lastLinkWalk_ = walk;
    return false;
}

void
CalendarEventQueue::push(Tick now, EventEntry entry)
{
    ensureInit(now);
    maybeGrow(now);
    if (entry.when < calendarStart_) [[unlikely]] {
        // A year re-anchored at a far-future overflow event can start
        // ahead of now; an event scheduled into that gap would alias a
        // wrong day, so re-anchor the calendar back to its own day
        // (everything pending is later and simply redistributes).
        rebuild(entry.when, nbuckets_, widthShift_);
    }
    Node *node = allocNode();
    node->when = entry.when;
    node->seq = entry.seq;
    node->cb = std::move(entry.cb);
    if (link(node))
        DECLUST_PERF_INC(EventQueueSpills);
    ++count_;
    cachedMin_ = nullptr;
    if (lastLinkWalk_ >= kWalkRebuildThreshold && widthShift_ > 0)
        [[unlikely]] {
        // Fill-phase width correction: before any dispatch gap exists
        // (bring-up populates the whole pending set without a single
        // pop), an overlong sorted insert is the only signal that the
        // day width is wrong. Shrink 4x and remember the ceiling so the
        // gap-based retuner cannot widen straight back.
        walkShiftCeiling_ = widthShift_ >= 2 ? widthShift_ - 2 : 0;
        rebuild(now, nbuckets_, walkShiftCeiling_);
    }
}

CalendarEventQueue::Node *
CalendarEventQueue::findMin(Tick now)
{
    if (cachedMin_)
        return cachedMin_;
    if (calCount_ == 0) {
        // The year is spent and everything pending sits in overflow:
        // re-anchor a fresh year at the earliest overflow event.
        Tick minWhen = ~Tick{0};
        for (const Node *n = overflow_; n; n = n->next) {
            if (n->when < minWhen)
                minWhen = n->when;
        }
        rebuild(minWhen, nbuckets_, targetWidthShift());
    }
    const Tick from = now > calendarStart_ ? now : calendarStart_;
    std::size_t bucket = bucketOf(from);
    std::size_t steps = 0;
    while (!buckets_[bucket].head) {
        bucket = (bucket + 1) & (nbuckets_ - 1);
        ++steps;
        DECLUST_ASSERT(steps <= nbuckets_,
                       "calendar scan found no event in a non-empty "
                       "year (calCount ", calCount_, ")");
    }
    DECLUST_PERF_HIST(EventBucketScan, steps);
    cachedMin_ = buckets_[bucket].head;
    cachedMinBucket_ = bucket;
    return cachedMin_;
}

Tick
CalendarEventQueue::topWhen(Tick now)
{
    return findMin(now)->when;
}

EventEntry
CalendarEventQueue::popTop(Tick now)
{
    Node *node = findMin(now);
    Bucket &bucket = buckets_[cachedMinBucket_];
    bucket.head = node->next;
    if (!bucket.head)
        bucket.tail = nullptr;
    --calCount_;
    --count_;
    cachedMin_ = nullptr;

    // Width self-tuning input: the mean gap between dispatched ticks is
    // the textbook estimate of the ideal day width. Decay the window so
    // the estimate tracks workload phase changes.
    if (poppedAny_) {
        Tick gap = node->when - lastPopWhen_;
        // A single year re-anchor jumps the clock by the whole idle
        // span; fed raw into the mean it would poison the width
        // estimate for tens of decay windows. Clamp outliers to 16x
        // the running average (Brown's width computation likewise
        // discards separations far from the mean) — a genuine shift
        // to sparser dispatch still grows the average geometrically,
        // so adaptation takes only a few samples.
        const std::uint64_t avg = gapCount_ ? gapSum_ / gapCount_ : 0;
        const std::uint64_t cap = (avg ? avg : 1) * 16;
        if (gap > cap)
            gap = cap;
        gapSum_ += gap;
        if (++gapCount_ >= kGapWindow) {
            gapSum_ >>= 1;
            gapCount_ >>= 1;
            // Let a stale fill-phase width ceiling expire gradually.
            if (walkShiftCeiling_ < kMaxWidthShift)
                ++walkShiftCeiling_;
        }
    }
    poppedAny_ = true;
    lastPopWhen_ = node->when;

    EventEntry entry;
    entry.when = node->when;
    entry.seq = node->seq;
    entry.cb = std::move(node->cb);
    freeNode(node);
    maybeShrink(now);
    maybeRetune(now);
    return entry;
}

void
CalendarEventQueue::maybeGrow(Tick now)
{
    if (count_ + 1 <= nbuckets_ * 2 || nbuckets_ >= kMaxBuckets)
        return;
    DECLUST_PERF_INC(EventQueueResizes);
    // now <= every pending tick, so it is a valid anchor whatever the
    // current year position.
    rebuild(now, nbuckets_ * 2, targetWidthShift());
}

void
CalendarEventQueue::maybeShrink(Tick now)
{
    // Never below the floor: a queue that drains to empty between sparse
    // arrivals would otherwise halve its way down on every drain and be
    // re-grown on every refill, one full rebuild per step.
    if (nbuckets_ <= floorBuckets_ || count_ >= nbuckets_ / 2)
        return;
    DECLUST_PERF_INC(EventQueueResizes);
    rebuild(now, nbuckets_ / 2, targetWidthShift());
}

void
CalendarEventQueue::maybeRetune(Tick now)
{
    // Wait for a meaningful sample, then compare with hysteresis: one
    // shift of drift is normal jitter around a power-of-two boundary,
    // two means the day width is at least 2x off and bucket lists are
    // growing (too wide) or scans are lengthening (too narrow). The
    // check is a division and a bit_width per pop; the rebuild itself
    // fires once per genuine workload phase change.
    if (gapCount_ < 64 || count_ == 0)
        return;
    const int tuned = targetWidthShift();
    const int drift =
        tuned > widthShift_ ? tuned - widthShift_ : widthShift_ - tuned;
    if (drift < 2)
        return;
    rebuild(now, nbuckets_, tuned);
}

void
CalendarEventQueue::rebuild(Tick anchor, std::size_t newBuckets,
                            int newShift)
{
    DECLUST_PERF_INC(EventQueueRebuilds);
    // Unchain every pending node into one temporary list (no
    // allocation), sampling bucket occupancy while the walk is free.
    Node *all = nullptr;
    for (std::size_t i = 0; i < nbuckets_; ++i) {
        Bucket &bucket = buckets_[i];
        std::size_t length = 0;
        Node *n = bucket.head;
        while (n) {
            Node *next = n->next;
            n->next = all;
            all = n;
            n = next;
            ++length;
        }
        DECLUST_PERF_HIST(EventBucketOccupancy, length);
        bucket.head = bucket.tail = nullptr;
    }
    while (overflow_) {
        Node *next = overflow_->next;
        overflow_->next = all;
        all = overflow_;
        overflow_ = next;
    }
    calCount_ = 0;
    overflowCount_ = 0;

    nbuckets_ = newBuckets;
    widthShift_ = newShift;
    DECLUST_ANALYZE_SUPPRESS(
        "hot-path-growth: ring resize; shrinks retain capacity and grows past "
        "the bring-up reserve happen O(log n) times per population doubling");
    buckets_.assign(nbuckets_, Bucket{});
    calendarStart_ = alignDown(anchor, widthShift_);

    while (all) {
        Node *next = all->next;
        link(all); // every node >= anchor, so no recursive re-anchor
        all = next;
    }
    cachedMin_ = nullptr;
#if DECLUST_VALIDATE
    auditStructure();
#endif
}

int
CalendarEventQueue::tunedWidthShift() const
{
    if (gapCount_ == 0)
        return widthShift_;
    const std::uint64_t avgGap = gapSum_ / gapCount_;
    int shift = static_cast<int>(std::bit_width(avgGap));
    if (shift > kMaxWidthShift)
        shift = kMaxWidthShift;
    return shift;
}

void
CalendarEventQueue::reserve(std::size_t expected)
{
    while (totalNodes_ < expected)
        growPool();
    // Ring sized so the grow threshold (count > 2 * nbuckets) is not
    // reached below the expected population.
    std::size_t target = std::bit_ceil((expected + 1) / 2);
    if (target < kMinBuckets)
        target = kMinBuckets;
    if (target > kMaxBuckets)
        target = kMaxBuckets;
    if (target <= floorBuckets_)
        return;
    floorBuckets_ = target;
    if (nbuckets_ == 0) {
        // Bring-up, before the first push: allocate the ring at its floor
        // now; the first push only anchors it.
        nbuckets_ = floorBuckets_;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: bring-up pre-size");
        buckets_.assign(nbuckets_, Bucket{});
    } else if (nbuckets_ < floorBuckets_) {
        // A live ring below the new floor grows like any resize.
        // calendarStart_ <= every pending tick, so it is a valid anchor.
        DECLUST_PERF_INC(EventQueueResizes);
        rebuild(calendarStart_, floorBuckets_, widthShift_);
    }
}

#if DECLUST_VALIDATE
void
CalendarEventQueue::auditStructure() const
{
    DECLUST_VALIDATE_CHECK(std::has_single_bit(nbuckets_),
                           "bucket ring size ", nbuckets_,
                           " is not a power of two");
    std::size_t cal = 0;
    for (std::size_t i = 0; i < nbuckets_; ++i) {
        const Bucket &bucket = buckets_[i];
        const Node *prev = nullptr;
        for (const Node *n = bucket.head; n; n = n->next) {
            DECLUST_VALIDATE_CHECK(
                n->when >= calendarStart_ && n->when < horizon(),
                "bucket node tick ", n->when, " outside the year [",
                calendarStart_, ", ", horizon(), ")");
            DECLUST_VALIDATE_CHECK(bucketOf(n->when) == i,
                                   "node tick ", n->when,
                                   " filed in bucket ", i, " but maps to ",
                                   bucketOf(n->when));
            if (prev) {
                DECLUST_VALIDATE_CHECK(
                    nodeBefore(prev->when, prev->seq, n->when, n->seq),
                    "bucket ", i, " not in (when, seq) order: (",
                    prev->when, ", ", prev->seq, ") before (", n->when,
                    ", ", n->seq, ")");
            }
            if (!n->next)
                DECLUST_VALIDATE_CHECK(bucket.tail == n,
                                       "bucket ", i,
                                       " tail does not match its last "
                                       "node");
            prev = n;
            ++cal;
        }
        if (!bucket.head)
            DECLUST_VALIDATE_CHECK(bucket.tail == nullptr,
                                   "empty bucket ", i,
                                   " with a dangling tail");
    }
    DECLUST_VALIDATE_CHECK(cal == calCount_, "bucket walk found ", cal,
                           " nodes but calCount is ", calCount_);
    std::size_t ovf = 0;
    for (const Node *n = overflow_; n; n = n->next) {
        DECLUST_VALIDATE_CHECK(n->when >= horizon(),
                               "overflow node tick ", n->when,
                               " is inside the year (horizon ", horizon(),
                               ")");
        ++ovf;
    }
    DECLUST_VALIDATE_CHECK(ovf == overflowCount_, "overflow walk found ",
                           ovf, " nodes but overflowCount is ",
                           overflowCount_);
    DECLUST_VALIDATE_CHECK(count_ == calCount_ + overflowCount_,
                           "count ", count_, " != calendar ", calCount_,
                           " + overflow ", overflowCount_);
}
#endif

} // namespace declust
