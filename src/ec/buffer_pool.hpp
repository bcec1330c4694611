/**
 * @file
 * Slab-pooled, 64-byte-aligned stripe-unit buffers for the data plane.
 *
 * The verify data-plane mode XORs real bytes at every parity combine
 * site, which runs inside the zero-allocation I/O spine — so buffers
 * come from a free list carved out of slabs, exactly like SlabPool, but
 * with cache-line alignment so the SIMD kernels run their aligned fast
 * path. Steady state is two pointer writes per acquire/release; slabs
 * are only allocated while the pool warms up.
 *
 * Alignment is done by hand (over-allocate + round up) on top of plain
 * `::operator new` rather than the aligned-new overload: the repo's
 * allocation-guard test interposes only the unaligned global operator
 * new, and warm-up allocations must stay visible to it so "zero
 * steady-state allocations" is a provable claim, not a blind spot.
 *
 * Not thread-safe, by design: one pool per ArrayController, confined to
 * that controller's event thread like every other pool in the spine.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/annotations.hpp"
#include "util/error.hpp"

namespace declust::ec {

/** Free-list pool of fixed-size cache-line-aligned byte buffers. */
class BufferPool
{
  public:
    static constexpr std::size_t kAlignment = 64;

    /**
     * @param bufferBytes Usable bytes per buffer (the stripe-unit
     *        size); rounded up to a multiple of kAlignment so buffers
     *        stay mutually aligned within a slab.
     * @param buffersPerSlab Buffers carved from each backing
     *        allocation.
     */
    explicit BufferPool(std::size_t bufferBytes,
                        std::size_t buffersPerSlab = 16)
        : stride_((bufferBytes + kAlignment - 1) / kAlignment * kAlignment),
          buffersPerSlab_(buffersPerSlab)
    {
        DECLUST_ASSERT(bufferBytes > 0, "empty data-plane buffer");
        DECLUST_ASSERT(buffersPerSlab_ > 0, "empty data-plane slab");
    }

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /** Pop an aligned buffer, growing by one slab if the list is dry. */
    DECLUST_HOT_PATH
    std::uint8_t *
    acquire()
    {
        if (!free_)
            grow();
        FreeNode *node = free_;
        free_ = node->next;
        ++live_;
        return reinterpret_cast<std::uint8_t *>(node);
    }

    /** Return @p p (obtained from acquire()) to the free list. */
    DECLUST_HOT_PATH
    void
    release(std::uint8_t *p)
    {
        DECLUST_DEBUG_ASSERT(p != nullptr, "releasing null buffer");
        auto *node = reinterpret_cast<FreeNode *>(p);
        node->next = free_;
        free_ = node;
        --live_;
    }

    /** Bytes per buffer (the rounded-up stride). */
    std::size_t bufferBytes() const { return stride_; }

    /** Buffers currently handed out. */
    std::size_t liveBuffers() const { return live_; }

    /** Backing slab allocations made so far. */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    void
    grow()
    {
        // Warm-up growth path, O(1) slabs per run (see SlabPool::grow).
        const std::size_t bytes = stride_ * buffersPerSlab_ + kAlignment;
        DECLUST_ANALYZE_SUPPRESS(
            "hot-path-growth: slab warm-up");
        slabs_.emplace_back(
            static_cast<std::byte *>(::operator new(bytes)));
        auto base = reinterpret_cast<std::uintptr_t>(slabs_.back().get());
        const std::uintptr_t aligned =
            (base + kAlignment - 1) / kAlignment * kAlignment;
        for (std::size_t i = buffersPerSlab_; i-- > 0;) {
            auto *node =
                reinterpret_cast<FreeNode *>(aligned + i * stride_);
            node->next = free_;
            free_ = node;
        }
    }

    struct OpDelete
    {
        void operator()(std::byte *p) const { ::operator delete(p); }
    };

    std::size_t stride_;
    std::size_t buffersPerSlab_;
    std::vector<std::unique_ptr<std::byte[], OpDelete>> slabs_;
    FreeNode *free_ = nullptr;
    std::size_t live_ = 0;
};

/** RAII lease of one pooled buffer for a synchronous combine check. */
class BufferLease
{
  public:
    explicit BufferLease(BufferPool &pool)
        : pool_(pool), p_(pool.acquire())
    {
    }
    ~BufferLease() { pool_.release(p_); }
    BufferLease(const BufferLease &) = delete;
    BufferLease &operator=(const BufferLease &) = delete;

    std::uint8_t *get() const { return p_; }

  private:
    BufferPool &pool_;
    std::uint8_t *p_;
};

} // namespace declust::ec
