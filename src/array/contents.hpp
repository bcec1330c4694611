/**
 * @file
 * Logical-contents models used to verify array correctness end to end.
 *
 * The simulator's at-rest state is not real bytes; every stripe unit
 * carries a 64-bit UnitValue and parity is the XOR of its stripe's data
 * values, so "XOR over every stripe's units == 0" is the global
 * consistency invariant. ArrayContents tracks what is physically stored
 * on each disk; ShadowModel tracks what a perfect array would return for
 * each logical data unit. Together they let tests assert that every user
 * read returns the right data and that a completed reconstruction
 * restored exactly the lost contents.
 *
 * With `--data-plane verify` (ec/data_plane.hpp) each UnitValue
 * additionally stands for a full stripe unit of bytes via a GF(2)-linear
 * expansion, and every parity combine over these values is re-executed
 * over real buffers through the SIMD kernels and byte-compared — the
 * 64-bit invariant and the byte-level math are checked against each
 * other at every combine site.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "array/types.hpp"
#include "sim/seed.hpp"
#include "util/error.hpp"

namespace declust {

/** Physical per-(disk, offset) stored values. */
class ArrayContents
{
  public:
    ArrayContents(int numDisks, int unitsPerDisk);

    /* get/set/index are inline: the controller touches them on every
     * simulated access, and the range checks only need to fire in debug
     * builds. */
    UnitValue get(int disk, int offset) const
    {
        return values_[index(disk, offset)];
    }

    void set(int disk, int offset, UnitValue value)
    {
        values_[index(disk, offset)] = value;
    }

    /**
     * Poison every unit of @p disk (simulating loss of its contents on
     * failure) so stale reads are detectable.
     */
    void poisonDisk(int disk);

    /** Zero every unit of @p disk (a blank replacement drive). */
    void blankDisk(int disk);

    int numDisks() const { return numDisks_; }
    int unitsPerDisk() const { return unitsPerDisk_; }

  private:
    std::size_t index(int disk, int offset) const
    {
        DECLUST_DEBUG_ASSERT(disk >= 0 && disk < numDisks_, "disk ", disk,
                             " out of range");
        DECLUST_DEBUG_ASSERT(offset >= 0 && offset < unitsPerDisk_,
                             "offset ", offset, " out of range");
        return static_cast<std::size_t>(disk) * unitsPerDisk_ +
               static_cast<std::size_t>(offset);
    }

    int numDisks_;
    int unitsPerDisk_;
    std::vector<UnitValue> values_;
};

/** Expected value of every logical data unit. */
class ShadowModel
{
  public:
    explicit ShadowModel(std::int64_t numDataUnits);

    UnitValue get(std::int64_t dataUnit) const
    {
        DECLUST_DEBUG_ASSERT(dataUnit >= 0 && dataUnit < size(),
                             "data unit ", dataUnit, " out of range");
        return values_[static_cast<std::size_t>(dataUnit)];
    }

    void set(std::int64_t dataUnit, UnitValue value)
    {
        DECLUST_DEBUG_ASSERT(dataUnit >= 0 && dataUnit < size(),
                             "data unit ", dataUnit, " out of range");
        values_[static_cast<std::size_t>(dataUnit)] = value;
    }

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(values_.size());
    }

  private:
    std::vector<UnitValue> values_;
};

/** Deterministic generator of distinct non-zero unit values. */
class ValueSource
{
  public:
    explicit ValueSource(std::uint64_t seed = 0xc0ffee);

    /** Next fresh value (never returns 0). */
    UnitValue fresh()
    {
        // splitmix64 step; skip the (vanishingly unlikely) zero output
        // so a written unit is always distinguishable from a blank one.
        for (;;) {
            const std::uint64_t z = splitmixNext(state_);
            if (z != 0)
                return z;
        }
    }

  private:
    std::uint64_t state_;
};

} // namespace declust
