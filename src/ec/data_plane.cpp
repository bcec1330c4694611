#include "ec/data_plane.hpp"

#include <atomic>
#include <cstring>

#include "ec/buffer_pool.hpp"
#include "ec/kernels.hpp"
#include "util/error.hpp"

namespace declust::ec {

namespace {

std::atomic<DataPlaneMode> g_defaultMode{DataPlaneMode::Off};

} // namespace

const char *
dataPlaneModeName(DataPlaneMode mode)
{
    switch (mode) {
    case DataPlaneMode::Off:
        return "off";
    case DataPlaneMode::Verify:
        return "verify";
    }
    return "?";
}

bool
dataPlaneModeFromName(const std::string &name, DataPlaneMode *out)
{
    for (DataPlaneMode mode : {DataPlaneMode::Off, DataPlaneMode::Verify}) {
        if (name == dataPlaneModeName(mode)) {
            *out = mode;
            return true;
        }
    }
    return false;
}

DataPlaneMode
defaultDataPlaneMode()
{
    return g_defaultMode.load(std::memory_order_relaxed);
}

void
selectDataPlane(DataPlaneMode mode)
{
    g_defaultMode.store(mode, std::memory_order_relaxed);
}

DataPlane::DataPlane(DataPlaneMode mode, std::size_t unitBytes)
    : mode_(mode), unitBytes_(unitBytes), kernels_(kernels()),
      pool_(unitBytes)
{
    DECLUST_ASSERT(unitBytes_ > 0 && unitBytes_ % 8 == 0,
                   "data-plane unit size ", unitBytes_,
                   " is not a positive multiple of 8 bytes");
}

void
DataPlane::expandInto(std::uint8_t *dst, std::uint64_t v) const
{
    kernels_.expand(dst, v, unitBytes_);
}

void
DataPlane::checkCombine(const char *site, const std::uint64_t *vals,
                        int count, std::uint64_t expected)
{
    BufferLease acc(pool_);
    BufferLease scratch(pool_);

    expandInto(acc.get(), count > 0 ? vals[0] : 0);
    for (int i = 1; i < count; ++i) {
        expandInto(scratch.get(), vals[i]);
        kernels_.xorInto(acc.get(), scratch.get(), unitBytes_);
    }

    expandInto(scratch.get(), expected);
    if (std::memcmp(acc.get(), scratch.get(), unitBytes_) != 0) {
        // Locate the first diverging byte for the diagnostic.
        std::size_t at = 0;
        while (acc.get()[at] == scratch.get()[at])
            ++at;
        DECLUST_PANIC("data-plane mismatch at combine site '", site,
                      "': real ", count, "-way SIMD XOR (tier ",
                      tierName(kernels_.tier),
                      ") disagrees with the shadow value ", expected,
                      " first at byte ", at);
    }

    ++stats_.combinesChecked;
    if (count > 1) {
        stats_.unitsXored += static_cast<std::uint64_t>(count - 1);
        stats_.bytesXored +=
            static_cast<std::uint64_t>(count - 1) * unitBytes_;
    }
}

} // namespace declust::ec
