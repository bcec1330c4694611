/**
 * @file
 * Portable scalar kernels — the reference implementation every SIMD
 * tier is property-tested against, and the fallback on non-x86 builds.
 *
 * XOR runs word-at-a-time via memcpy (alignment-safe, and the compiler
 * lowers the copies to plain loads/stores); GF(256) runs byte-at-a-time
 * through the 256x256 product table; expand evaluates the byte-image
 * formula word by word, with no use of its 512-byte period, so the
 * tiers that replicate the period are checked against the definition.
 */
#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <bit>
#include <cstring>

namespace declust::ec {

void
xorIntoScalar(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, dst + i, sizeof a);
        std::memcpy(&b, src + i, sizeof b);
        a ^= b;
        std::memcpy(dst + i, &a, sizeof a);
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

void
gfMulScalar(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
            std::size_t n)
{
    const std::uint8_t *row = gfTables().mul[c];
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = row[src[i]];
}

void
gfMulAddScalar(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
               std::size_t n)
{
    const std::uint8_t *row = gfTables().mul[c];
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= row[src[i]];
}

void
expandScalar(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const std::uint64_t w = std::rotl(v, expandRotation(i / 8));
        std::memcpy(dst + i, &w, 8);
    }
    if (i < n) {
        const std::uint64_t w = std::rotl(v, expandRotation(i / 8));
        std::memcpy(dst + i, &w, n - i);
    }
}

} // namespace declust::ec
