/**
 * @file
 * 128-bit kernels: SSE2 XOR, SSSE3 PSHUFB split-table GF(256).
 *
 * Compiled with -mssse3 (see src/ec/CMakeLists.txt); dispatch.cpp only
 * selects this tier when the CPU reports both sse2 and ssse3. The GF
 * kernels implement the jerasure/ISA-L split-table technique: PSHUFB
 * looks up the product of the coefficient with each byte's low and high
 * nibble in two 16-entry tables and XORs the halves.
 *
 * SSE2 has no per-lane variable 64-bit rotate, and a loop over
 * expandRotation(i) vectorizes into an emulated one that is no faster
 * than the scalar formula; so expand unrolls the 512-byte period into
 * 64 rotates by constants, then replicates it with 16-byte stores.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include <emmintrin.h>
#include <tmmintrin.h>

namespace declust::ec {

void
xorIntoSse2(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m128i d0 = _mm_loadu_si128((const __m128i *)(dst + i));
        __m128i d1 = _mm_loadu_si128((const __m128i *)(dst + i + 16));
        __m128i d2 = _mm_loadu_si128((const __m128i *)(dst + i + 32));
        __m128i d3 = _mm_loadu_si128((const __m128i *)(dst + i + 48));
        __m128i s0 = _mm_loadu_si128((const __m128i *)(src + i));
        __m128i s1 = _mm_loadu_si128((const __m128i *)(src + i + 16));
        __m128i s2 = _mm_loadu_si128((const __m128i *)(src + i + 32));
        __m128i s3 = _mm_loadu_si128((const __m128i *)(src + i + 48));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d0, s0));
        _mm_storeu_si128((__m128i *)(dst + i + 16), _mm_xor_si128(d1, s1));
        _mm_storeu_si128((__m128i *)(dst + i + 32), _mm_xor_si128(d2, s2));
        _mm_storeu_si128((__m128i *)(dst + i + 48), _mm_xor_si128(d3, s3));
    }
    for (; i + 16 <= n; i += 16) {
        __m128i d = _mm_loadu_si128((const __m128i *)(dst + i));
        __m128i s = _mm_loadu_si128((const __m128i *)(src + i));
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

/** One PSHUFB split-table step: product of c with 16 bytes of x. */
inline __m128i
gfStep128(__m128i x, __m128i tblLo, __m128i tblHi, __m128i nibMask)
{
    __m128i lo = _mm_and_si128(x, nibMask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(x, 4), nibMask);
    return _mm_xor_si128(_mm_shuffle_epi8(tblLo, lo),
                         _mm_shuffle_epi8(tblHi, hi));
}

} // namespace

void
gfMulSse2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
          std::size_t n)
{
    const GfTables &t = gfTables();
    const __m128i tblLo = _mm_loadu_si128((const __m128i *)t.shuffleLo[c]);
    const __m128i tblHi = _mm_loadu_si128((const __m128i *)t.shuffleHi[c]);
    const __m128i nibMask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i x = _mm_loadu_si128((const __m128i *)(src + i));
        _mm_storeu_si128((__m128i *)(dst + i),
                         gfStep128(x, tblLo, tblHi, nibMask));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = row[src[i]];
}

void
gfMulAddSse2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    const GfTables &t = gfTables();
    const __m128i tblLo = _mm_loadu_si128((const __m128i *)t.shuffleLo[c]);
    const __m128i tblHi = _mm_loadu_si128((const __m128i *)t.shuffleHi[c]);
    const __m128i nibMask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i x = _mm_loadu_si128((const __m128i *)(src + i));
        __m128i d = _mm_loadu_si128((const __m128i *)(dst + i));
        __m128i p = gfStep128(x, tblLo, tblHi, nibMask);
        _mm_storeu_si128((__m128i *)(dst + i), _mm_xor_si128(d, p));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] ^= row[src[i]];
}

namespace {

template <std::size_t... I>
inline void
expandPeriod(std::uint64_t *period, std::uint64_t v,
             std::index_sequence<I...>)
{
    ((period[I] = std::rotl(v, expandRotation(I))), ...);
}

} // namespace

void
expandSse2(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    alignas(16) std::uint64_t period[kExpandPeriodWords];
    expandPeriod(period, v, std::make_index_sequence<kExpandPeriodWords>{});
    const auto *src = reinterpret_cast<const std::uint8_t *>(period);
    const std::size_t whole = n - n % sizeof period;
    // Each half-period is loaded into the 16 xmm registers once and
    // stored at every period offset; a plain load/store copy loop is
    // turned into an inline rep movs by gcc.
    constexpr std::size_t kRegs = 16;
    for (std::size_t h = 0; h < sizeof period; h += kRegs * 16) {
        __m128i half[kRegs];
        for (std::size_t k = 0; k < kRegs; ++k)
            half[k] = _mm_load_si128((const __m128i *)(src + h + 16 * k));
        for (std::size_t i = h; i < whole; i += sizeof period) {
            for (std::size_t k = 0; k < kRegs; ++k)
                _mm_storeu_si128((__m128i *)(dst + i + 16 * k), half[k]);
        }
    }
    if (whole < n)
        std::memcpy(dst + whole, src, n - whole);
}

} // namespace declust::ec

#endif // x86
