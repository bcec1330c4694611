/**
 * @file
 * 512-bit AVX-512 kernels. Requires F (loads, ternlog XOR) and BW (the
 * 512-bit VPSHUFB); dispatch.cpp checks both before selecting the tier.
 * expand builds the 512-byte period in 8 registers with VPROLVQ and
 * stores the tail through a byte mask (BW).
 *
 * Compiled with -mavx512f -mavx512bw (see src/ec/CMakeLists.txt).
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <immintrin.h>

namespace declust::ec {

void
xorIntoAvx512(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m512i d0 = _mm512_loadu_si512(dst + i);
        __m512i d1 = _mm512_loadu_si512(dst + i + 64);
        __m512i s0 = _mm512_loadu_si512(src + i);
        __m512i s1 = _mm512_loadu_si512(src + i + 64);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(d0, s0));
        _mm512_storeu_si512(dst + i + 64, _mm512_xor_si512(d1, s1));
    }
    for (; i + 64 <= n; i += 64) {
        __m512i d = _mm512_loadu_si512(dst + i);
        __m512i s = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

inline __m512i
gfStep512(__m512i x, __m512i tblLo, __m512i tblHi, __m512i nibMask)
{
    __m512i lo = _mm512_and_si512(x, nibMask);
    __m512i hi = _mm512_and_si512(_mm512_srli_epi16(x, 4), nibMask);
    return _mm512_xor_si512(_mm512_shuffle_epi8(tblLo, lo),
                            _mm512_shuffle_epi8(tblHi, hi));
}

/** The 16-byte nibble table broadcast into all four 128-bit lanes. */
inline __m512i
broadcastTable512(const std::uint8_t *tbl16)
{
    __m128i t = _mm_loadu_si128((const __m128i *)tbl16);
    // All-lanes maskz form, as for VPROLVQ in expandAvx512: gcc 12's
    // unmasked _mm512_broadcast_i32x4 trips -Wuninitialized in its header.
    return _mm512_maskz_broadcast_i32x4(0xffff, t);
}

} // namespace

void
gfMulAvx512(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
            std::size_t n)
{
    const GfTables &t = gfTables();
    const __m512i tblLo = broadcastTable512(t.shuffleLo[c]);
    const __m512i tblHi = broadcastTable512(t.shuffleHi[c]);
    const __m512i nibMask = _mm512_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m512i x = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, gfStep512(x, tblLo, tblHi, nibMask));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = row[src[i]];
}

void
gfMulAddAvx512(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
               std::size_t n)
{
    const GfTables &t = gfTables();
    const __m512i tblLo = broadcastTable512(t.shuffleLo[c]);
    const __m512i tblHi = broadcastTable512(t.shuffleHi[c]);
    const __m512i nibMask = _mm512_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m512i x = _mm512_loadu_si512(src + i);
        __m512i d = _mm512_loadu_si512(dst + i);
        _mm512_storeu_si512(
            dst + i,
            _mm512_xor_si512(d, gfStep512(x, tblLo, tblHi, nibMask)));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] ^= row[src[i]];
}

void
expandAvx512(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    constexpr std::size_t kRegs = kExpandPeriodWords / 8;
    const __m512i vv = _mm512_set1_epi64(static_cast<long long>(v));
    __m512i period[kRegs];
    // The all-lanes maskz form is a plain VPROLVQ; gcc 12's unmasked
    // _mm512_rolv_epi64 trips -Wuninitialized inside its own header.
    for (std::size_t r = 0; r < kRegs; ++r)
        period[r] = _mm512_maskz_rolv_epi64(
            0xff, vv, _mm512_loadu_si512(kExpandRotations.data() + 8 * r));
    std::size_t i = 0;
    for (; i + sizeof period <= n; i += sizeof period) {
        for (std::size_t r = 0; r < kRegs; ++r)
            _mm512_storeu_si512(dst + i + 64 * r, period[r]);
    }
    std::size_t r = 0;
    for (; i + 64 <= n; i += 64, ++r)
        _mm512_storeu_si512(dst + i, period[r]);
    if (i < n)
        _mm512_mask_storeu_epi8(
            dst + i, _cvtu64_mask64((1ull << (n - i)) - 1), period[r]);
}

} // namespace declust::ec

#endif // x86
