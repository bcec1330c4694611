/**
 * @file
 * 256-bit AVX2 kernels. VPSHUFB shuffles within each 128-bit lane, so
 * the GF tables are broadcast to both lanes and the split-table step is
 * identical to the SSE2 one at twice the width. expand builds the
 * 512-byte period in 16 registers with the VPSLLVQ/VPSRLVQ shift pair.
 *
 * Compiled with -mavx2 (see src/ec/CMakeLists.txt); selected by
 * dispatch.cpp only when the CPU reports avx2.
 */
#if defined(__x86_64__) || defined(__i386__)

#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

#include <cstring>

#include <immintrin.h>

namespace declust::ec {

void
xorIntoAvx2(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m256i d0 = _mm256_loadu_si256((const __m256i *)(dst + i));
        __m256i d1 = _mm256_loadu_si256((const __m256i *)(dst + i + 32));
        __m256i d2 = _mm256_loadu_si256((const __m256i *)(dst + i + 64));
        __m256i d3 = _mm256_loadu_si256((const __m256i *)(dst + i + 96));
        __m256i s0 = _mm256_loadu_si256((const __m256i *)(src + i));
        __m256i s1 = _mm256_loadu_si256((const __m256i *)(src + i + 32));
        __m256i s2 = _mm256_loadu_si256((const __m256i *)(src + i + 64));
        __m256i s3 = _mm256_loadu_si256((const __m256i *)(src + i + 96));
        _mm256_storeu_si256((__m256i *)(dst + i), _mm256_xor_si256(d0, s0));
        _mm256_storeu_si256((__m256i *)(dst + i + 32),
                            _mm256_xor_si256(d1, s1));
        _mm256_storeu_si256((__m256i *)(dst + i + 64),
                            _mm256_xor_si256(d2, s2));
        _mm256_storeu_si256((__m256i *)(dst + i + 96),
                            _mm256_xor_si256(d3, s3));
    }
    for (; i + 32 <= n; i += 32) {
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + i));
        __m256i s = _mm256_loadu_si256((const __m256i *)(src + i));
        _mm256_storeu_si256((__m256i *)(dst + i), _mm256_xor_si256(d, s));
    }
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

namespace {

inline __m256i
gfStep256(__m256i x, __m256i tblLo, __m256i tblHi, __m256i nibMask)
{
    __m256i lo = _mm256_and_si256(x, nibMask);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibMask);
    return _mm256_xor_si256(_mm256_shuffle_epi8(tblLo, lo),
                            _mm256_shuffle_epi8(tblHi, hi));
}

/** The 16-byte nibble table broadcast into both 128-bit lanes. */
inline __m256i
broadcastTable(const std::uint8_t *tbl16)
{
    __m128i t = _mm_loadu_si128((const __m128i *)tbl16);
    return _mm256_broadcastsi128_si256(t);
}

} // namespace

void
gfMulAvx2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
          std::size_t n)
{
    const GfTables &t = gfTables();
    const __m256i tblLo = broadcastTable(t.shuffleLo[c]);
    const __m256i tblHi = broadcastTable(t.shuffleHi[c]);
    const __m256i nibMask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + i));
        _mm256_storeu_si256((__m256i *)(dst + i),
                            gfStep256(x, tblLo, tblHi, nibMask));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] = row[src[i]];
}

void
gfMulAddAvx2(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
             std::size_t n)
{
    const GfTables &t = gfTables();
    const __m256i tblLo = broadcastTable(t.shuffleLo[c]);
    const __m256i tblHi = broadcastTable(t.shuffleHi[c]);
    const __m256i nibMask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + i));
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + i));
        __m256i p = gfStep256(x, tblLo, tblHi, nibMask);
        _mm256_storeu_si256((__m256i *)(dst + i), _mm256_xor_si256(d, p));
    }
    const std::uint8_t *row = t.mul[c];
    for (; i < n; ++i)
        dst[i] ^= row[src[i]];
}

void
expandAvx2(std::uint8_t *dst, std::uint64_t v, std::size_t n)
{
    constexpr std::size_t kRegs = kExpandPeriodWords / 4;
    const __m256i vv = _mm256_set1_epi64x(static_cast<long long>(v));
    const __m256i width = _mm256_set1_epi64x(64);
    __m256i period[kRegs];
    for (std::size_t r = 0; r < kRegs; ++r) {
        // rotl(v, s) = v << s | v >> (64 - s); VPSRLVQ by 64 yields 0,
        // so s == 0 needs no special case.
        const __m256i s = _mm256_loadu_si256(
            (const __m256i *)(kExpandRotations.data() + 4 * r));
        period[r] = _mm256_or_si256(
            _mm256_sllv_epi64(vv, s),
            _mm256_srlv_epi64(vv, _mm256_sub_epi64(width, s)));
    }
    std::size_t i = 0;
    for (; i + sizeof period <= n; i += sizeof period) {
        for (std::size_t r = 0; r < kRegs; ++r)
            _mm256_storeu_si256((__m256i *)(dst + i + 32 * r), period[r]);
    }
    std::size_t r = 0;
    for (; i + 32 <= n; i += 32, ++r)
        _mm256_storeu_si256((__m256i *)(dst + i), period[r]);
    if (i < n)
        std::memcpy(dst + i, &period[r], n - i);
}

} // namespace declust::ec

#endif // x86
