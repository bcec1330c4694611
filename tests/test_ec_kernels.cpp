/**
 * @file
 * Tests for the erasure-code kernel layer: GF(256) table algebra
 * against a bitwise oracle, randomized scalar-vs-SIMD equivalence at
 * every tier the host supports (odd lengths, misaligned buffers, guard
 * bytes), every tier's byte-image expansion against its defining
 * formula, dispatch-tier resolution, and name parsing.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ec/buffer_pool.hpp"
#include "ec/data_plane.hpp"
#include "ec/gf256.hpp"
#include "ec/kernels.hpp"

namespace declust::ec {
namespace {

/** Deterministic xorshift64 stream for reproducible property tests. */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed | 1) {}
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    std::uint8_t nextByte() { return static_cast<std::uint8_t>(next()); }
    /** Uniform-ish value in [0, bound). */
    std::size_t
    below(std::size_t bound)
    {
        return static_cast<std::size_t>(next() % bound);
    }
};

// ---------------------------------------------------------------------
// GF(256) table algebra vs. the slow bitwise oracle.

TEST(Gf256, MulTableMatchesBitwiseOracle)
{
    const GfTables &t = gfTables();
    for (int a = 0; a < 256; ++a)
        for (int b = 0; b < 256; ++b)
            ASSERT_EQ(t.mul[a][b],
                      gfMulSlow(static_cast<std::uint8_t>(a),
                                static_cast<std::uint8_t>(b)))
                << "a=" << a << " b=" << b;
}

TEST(Gf256, FieldAxiomsHold)
{
    const GfTables &t = gfTables();
    Rng rng(0x6f256);
    for (int i = 0; i < 4096; ++i) {
        const std::uint8_t a = rng.nextByte();
        const std::uint8_t b = rng.nextByte();
        const std::uint8_t c = rng.nextByte();
        // Commutativity, associativity, distributivity over XOR.
        EXPECT_EQ(t.mul[a][b], t.mul[b][a]);
        EXPECT_EQ(t.mul[t.mul[a][b]][c], t.mul[a][t.mul[b][c]]);
        EXPECT_EQ(t.mul[a][b ^ c], t.mul[a][b] ^ t.mul[a][c]);
    }
    // Identity and absorbing element.
    for (int a = 0; a < 256; ++a) {
        EXPECT_EQ(t.mul[a][1], a);
        EXPECT_EQ(t.mul[a][0], 0);
    }
}

TEST(Gf256, InverseAndLogExpAreConsistent)
{
    const GfTables &t = gfTables();
    for (int a = 1; a < 256; ++a) {
        EXPECT_EQ(t.mul[a][t.inv[a]], 1) << "a=" << a;
        for (int b = 1; b < 256; ++b)
            ASSERT_EQ(t.mul[a][b], t.expTbl[t.logTbl[a] + t.logTbl[b]]);
    }
}

TEST(Gf256, ShuffleSplitTablesReassembleTheProduct)
{
    // The PSHUFB identity the SIMD GF kernels rely on:
    // c*x == shuffleLo[c][x & 0xf] ^ shuffleHi[c][x >> 4].
    const GfTables &t = gfTables();
    for (int c = 0; c < 256; ++c)
        for (int x = 0; x < 256; ++x)
            ASSERT_EQ(t.mul[c][x],
                      t.shuffleLo[c][x & 0xf] ^ t.shuffleHi[c][x >> 4])
                << "c=" << c << " x=" << x;
}

// ---------------------------------------------------------------------
// Kernel semantics pinned on the scalar reference.

TEST(Kernels, ScalarIdentities)
{
    const Kernels &k = kernelsFor(Tier::Scalar);
    Rng rng(0xfeed);
    std::vector<std::uint8_t> src(333), dst(333), orig(333);
    for (auto &b : src)
        b = rng.nextByte();
    for (auto &b : dst)
        b = rng.nextByte();
    orig = dst;

    // XOR is an involution: applying the same source twice restores dst.
    k.xorInto(dst.data(), src.data(), dst.size());
    k.xorInto(dst.data(), src.data(), dst.size());
    EXPECT_EQ(dst, orig);

    // gfMul by 1 copies; by 0 zeroes; gfMulAdd with c=1 is xorInto.
    std::vector<std::uint8_t> out(src.size(), 0xaa);
    k.gfMul(out.data(), src.data(), 1, out.size());
    EXPECT_EQ(out, src);
    k.gfMul(out.data(), src.data(), 0, out.size());
    EXPECT_EQ(out, std::vector<std::uint8_t>(src.size(), 0));

    std::vector<std::uint8_t> viaFma = orig, viaXor = orig;
    k.gfMulAdd(viaFma.data(), src.data(), 1, viaFma.size());
    k.xorInto(viaXor.data(), src.data(), viaXor.size());
    EXPECT_EQ(viaFma, viaXor);
}

// ---------------------------------------------------------------------
// Randomized scalar-vs-SIMD equivalence, every supported tier.

class KernelEquivalence : public ::testing::TestWithParam<Tier>
{
};

/**
 * One randomized trial: pick a length (odd lengths and vector-width
 * remainders included on purpose) and independent misalignments for dst
 * and src, run the tier under test and the scalar reference on
 * identical inputs, and require byte-identical results. Guard bytes
 * around dst catch any out-of-range write.
 */
TEST_P(KernelEquivalence, RandomLengthsAndMisalignments)
{
    const Tier tier = GetParam();
    if (!tierSupported(tier))
        GTEST_SKIP() << "host cannot execute " << tierName(tier);
    const Kernels &k = kernelsFor(tier);
    const Kernels &ref = kernelsFor(Tier::Scalar);

    constexpr std::size_t kMaxLen = 4096 + 129;
    constexpr std::size_t kMaxOffset = 64;
    constexpr std::size_t kGuard = 64;
    const std::size_t arena = kMaxLen + kMaxOffset + 2 * kGuard;
    std::vector<std::uint8_t> dstBuf(arena), srcBuf(arena);
    std::vector<std::uint8_t> want(kMaxLen), shadow(arena);

    Rng rng(0x51u + static_cast<std::uint64_t>(tier));
    for (int trial = 0; trial < 400; ++trial) {
        // Bias toward short odd lengths and tails near vector widths.
        std::size_t n;
        switch (trial % 4) {
        case 0:
            n = rng.below(97); // includes 0
            break;
        case 1:
            n = 1 + 2 * rng.below(300); // odd
            break;
        case 2:
            n = 64 * (1 + rng.below(64)) + rng.below(63);
            break;
        default:
            n = 1 + rng.below(kMaxLen);
            break;
        }
        const std::size_t dOff = kGuard + rng.below(kMaxOffset + 1);
        const std::size_t sOff = kGuard + rng.below(kMaxOffset + 1);
        const std::uint8_t c = rng.nextByte();

        for (auto &b : dstBuf)
            b = rng.nextByte();
        for (auto &b : srcBuf)
            b = rng.nextByte();
        shadow = dstBuf;
        std::uint8_t *dst = dstBuf.data() + dOff;
        const std::uint8_t *src = srcBuf.data() + sOff;

        const int op = trial % 3;
        std::memcpy(want.data(), dst, n);
        switch (op) {
        case 0:
            ref.xorInto(want.data(), src, n);
            k.xorInto(dst, src, n);
            break;
        case 1:
            ref.gfMul(want.data(), src, c, n);
            k.gfMul(dst, src, c, n);
            break;
        default:
            ref.gfMulAdd(want.data(), src, c, n);
            k.gfMulAdd(dst, src, c, n);
            break;
        }

        ASSERT_EQ(std::memcmp(dst, want.data(), n), 0)
            << tierName(tier) << " op " << op << " diverged: n=" << n
            << " dOff=" << dOff << " sOff=" << sOff << " c=" << int(c);
        // Nothing outside [dst, dst+n) may change.
        std::memcpy(shadow.data() + dOff, want.data(), n);
        ASSERT_EQ(dstBuf, shadow)
            << tierName(tier) << " op " << op << " wrote out of range: n="
            << n << " dOff=" << dOff;
        ASSERT_EQ(std::memcmp(srcBuf.data() + sOff, src, n), 0);
    }
}

/**
 * expand at the data plane's unit sizes and around the 512-byte period
 * (whole periods, a period plus or minus one word, sub-period units, and
 * two lengths with a partial last word), at dst offsets 0, 7, ..., 63
 * across a cache line, must write exactly the byte image the formula
 * word[i] = rotl64(v, (i*29) & 63) defines — computed here, not through
 * any kernel — and nothing outside [dst, dst+n).
 */
TEST_P(KernelEquivalence, ExpandMatchesTheDefiningFormula)
{
    const Tier tier = GetParam();
    if (!tierSupported(tier))
        GTEST_SKIP() << "host cannot execute " << tierName(tier);
    const Kernels &k = kernelsFor(tier);

    constexpr std::size_t kSizes[] = {8,    64,   504,  512,   520,
                                      4096, 4104, 65536, 3,    4099};
    constexpr std::size_t kMaxLen = 65536;
    constexpr std::size_t kMaxOffset = 63;
    constexpr std::size_t kGuard = 64;
    std::vector<std::uint8_t> dstBuf(kMaxLen + kMaxOffset + 2 * kGuard);
    std::vector<std::uint8_t> want(kMaxLen + 8), shadow;

    Rng rng(0xe4a9du + static_cast<std::uint64_t>(tier));
    for (std::size_t n : kSizes) {
        for (std::size_t off = 0; off <= kMaxOffset; off += 7) {
            const std::uint64_t v = rng.next();
            for (std::size_t i = 0; i * 8 < n; ++i) {
                const std::uint64_t w =
                    std::rotl(v, static_cast<int>((i * 29) & 63));
                std::memcpy(want.data() + i * 8, &w, 8);
            }
            for (auto &b : dstBuf)
                b = rng.nextByte();
            shadow = dstBuf;
            std::uint8_t *dst = dstBuf.data() + kGuard + off;

            k.expand(dst, v, n);

            ASSERT_EQ(std::memcmp(dst, want.data(), n), 0)
                << tierName(tier) << " expand diverged: n=" << n
                << " off=" << off << " v=" << v;
            std::memcpy(shadow.data() + kGuard + off, want.data(), n);
            ASSERT_EQ(dstBuf, shadow)
                << tierName(tier) << " expand wrote out of range: n=" << n
                << " off=" << off;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, KernelEquivalence,
    ::testing::Values(Tier::Scalar, Tier::Sse2, Tier::Avx2, Tier::Avx512),
    [](const ::testing::TestParamInfo<Tier> &info) {
        return std::string(tierName(info.param));
    });

// ---------------------------------------------------------------------
// Dispatch and names.

TEST(Dispatch, TierLadderIsMonotonic)
{
    // Scalar is always runnable, and every tier at or below the best
    // supported one must be runnable too (the clamp-down contract).
    EXPECT_TRUE(tierSupported(Tier::Scalar));
    const Tier best = bestSupportedTier();
    for (int t = 0; t <= static_cast<int>(best); ++t)
        EXPECT_TRUE(tierSupported(static_cast<Tier>(t)))
            << tierName(static_cast<Tier>(t));
    EXPECT_LE(static_cast<int>(activeTier()), static_cast<int>(best));
    EXPECT_EQ(kernels().tier, activeTier());
    EXPECT_NE(kernels().xorInto, nullptr);
    EXPECT_NE(kernels().gfMul, nullptr);
    EXPECT_NE(kernels().gfMulAdd, nullptr);
    EXPECT_NE(kernels().expand, nullptr);
}

TEST(Dispatch, TierNamesRoundTrip)
{
    for (int t = 0; t < kTierCount; ++t) {
        const Tier tier = static_cast<Tier>(t);
        Tier parsed{};
        EXPECT_TRUE(tierFromName(tierName(tier), &parsed));
        EXPECT_EQ(parsed, tier);
    }
    Tier parsed{};
    EXPECT_FALSE(tierFromName("neon", &parsed));
    EXPECT_FALSE(tierFromName("", &parsed));
    EXPECT_FALSE(tierFromName("AVX2", &parsed)); // names are lowercase
}

TEST(Dispatch, DataPlaneModeNamesRoundTrip)
{
    for (DataPlaneMode m : {DataPlaneMode::Off, DataPlaneMode::Verify}) {
        DataPlaneMode parsed{};
        EXPECT_TRUE(dataPlaneModeFromName(dataPlaneModeName(m), &parsed));
        EXPECT_EQ(parsed, m);
    }
    DataPlaneMode parsed{};
    EXPECT_FALSE(dataPlaneModeFromName("full", &parsed));
    EXPECT_FALSE(dataPlaneModeFromName("on", &parsed)); // mode removed
    EXPECT_FALSE(dataPlaneModeFromName("", &parsed));
}

TEST(Dispatch, CpuFeatureStringIsNonEmpty)
{
    EXPECT_FALSE(cpuFeatureString().empty());
}

// ---------------------------------------------------------------------
// Buffer pool.

TEST(BufferPool, LeasesAreAlignedDistinctAndRecycled)
{
    BufferPool pool(96, 4);
    std::uint8_t *first = nullptr;
    {
        BufferLease a(pool), b(pool);
        EXPECT_NE(a.get(), b.get());
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.get()) % 64, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.get()) % 64, 0u);
        std::memset(a.get(), 0xab, 96);
        first = a.get();
    }
    // LIFO free list: the most recently released buffer comes back.
    BufferLease c(pool);
    EXPECT_EQ(c.get(), first);
}

} // namespace
} // namespace declust::ec
