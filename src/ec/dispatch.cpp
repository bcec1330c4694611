/**
 * @file
 * Runtime CPU-feature dispatch for the kernel tiers.
 *
 * Tier support is probed once with __builtin_cpu_supports; the active
 * table is then fixed for the life of the process. DECLUST_EC_FORCE_TIER
 * (scalar | sse2 | avx2 | avx512) pins a lower tier for CI matrix legs
 * and A/B measurement — a request above what the CPU supports clamps
 * down with a note on stderr rather than crashing, so one CI script can
 * run on any machine.
 */
#include "ec/kernels.hpp"

#include "util/error.hpp"

#include <cstdio>
#include <cstdlib>

namespace declust::ec {

namespace {

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kX86 = true;
#else
constexpr bool kX86 = false;
#endif

struct CpuFeatures
{
    bool sse2 = false;
    bool ssse3 = false;
    bool avx2 = false;
    bool avx512f = false;
    bool avx512bw = false;
};

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = [] {
        CpuFeatures v;
#if defined(__x86_64__) || defined(__i386__)
        v.sse2 = __builtin_cpu_supports("sse2");
        v.ssse3 = __builtin_cpu_supports("ssse3");
        v.avx2 = __builtin_cpu_supports("avx2");
        v.avx512f = __builtin_cpu_supports("avx512f");
        v.avx512bw = __builtin_cpu_supports("avx512bw");
#endif
        return v;
    }();
    return f;
}

const Kernels kTierTables[kTierCount] = {
    {&xorIntoScalar, &gfMulScalar, &gfMulAddScalar, &expandScalar,
     Tier::Scalar},
#if defined(__x86_64__) || defined(__i386__)
    {&xorIntoSse2, &gfMulSse2, &gfMulAddSse2, &expandSse2, Tier::Sse2},
    {&xorIntoAvx2, &gfMulAvx2, &gfMulAddAvx2, &expandAvx2, Tier::Avx2},
    {&xorIntoAvx512, &gfMulAvx512, &gfMulAddAvx512, &expandAvx512,
     Tier::Avx512},
#else
    {nullptr, nullptr, nullptr, nullptr, Tier::Sse2},
    {nullptr, nullptr, nullptr, nullptr, Tier::Avx2},
    {nullptr, nullptr, nullptr, nullptr, Tier::Avx512},
#endif
};

Tier
resolveTier()
{
    Tier tier = bestSupportedTier();
    // getenv, not a CLI flag: the override must also reach ctest-run
    // binaries (equivalence test, golden replays) without re-plumbing
    // every driver, and it cannot affect simulated results by design.
    if (const char *forced = std::getenv("DECLUST_EC_FORCE_TIER")) {
        Tier want{};
        if (!tierFromName(forced, &want)) {
            DECLUST_FATAL("DECLUST_EC_FORCE_TIER=", forced,
                          " is not one of scalar|sse2|avx2|avx512");
        }
        if (want > tier) {
            std::fprintf(stderr,
                         "declust: DECLUST_EC_FORCE_TIER=%s not supported "
                         "on this CPU; clamping to %s\n",
                         forced, tierName(tier));
        } else {
            tier = want;
        }
    }
    return tier;
}

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Sse2:
        return "sse2";
    case Tier::Avx2:
        return "avx2";
    case Tier::Avx512:
        return "avx512";
    }
    return "?";
}

bool
tierFromName(const std::string &name, Tier *out)
{
    for (int i = 0; i < kTierCount; ++i) {
        if (name == tierName(static_cast<Tier>(i))) {
            *out = static_cast<Tier>(i);
            return true;
        }
    }
    return false;
}

bool
tierSupported(Tier tier)
{
    const CpuFeatures &f = cpuFeatures();
    switch (tier) {
    case Tier::Scalar:
        return true;
    case Tier::Sse2:
        return kX86 && f.sse2 && f.ssse3;
    case Tier::Avx2:
        return kX86 && f.avx2;
    case Tier::Avx512:
        return kX86 && f.avx512f && f.avx512bw;
    }
    return false;
}

Tier
bestSupportedTier()
{
    for (int i = kTierCount - 1; i > 0; --i) {
        if (tierSupported(static_cast<Tier>(i)))
            return static_cast<Tier>(i);
    }
    return Tier::Scalar;
}

const Kernels &
kernelsFor(Tier tier)
{
    DECLUST_ASSERT(tierSupported(tier), "kernel tier ", tierName(tier),
                   " not supported on this CPU");
    return kTierTables[static_cast<int>(tier)];
}

const Kernels &
kernels()
{
    static const Kernels &table = kernelsFor(resolveTier());
    return table;
}

Tier
activeTier()
{
    return kernels().tier;
}

std::string
cpuFeatureString()
{
    const CpuFeatures &f = cpuFeatures();
    std::string s;
    auto add = [&s](bool have, const char *name) {
        if (!have)
            return;
        if (!s.empty())
            s += ' ';
        s += name;
    };
    add(f.sse2, "sse2");
    add(f.ssse3, "ssse3");
    add(f.avx2, "avx2");
    add(f.avx512f, "avx512f");
    add(f.avx512bw, "avx512bw");
    if (s.empty())
        s = "none";
    return s;
}

} // namespace declust::ec
