/**
 * @file
 * Tests for the real-bytes data plane: the generative byte expansion's
 * linearity/injectivity, combine cross-checking (pass, fail, and the
 * empty-combine identity), verify-mode integration across degraded
 * reads, all four reconstruction algorithms, and the fault-injection
 * read-repair path, timing neutrality of verify mode, and the
 * controller's per-unit XOR charge basis.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "core/array_sim.hpp"
#include "designs/generators.hpp"
#include "ec/data_plane.hpp"
#include "layout/declustered.hpp"

namespace declust {
namespace {

constexpr std::size_t kUnit = 4096;
/** The byte image repeats every 512 bytes; 4104 adds one word past
 * the last whole period, so each check also covers the period tail. */
constexpr std::size_t kUnitSizes[] = {kUnit, 4104};

std::vector<std::uint8_t>
expand(const ec::DataPlane &plane, std::uint64_t v)
{
    // Not zero-filled: a byte the kernel leaves unwritten would keep
    // 0xa5 and break the linearity check below.
    std::vector<std::uint8_t> out(plane.unitBytes(), 0xa5);
    plane.expandInto(out.data(), v);
    return out;
}

TEST(Expansion, IsGf2LinearAndInjective)
{
    for (std::size_t unit : kUnitSizes) {
        SCOPED_TRACE(unit);
        ec::DataPlane plane(ec::DataPlaneMode::Verify, unit);
        std::uint64_t s = 0x9e3779b97f4a7c15ull;
        std::set<std::vector<std::uint8_t>> images;
        for (int i = 0; i < 64; ++i) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            const std::uint64_t a = s;
            const std::uint64_t b = ~s * 0x2545f4914f6cdd1dull;

            // Word 0 is the value itself: the map is trivially injective.
            const auto ea = expand(plane, a);
            std::uint64_t word0 = 0;
            std::memcpy(&word0, ea.data(), 8);
            EXPECT_EQ(word0, a);
            EXPECT_TRUE(images.insert(ea).second);

            // GF(2) linearity: expand(a) ^ expand(b) == expand(a ^ b).
            auto sum = ea;
            const auto eb = expand(plane, b);
            for (std::size_t k = 0; k < sum.size(); ++k)
                sum[k] ^= eb[k];
            EXPECT_EQ(sum, expand(plane, a ^ b));
        }
        // expand(0) is all-zero, the XOR identity.
        EXPECT_EQ(expand(plane, 0),
                  std::vector<std::uint8_t>(plane.unitBytes(), 0));
    }
}

TEST(DataPlane, CheckCombineAcceptsTrueParityAndCounts)
{
    for (std::size_t unit : kUnitSizes) {
        SCOPED_TRACE(unit);
        ec::DataPlane plane(ec::DataPlaneMode::Verify, unit);
        const std::uint64_t vals[] = {0x1111, 0xf0f0f0f0f0f0f0f0ull,
                                      0xdeadbeef12345678ull};
        plane.checkCombine("test", vals, 3,
                           vals[0] ^ vals[1] ^ vals[2]);
        // The empty combine checks the XOR identity (expected == 0).
        plane.checkCombine("test-empty", nullptr, 0, 0);

        const ec::DataPlane::Stats &st = plane.stats();
        EXPECT_EQ(st.combinesChecked, 2u);
        EXPECT_EQ(st.unitsXored, 2u); // 3-way combine streams 2 sources
        EXPECT_EQ(st.bytesXored, 2u * unit);
    }
}

TEST(DataPlane, CheckCombinePanicsOnParityMismatch)
{
    for (std::size_t unit : kUnitSizes) {
        SCOPED_TRACE(unit);
        ec::DataPlane plane(ec::DataPlaneMode::Verify, unit);
        const std::uint64_t vals[] = {0x1111, 0x2222};
        EXPECT_THROW(plane.checkCombine("bad", vals, 2, 0x3334),
                     InternalError);
        EXPECT_THROW(plane.checkCombine("bad-empty", nullptr, 0, 1),
                     InternalError);
        // A single-value combine must equal that value.
        plane.checkCombine("identity", vals, 1, 0x1111);
        EXPECT_THROW(plane.checkCombine("identity-bad", vals, 1, 0x1110),
                     InternalError);
    }
}

// ---------------------------------------------------------------------
// Verify-mode integration: the full simulated I/O paths with real
// byte math cross-checked at every combine site.

SimConfig
smallConfig(ReconAlgorithm algorithm, ec::DataPlaneMode mode)
{
    SimConfig cfg;
    cfg.numDisks = 5;
    cfg.stripeUnits = 4;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g;
    cfg.accessesPerSec = 40.0;
    cfg.readFraction = 0.5;
    cfg.algorithm = algorithm;
    cfg.reconProcesses = 8;
    cfg.dataPlane = mode;
    cfg.seed = 7;
    return cfg;
}

class VerifyModeRecon : public ::testing::TestWithParam<ReconAlgorithm>
{
};

TEST_P(VerifyModeRecon, FullCycleCrossChecksEveryCombine)
{
    // Fault-free RMW traffic, degraded reads/writes, and a full rebuild
    // under each algorithm — every parity combine on those paths must
    // byte-match the shadow model or the data plane panics.
    ArraySimulation sim(smallConfig(GetParam(),
                                    ec::DataPlaneMode::Verify));
    EXPECT_EQ(sim.controller().dataPlane(), ec::DataPlaneMode::Verify);
    sim.runFaultFree(0.3, 0.5);
    const std::uint64_t faultFree =
        sim.controller().dataPlaneStats().combinesChecked;
    EXPECT_GT(faultFree, 0u) << "RMW combines were not checked";

    sim.failAndRunDegraded(0.3, 0.5, 1);
    const std::uint64_t degraded =
        sim.controller().dataPlaneStats().combinesChecked;
    EXPECT_GT(degraded, faultFree)
        << "degraded reads/writes were not checked";

    sim.reconstruct();
    const ec::DataPlane::Stats st = sim.controller().dataPlaneStats();
    EXPECT_GT(st.combinesChecked, degraded)
        << "reconstruction combines were not checked";
    EXPECT_GT(st.bytesXored, 0u);
    EXPECT_EQ(sim.controller().failedDisk(), -1);
    sim.drain();
    sim.controller().verifyConsistency();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, VerifyModeRecon,
    ::testing::Values(ReconAlgorithm::Baseline,
                      ReconAlgorithm::UserWrites,
                      ReconAlgorithm::Redirect,
                      ReconAlgorithm::RedirectPiggyback));

TEST(VerifyMode, ReadRepairUnderFaultInjectionByteMatches)
{
    // Latent sector errors force the read-repair path (regenerate from
    // parity, rewrite the remapped home); in verify mode each of those
    // regenerations is byte-checked against the shadow model.
    SimConfig cfg = smallConfig(ReconAlgorithm::Baseline,
                                ec::DataPlaneMode::Verify);
    cfg.latentErrorProb = 2e-3;
    ArraySimulation sim(cfg);
    sim.runFaultFree(1.0, 20.0);
    sim.drain();

    EXPECT_GT(sim.controller().faultStats().sectorRepairs, 0u);
    EXPECT_GT(sim.controller().dataPlaneStats().combinesChecked, 0u);
    sim.controller().verifyConsistency();
}

TEST(VerifyMode, IsTimingNeutral)
{
    // Verify mode does host-side byte math only — simulated time, and
    // therefore every statistic, must be identical to mode off.
    auto run = [](ec::DataPlaneMode mode) {
        ArraySimulation sim(smallConfig(ReconAlgorithm::Redirect, mode));
        sim.runFaultFree(0.3, 0.5);
        sim.failAndRunDegraded(0.3, 0.5, 1);
        const ReconOutcome outcome = sim.reconstruct();
        return std::pair<double, double>(
            outcome.report.reconstructionTimeSec,
            outcome.userDuringRecon.meanMs);
    };
    EXPECT_EQ(run(ec::DataPlaneMode::Off),
              run(ec::DataPlaneMode::Verify));
}

// ---------------------------------------------------------------------
// XOR charge basis: per-unit and additive.

std::unique_ptr<ArrayController>
buildController(EventQueue &eq, const ArrayParams &params)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 30;
    g.tracksPerCyl = 2;
    ArrayParams p = params;
    p.geometry = g;
    const int units = static_cast<int>(g.totalSectors() / 8);
    return std::make_unique<ArrayController>(
        eq, std::make_unique<DeclusteredLayout>(makeCompleteDesign(5, 4),
                                                units),
        p);
}

TEST(XorCharge, PerUnitBasisIsAdditiveAcrossBatches)
{
    EventQueue eq;
    ArrayParams params;
    params.xorOverheadMsPerUnit = 0.05; // 50 us = 50 ticks per unit
    auto array = buildController(eq, params);
    EXPECT_EQ(array->xorChargeTicks(1), 50u);
    EXPECT_EQ(array->xorChargeTicks(3), 150u);
    // The per-unit basis is the contract: charging one G-1-unit combine
    // equals charging G-1 single-unit combines, for any constant —
    // including ones that do not land on a whole tick (rounding happens
    // once, in the per-unit constant, never per call).
    ArrayParams sub;
    sub.xorOverheadMsPerUnit = 0.0006; // 0.6 us: rounds to 1 tick/unit
    auto array2 = buildController(eq, sub);
    const Tick perUnit = array2->xorChargeTicks(1);
    EXPECT_EQ(perUnit, 1u);
    for (int n : {2, 3, 7, 64})
        EXPECT_EQ(array2->xorChargeTicks(n),
                  static_cast<Tick>(n) * perUnit);
}

TEST(XorCharge, ZeroConstantChargesNothing)
{
    EventQueue eq;
    auto array = buildController(eq, ArrayParams{});
    EXPECT_EQ(array->xorChargeTicks(1), 0u);
    EXPECT_EQ(array->xorChargeTicks(1000), 0u);
}

TEST(XorCharge, VerifyModeKeepsHandPickedConstant)
{
    // Verify changes no timing: the hand-picked constant still governs.
    EventQueue eq;
    ArrayParams params;
    params.dataPlane = ec::DataPlaneMode::Verify;
    params.xorOverheadMsPerUnit = 0.05;
    auto array = buildController(eq, params);
    EXPECT_EQ(array->xorChargeTicks(1), 50u);
}

} // namespace
} // namespace declust
