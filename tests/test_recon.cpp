/**
 * @file
 * Tests for the reconstruction engine: sweep completion under all four
 * algorithms, single vs. parallel processes, throttling, skip
 * accounting, tail-window statistics, and the user backlog left when
 * a rebuild ends.
 */
#include <gtest/gtest.h>

#include "core/array_sim.hpp"
#include "core/reconstructor.hpp"

namespace declust {
namespace {

SimConfig
smallConfig(int G, ReconAlgorithm algorithm, int processes,
            double rate = 40.0)
{
    SimConfig cfg;
    cfg.numDisks = 5;
    cfg.stripeUnits = G;
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 20;
    g.tracksPerCyl = 2;
    cfg.geometry = g; // 240 units per disk
    cfg.accessesPerSec = rate;
    cfg.readFraction = 0.5;
    cfg.algorithm = algorithm;
    cfg.reconProcesses = processes;
    cfg.seed = 7;
    return cfg;
}

class ReconAlgorithms
    : public ::testing::TestWithParam<std::tuple<ReconAlgorithm, int>>
{
};

TEST_P(ReconAlgorithms, CompletesAndVerifies)
{
    const auto [algorithm, processes] = GetParam();
    ArraySimulation sim(smallConfig(4, algorithm, processes));
    sim.runFaultFree(0.5, 1.0);
    sim.failAndRunDegraded(0.5, 1.0, 1);
    const ReconOutcome outcome = sim.reconstruct();

    EXPECT_GT(outcome.report.reconstructionTimeSec, 0.0);
    EXPECT_GT(outcome.report.cycles, 0u);
    // Every offset is either swept or skipped.
    EXPECT_EQ(outcome.report.cycles + outcome.report.skipped,
              static_cast<std::uint64_t>(
                  sim.controller().unitsPerDisk()));
    // The controller verified the rebuilt contents in
    // finishReconstruction(); the array must now be healthy.
    EXPECT_EQ(sim.controller().failedDisk(), -1);
    sim.drain();
    sim.controller().verifyConsistency();
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ReconAlgorithms,
    ::testing::Combine(
        ::testing::Values(ReconAlgorithm::Baseline,
                          ReconAlgorithm::UserWrites,
                          ReconAlgorithm::Redirect,
                          ReconAlgorithm::RedirectPiggyback),
        ::testing::Values(1, 8)));

TEST(Reconstructor, ParallelFasterThanSingle)
{
    auto run = [](int processes) {
        ArraySimulation sim(
            smallConfig(4, ReconAlgorithm::Baseline, processes, 20.0));
        sim.runFaultFree(0.2, 0.2);
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct().report.reconstructionTimeSec;
    };
    const double single = run(1);
    const double parallel = run(8);
    EXPECT_LT(parallel, single * 0.6);
}

TEST(Reconstructor, ReportsTheUserBacklogLeftAtTheEnd)
{
    auto backlog = [](double rate) {
        ArraySimulation sim(
            smallConfig(4, ReconAlgorithm::Baseline, 1, rate));
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct().userBacklogAtEnd;
    };
    // 20 req/s leaves the degraded five-disk array mostly idle: nothing
    // is queued when the rebuild completes.
    EXPECT_EQ(backlog(20.0), 0);
    // 180 req/s saturates it: the queue grows through the ~200 s
    // rebuild (which at 200 req/s would never finish) and over a
    // hundred ops are left.
    EXPECT_GT(backlog(180.0), 100);
}

TEST(Reconstructor, PhaseTimesPopulated)
{
    ArraySimulation sim(smallConfig(4, ReconAlgorithm::Baseline, 1));
    sim.failAndRunDegraded(0.2, 0.2, 0);
    const ReconOutcome outcome = sim.reconstruct();
    const ReconReport &rep = outcome.report;
    EXPECT_EQ(rep.readPhaseMs.count(), rep.cycles);
    EXPECT_EQ(rep.writePhaseMs.count(), rep.cycles);
    EXPECT_GT(rep.readPhaseMs.mean(), 0.0);
    EXPECT_GT(rep.writePhaseMs.mean(), 0.0);
    // Read phase (max of G-1 reads on loaded disks) dominates the
    // sequential-ish replacement write.
    EXPECT_GT(rep.readPhaseMs.mean(), rep.writePhaseMs.mean());
    // Tail window holds at most the configured number of cycles.
    EXPECT_LE(rep.tailReadPhaseMs.count(), 300u);
    EXPECT_GT(rep.tailReadPhaseMs.count(), 0u);
}

TEST(Reconstructor, ThrottleSlowsSweep)
{
    auto run = [](Tick throttle) {
        SimConfig cfg = smallConfig(4, ReconAlgorithm::Baseline, 1, 20.0);
        cfg.reconThrottle = throttle;
        ArraySimulation sim(cfg);
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct().report.reconstructionTimeSec;
    };
    const double normal = run(0);
    const double throttled = run(msToTicks(50));
    EXPECT_GT(throttled, normal * 1.5);
}

TEST(Reconstructor, ThrottleImprovesUserResponse)
{
    auto run = [](Tick throttle) {
        SimConfig cfg = smallConfig(4, ReconAlgorithm::Baseline, 8, 60.0);
        cfg.reconThrottle = throttle;
        ArraySimulation sim(cfg);
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct().userDuringRecon.meanMs;
    };
    const double aggressive = run(0);
    const double gentle = run(msToTicks(40));
    EXPECT_LT(gentle, aggressive);
}

TEST(Reconstructor, RunsExactlyOnce)
{
    ArraySimulation sim(smallConfig(4, ReconAlgorithm::Baseline, 1));
    sim.failAndRunDegraded(0.2, 0.2, 0);
    ReconConfig rc;
    Reconstructor recon(sim.controller(), rc);
    sim.workload().stop();
    bool complete = false;
    recon.start([&complete] { complete = true; });
    sim.eventQueue().runUntilCondition([&complete] { return complete; });
    EXPECT_TRUE(recon.finished());
    EXPECT_ANY_THROW(recon.start([] {}));
}

TEST(Reconstructor, NoWorkloadRunsAtFullSpeed)
{
    // Without user traffic, reconstruction should be far faster than
    // with it (sanity on interference accounting).
    auto run = [](double rate, bool workload) {
        ArraySimulation sim(
            smallConfig(4, ReconAlgorithm::Baseline, 8, rate));
        sim.failAndRunDegraded(0.2, 0.2, 0);
        if (!workload)
            sim.workload().stop();
        return sim.reconstruct().report.reconstructionTimeSec;
    };
    EXPECT_LT(run(60.0, false), run(60.0, true));
}

TEST(Reconstructor, PriorityLowersUserResponseAtReconCost)
{
    auto run = [](bool priority) {
        SimConfig cfg = smallConfig(4, ReconAlgorithm::Baseline, 8, 60.0);
        cfg.prioritizeUserIo = priority;
        ArraySimulation sim(cfg);
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct();
    };
    const ReconOutcome plain = run(false);
    const ReconOutcome prioritized = run(true);
    EXPECT_LT(prioritized.userDuringRecon.meanMs,
              plain.userDuringRecon.meanMs);
    EXPECT_GT(prioritized.report.reconstructionTimeSec,
              plain.report.reconstructionTimeSec);
}

TEST(Reconstructor, PriorityStillCompletesAndVerifies)
{
    SimConfig cfg = smallConfig(4, ReconAlgorithm::Redirect, 8, 60.0);
    cfg.prioritizeUserIo = true;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.2, 0.2, 0);
    const ReconOutcome outcome = sim.reconstruct();
    EXPECT_GT(outcome.report.cycles, 0u);
    sim.drain();
    sim.controller().verifyConsistency();
}

TEST(Reconstructor, SmallerUnitsMeanMoreCycles)
{
    auto cyclesWithUnit = [](int unitSectors) {
        SimConfig cfg = smallConfig(4, ReconAlgorithm::Baseline, 8, 10.0);
        cfg.unitSectors = unitSectors;
        ArraySimulation sim(cfg);
        sim.failAndRunDegraded(0.1, 0.1, 0);
        return sim.reconstruct().report.cycles;
    };
    EXPECT_GT(cyclesWithUnit(4), cyclesWithUnit(16));
}

TEST(Reconstructor, SaturatedControllerCpuDominates)
{
    // With a slow serial controller CPU, recovery slows dramatically —
    // the architectural-bottleneck effect of section 9 / Chervenak91.
    auto run = [](double cpuMs) {
        SimConfig cfg = smallConfig(4, ReconAlgorithm::Baseline, 8, 40.0);
        cfg.controllerOverheadMs = cpuMs;
        cfg.xorOverheadMsPerUnit = cpuMs > 0 ? 0.05 : 0.0;
        ArraySimulation sim(cfg);
        sim.failAndRunDegraded(0.2, 0.2, 0);
        return sim.reconstruct();
    };
    const ReconOutcome fast = run(0.0);
    const ReconOutcome slow = run(3.0);
    EXPECT_GT(slow.report.reconstructionTimeSec,
              fast.report.reconstructionTimeSec * 1.5);
    EXPECT_GT(slow.userDuringRecon.meanMs, fast.userDuringRecon.meanMs);
}

TEST(Reconstructor, ModestCpuOverheadStillVerifies)
{
    SimConfig cfg = smallConfig(4, ReconAlgorithm::RedirectPiggyback, 8,
                                30.0);
    cfg.controllerOverheadMs = 0.3;
    cfg.xorOverheadMsPerUnit = 0.05;
    ArraySimulation sim(cfg);
    sim.runFaultFree(0.2, 0.5);
    EXPECT_GT(sim.controller().cpuUtilization(), 0.0);
    sim.failAndRunDegraded(0.2, 0.2, 0);
    sim.reconstruct();
    sim.drain();
    sim.controller().verifyConsistency();
}

TEST(Reconstructor, VulnerabilityDecaysDuringReconstruction)
{
    // As units land on the replacement, a hypothetical second failure
    // destroys monotonically fewer stripes, reaching zero at completion.
    ArraySimulation sim(smallConfig(4, ReconAlgorithm::Baseline, 1, 5.0));
    sim.failAndRunDegraded(0.1, 0.1, 0);
    ArrayController &array = sim.controller();
    sim.workload().stop();

    const std::int64_t before = array.unrecoverableStripesIf(2);
    EXPECT_GT(before, 0);

    ReconConfig rc;
    Reconstructor recon(array, rc);
    bool complete = false;
    recon.start([&complete] { complete = true; });

    std::int64_t last = before;
    bool monotone = true;
    while (!complete && sim.eventQueue().step()) {
        if (!array.reconstructing())
            break; // finished: vulnerability is zero by definition
        const std::int64_t now = array.unrecoverableStripesIf(2);
        monotone = monotone && now <= last;
        last = now;
    }
    sim.eventQueue().runUntilCondition([&complete] { return complete; });
    EXPECT_TRUE(complete);
    EXPECT_TRUE(monotone);
    // The last observation before completion is within one stripe of 0.
    EXPECT_LE(last, 1);
}

TEST(Reconstructor, SkippedCountsUserRebuiltUnits)
{
    // With write-through algorithms and heavy writes, some units are
    // rebuilt by users and the sweep must skip them.
    SimConfig cfg = smallConfig(4, ReconAlgorithm::UserWrites, 1, 60.0);
    cfg.readFraction = 0.0;
    ArraySimulation sim(cfg);
    sim.failAndRunDegraded(0.2, 1.0, 0);
    const ReconOutcome outcome = sim.reconstruct();
    const auto unmapped = static_cast<std::uint64_t>(
        sim.controller().layout().unmappedUnits() /
        sim.controller().numDisks());
    EXPECT_GT(outcome.report.skipped, unmapped);
}

} // namespace
} // namespace declust
