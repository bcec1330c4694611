/**
 * @file
 * Spine digests: a fixed scenario matrix that pins the controller's
 * I/O spine to its exact event schedule.
 *
 * Each scenario runs a small array through one family of recovery
 * flows — degraded reads and redirect+piggyback reconstruction with
 * distributed sparing and copyback, latent-error read repair, hedged
 * reads on a fail-slow disk (with and without latent errors and a
 * second failure), a second failure mid-reconstruction, degraded reads
 * queued behind failing user writes, and scrub repair — with non-zero
 * controller-CPU and XOR overheads, so every DeferredIssue hop and
 * afterXor charge lands on the simulated clock.
 * Every disk access (disk, sector, direction, priority, enqueue /
 * dispatch / completion ticks, status) is folded with mixSeed, then
 * the fault, hedge, reconstruction and scrub accounting and the
 * executed-event count. The digest must be the same on both pending-set
 * implementations and equal the committed constant: any change to issue
 * order, lock timing or loss handling in the spine moves it.
 *
 * After the final drain each scenario also checks the conservation
 * invariants: quiescence, pooled-op balance (io_ops_acquired ==
 * io_ops_released), hedge accounting (wins + wasted <= launched, with
 * equality when no fault can abort a hedge chain), reconstruction loss
 * accounting, and full contents consistency.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/array_sim.hpp"
#include "core/scrubber.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "sim/seed.hpp"
#include "stats/perf_counters.hpp"

namespace declust {
namespace {

/** Running mixSeed fold over everything a scenario observes. */
class Digest
{
  public:
    void u(std::uint64_t x) { h_ = mixSeed(h_, x); }
    void f(double x) { u(std::bit_cast<std::uint64_t>(x)); }

    void
    access(const AccessRecord &r)
    {
        u(static_cast<std::uint64_t>(r.disk));
        u(static_cast<std::uint64_t>(r.startSector));
        u(static_cast<std::uint64_t>(r.sectorCount));
        u(r.isWrite ? 1 : 0);
        u(static_cast<std::uint64_t>(r.priority));
        u(static_cast<std::uint64_t>(r.enqueued));
        u(static_cast<std::uint64_t>(r.dispatched));
        u(static_cast<std::uint64_t>(r.completed));
        u(static_cast<std::uint64_t>(r.status));
    }

    void
    recon(const ReconReport &r)
    {
        f(r.reconstructionTimeSec);
        u(r.cycles);
        u(r.skipped);
        u(r.lostUnits);
        f(r.readPhaseMs.sum());
        f(r.writePhaseMs.sum());
        f(r.cycleMs.sum());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0;
};

/** One scenario's run: the simulation plus its digest. */
struct Scenario
{
    ArraySimulation &sim;
    Digest &digest;

    /** Reconstruct to completion and check the loss books balance. */
    void
    reconstruct()
    {
        const ReconOutcome outcome = sim.reconstruct();
        digest.recon(outcome.report);
        EXPECT_EQ(outcome.report.lostUnits,
                  static_cast<std::uint64_t>(
                      sim.controller().reconLostUnits()));
    }
};

using Script = void (*)(Scenario &);

/** Restores the process-wide pending-set selection on scope exit. */
struct QueueImplGuard
{
    EventQueue::Impl saved = EventQueue::defaultImpl();
    explicit QueueImplGuard(EventQueue::Impl impl)
    {
        EventQueue::setDefaultImpl(impl);
    }
    ~QueueImplGuard() { EventQueue::setDefaultImpl(saved); }
};

/** 5 disks, 20 cylinders x 2 tracks, light mixed load, and the
 * controller-CPU and XOR charges every scenario runs with. */
SimConfig
baseConfig()
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
    cfg.controllerOverheadMs = 0.1;
    cfg.xorOverheadMsPerUnit = 0.05;
    cfg.seed = 7;
    return cfg;
}

/** Disk 0 turns fail-slow (slowed and stalling, but not saturated at
 * this load) and reads hedge after 30 ms. A slow XOR engine widens the
 * window in which the primary can land between a hedge's survivor
 * reads and its combine. */
SimConfig
hedgedConfig()
{
    SimConfig cfg = baseConfig();
    cfg.accessesPerSec = 20.0;
    cfg.xorOverheadMsPerUnit = 1.0;
    cfg.failSlowDisk = 0;
    cfg.failSlowFactor = 2.0;
    cfg.failSlowStallProb = 0.3;
    cfg.failSlowStallMs = 100.0;
    cfg.hedgeAfterMs = 30.0;
    return cfg;
}

/**
 * Run @p script on a fresh simulation over @p impl, drain, check the
 * conservation invariants, and return the digest. @p hedgesExact
 * demands launched == wins + wasted (no fault can abort a chain).
 */
std::uint64_t
runScenario(const SimConfig &cfg, Script script, EventQueue::Impl impl,
            bool hedgesExact = false)
{
    QueueImplGuard guard(impl);
    perfReset();
    Digest d;
    ArraySimulation sim(cfg);
    ArrayController &ctl = sim.controller();
    ctl.setAccessTracer([&d](const AccessRecord &r) { d.access(r); });
    Scenario run{sim, d};
    script(run);
    sim.drain();

    EXPECT_TRUE(ctl.quiescent());
    const PerfCounterBlock perf = perfAggregate();
    EXPECT_EQ(perf.counters[static_cast<std::size_t>(
                  PerfCounter::IoOpAcquired)],
              perf.counters[static_cast<std::size_t>(
                  PerfCounter::IoOpReleased)]);
    const HedgeStats &hs = ctl.hedgeStats();
    EXPECT_LE(hs.wins + hs.wasted, hs.launched);
    if (hedgesExact) {
        EXPECT_EQ(hs.wins + hs.wasted, hs.launched);
    }
    ctl.verifyConsistency();

    const FaultStats &fs = ctl.faultStats();
    d.u(fs.mediumErrors);
    d.u(fs.diskFailedIos);
    d.u(fs.sectorRepairs);
    d.u(fs.unrecoverableStripes);
    d.u(fs.dataLossEvents);
    d.u(fs.userReadsLost);
    d.u(fs.userWritesLost);
    d.u(fs.reconUnitsLost);
    d.u(hs.launched);
    d.u(hs.wins);
    d.u(hs.wasted);
    if (const Scrubber *scrub = sim.scrubber()) {
        const ScrubStats &ss = scrub->stats();
        d.u(ss.unitsScrubbed);
        d.u(ss.defectsRepaired);
        d.u(ss.unitsLost);
        d.u(ss.unitsSkipped);
    }
    d.u(sim.eventQueue().executed());
    d.u(static_cast<std::uint64_t>(sim.eventQueue().now()));
    return d.value();
}

/** Both pending sets must produce @p expected. */
void
expectDigest(const SimConfig &cfg, Script script, std::uint64_t expected,
             bool hedgesExact = false)
{
    const std::uint64_t heap =
        runScenario(cfg, script, EventQueue::Impl::Heap, hedgesExact);
    const std::uint64_t calendar = runScenario(
        cfg, script, EventQueue::Impl::Calendar, hedgesExact);
    EXPECT_EQ(heap, calendar);
    EXPECT_EQ(heap, expected) << std::hex << "digest 0x" << heap;
}

TEST(SpineDigest, DegradedPiggybackReconWithSparingAndCopyback)
{
    SimConfig cfg = baseConfig();
    cfg.numDisks = 7;
    cfg.algorithm = ReconAlgorithm::RedirectPiggyback;
    cfg.reconProcesses = 2;
    cfg.distributedSparing = true;
    cfg.seed = 11;
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.3, 0.5);
        r.sim.failAndRunDegraded(0.3, 0.5, 2);
        r.reconstruct();
        const std::int64_t remapped = r.sim.controller().remappedCount();
        EXPECT_GT(remapped, 0);
        const CopybackOutcome cb = r.sim.copyback();
        EXPECT_EQ(cb.unitsCopied, remapped);
        r.digest.u(static_cast<std::uint64_t>(cb.unitsCopied));
        r.digest.f(cb.copybackTimeSec);
    }, 0xd06e3a46960833c2ull);
}

TEST(SpineDigest, LatentErrorReadRepair)
{
    SimConfig cfg = baseConfig();
    cfg.latentErrorProb = 2e-3;
    cfg.accessUnits = 3; // multi-part requests and large writes too
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.5, 4.0);
        EXPECT_GT(r.sim.controller().faultStats().sectorRepairs, 0u);
        r.sim.failAndRunDegraded(0.3, 1.0, 1);
        r.reconstruct();
    }, 0x1e6fb7f35463114cull);
}

TEST(SpineDigest, HedgedReadsOnFailSlowDisk)
{
    expectDigest(hedgedConfig(), [](Scenario &r) {
        r.sim.runFaultFree(0.5, 2.0);
        EXPECT_GT(r.sim.controller().hedgeStats().wins, 0u);
    }, 0x912540e2b4e4336dull, /*hedgesExact=*/true);
}

TEST(SpineDigest, HedgedReadsWithLatentErrors)
{
    SimConfig cfg = hedgedConfig();
    cfg.latentErrorProb = 1e-2;
    cfg.failSlowDefectProb = 0.02;
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.5, 8.0);
        EXPECT_GT(r.sim.controller().faultStats().sectorRepairs, 0u);
        r.sim.failAndRunDegraded(0.3, 0.5, 1);
        r.reconstruct();
    }, 0xfa18068786091d82ull);
}

TEST(SpineDigest, SecondFailureMidReconstruction)
{
    SimConfig cfg = baseConfig();
    cfg.algorithm = ReconAlgorithm::RedirectPiggyback;
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.3, 0.5);
        r.sim.failAndRunDegraded(0.3, 0.5, 1);
        ArrayController &ctl = r.sim.controller();
        r.sim.eventQueue().scheduleIn(secToTicks(0.5), [&ctl] {
            if (ctl.reconstructing() && ctl.secondFailedDisk() < 0)
                ctl.failSecondDisk(3);
        });
        r.reconstruct();
        EXPECT_GT(ctl.unrecoverableStripeCount(), 0);
        r.sim.drain();
        r.reconstruct(); // the promoted second failure
    }, 0x26988412720f89d9ull);
}

TEST(SpineDigest, HedgedReadsThroughSecondFailure)
{
    SimConfig cfg = hedgedConfig();
    cfg.algorithm = ReconAlgorithm::Redirect;
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.3, 0.5);
        r.sim.failAndRunDegraded(0.3, 0.5, 1);
        ArrayController &ctl = r.sim.controller();
        r.sim.eventQueue().scheduleIn(secToTicks(0.5), [&ctl] {
            if (ctl.reconstructing() && ctl.secondFailedDisk() < 0)
                ctl.failSecondDisk(3);
        });
        r.reconstruct();
    }, 0x86307e3eb0d5b059ull);
}

/**
 * Mid-reconstruction, at every fourth offset of the failed disk that
 * holds a not-yet-rebuilt data unit, a user write to another data unit
 * of its stripe is issued and then a degraded read of the unit: the
 * write takes the stripe lock and the read waits for it. Latent errors fail some of the writes' pre-reads,
 * which leaves the stripe unrecoverable, so the waiting read fails its
 * lock-time re-check and completes at the hand-off, before the write
 * does. Such a read must not abandon the unit for the reconstruction
 * sweep, which meets the lost stripe on its own.
 */
TEST(SpineDigest, DegradedReadWaitsBehindFailingWrite)
{
    SimConfig cfg = baseConfig();
    cfg.latentErrorProb = 5e-3;
    expectDigest(cfg, [](Scenario &r) {
        struct Pair
        {
            bool writeDone = false;
            bool readFirst = false;
        };
        std::vector<Pair> pairs;
        r.sim.runFaultFree(0.3, 0.5);
        r.sim.failAndRunDegraded(0.3, 0.5, 1);
        ArrayController &ctl = r.sim.controller();
        r.sim.eventQueue().scheduleIn(secToTicks(0.2), [&ctl, &pairs] {
            ASSERT_TRUE(ctl.reconstructing());
            const Layout &lay = ctl.layout();
            const int G = lay.stripeWidth();
            for (int off = 0; off < lay.unitsPerDisk(); off += 4) {
                const auto su = lay.invert(ctl.failedDisk(), off);
                if (!su || su->pos >= G - 1 || ctl.isReconstructed(off) ||
                    ctl.stripeUnrecoverable(su->stripe))
                    continue;
                const std::size_t i = pairs.size();
                pairs.emplace_back();
                const int other = su->pos == 0 ? 1 : 0;
                ctl.writeUnit(lay.stripeToDataUnit({su->stripe, other}),
                              [&pairs, i] { pairs[i].writeDone = true; });
                ctl.readUnit(lay.stripeToDataUnit(*su), [&pairs, i] {
                    pairs[i].readFirst = !pairs[i].writeDone;
                });
            }
        });
        r.reconstruct();
        r.sim.drain(); // the pairs' completions reference `pairs`
        std::uint64_t handoffLosses = 0;
        for (const Pair &p : pairs) {
            EXPECT_TRUE(p.writeDone);
            handoffLosses += p.readFirst ? 1 : 0;
        }
        EXPECT_GT(handoffLosses, 0u);
        r.digest.u(pairs.size());
        r.digest.u(handoffLosses);
    }, 0xd37b30b410108e0cull);
}

TEST(SpineDigest, ScrubRepair)
{
    SimConfig cfg = baseConfig();
    cfg.latentErrorProb = 3e-3;
    cfg.scrubIntervalSec = 1.0;
    expectDigest(cfg, [](Scenario &r) {
        r.sim.runFaultFree(0.5, 8.0);
        EXPECT_GT(r.sim.scrubber()->stats().defectsRepaired, 0u);
    }, 0xd51223e529bbdc70ull);
}

} // namespace
} // namespace declust
