/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches.
 *
 * Every bench accepts the same scaling knobs:
 *   --tracks N     tracks per cylinder (default 1; the paper's disk has
 *                  14 — seek/rotation behaviour is identical, capacity
 *                  and thus reconstruction sweep length scale with N)
 *   --cylinders N  cylinders (default 949, the full IBM 0661)
 *   --warmup S / --measure S  measurement window lengths
 *   --seed N       rng seed
 *   --csv          emit CSV instead of an aligned table
 *   --jobs N       run independent sweep points on N worker threads
 *                  (0 = all hardware threads; per-point results are
 *                  bit-identical whatever N — see TrialRunner)
 *   --json FILE    append a machine-readable run record (events/sec,
 *                  wall clock, simulated-to-wall time ratio)
 *
 * Paper-figure drivers additionally accept
 *   --shards S     split every sweep point across S independent array
 *                  shards (own event queue, own shardSeed-derived
 *                  sub-seed, a proportional slice of the work), merged
 *                  deterministically in shard-index order. For a fixed
 *                  (seed, shards) the output is byte-identical at any
 *                  --jobs and either --event-queue; --shards 1 is the
 *                  identity and reproduces unsharded goldens exactly.
 *
 * PD_FULL=1 in the environment selects the paper's full-scale disk
 * (equivalent to --tracks 14), trading minutes of wall-clock for
 * paper-scale absolute reconstruction times.
 *
 * Drivers describe their sweep as a vector of Trial closures — one per
 * grid point, each standing up its own ArraySimulation — and hand it to
 * runTrials(), which fans them across the worker pool and splices the
 * returned rows back in trial order, so the emitted table is identical
 * to a serial run.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/array_sim.hpp"
#include "harness/json_writer.hpp"
#include "harness/progress.hpp"
#include "harness/trial_runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/seed.hpp"
#include "sim/time.hpp"
#include "stats/perf_counters.hpp"
#include "util/error.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace declust::bench {

/** The paper's G sweep: alpha = 0.1 ... 1.0 on 21 disks. */
inline std::vector<int>
paperStripeSizes()
{
    return {3, 4, 5, 6, 10, 18, 21};
}

/** Register the shared scaling options. */
inline void
addCommonOptions(Options &opts)
{
    opts.add("tracks", "1", "tracks per cylinder (14 = paper scale)");
    opts.add("cylinders", "949", "cylinders (949 = paper scale)");
    opts.add("warmup", "5", "warmup seconds per phase");
    opts.add("measure", "30", "measured seconds per phase");
    opts.add("seed", "1", "rng seed");
    opts.addFlag("csv", "emit csv");
    opts.add("jobs", "1",
             "worker threads for the sweep (0 = hardware threads)");
    opts.add("json", "",
             "write a machine-readable run record to this file");
    opts.add("event-queue", "",
             std::string("event-queue implementation: heap | calendar "
                         "(default: ") +
                 EventQueue::implName(EventQueue::defaultImpl()) + ")");
    opts.add("data-plane", "off",
             "erasure-code data plane: off (value-level parity math "
             "only) | verify (real SIMD byte XOR cross-checked at every "
             "combine; no timing change)");
}

/**
 * Apply --event-queue and --data-plane to their process-wide defaults.
 * Call right after opts.parse(), before any simulation is constructed.
 * Golden outputs are byte-identical under either event queue and under
 * data-plane off/verify (the determinism contract; verify changes no
 * simulated timing) — only wall-clock changes. @return false on an
 * unknown name.
 */
inline bool
applyEventQueueOption(const Options &opts)
{
    const std::string plane = opts.getString("data-plane");
    ec::DataPlaneMode mode{};
    if (!ec::dataPlaneModeFromName(plane, &mode)) {
        std::cerr << "unknown --data-plane '" << plane
                  << "' (expected: off | verify)\n";
        return false;
    }
    ec::selectDataPlane(mode);
    return selectEventQueue(opts.getString("event-queue"));
}

/**
 * Register the gray-failure robustness knobs (all default off, so a
 * driver gaining these flags changes no golden output). Drivers that
 * stand up ArraySimulations apply them with applyRobustnessOptions.
 */
inline void
addRobustnessOptions(Options &opts)
{
    opts.add("fail-slow", "",
             "degrade one disk: DISK,FACTOR[,STALLPROB,STALLMS"
             "[,DEFECTPROB]] (empty = off)");
    opts.add("hedge-after", "0", "hedged-read deadline in ms (0 = off)");
    opts.add("scrub-interval", "0",
             "seconds per full background scrub pass (0 = off)");
}

/**
 * Apply the robustness options to @p cfg. Returns false (after
 * printing to stderr) on a malformed --fail-slow spec; value
 * validation itself lives in the library (ConfigError on, e.g., a
 * negative hedge deadline or a slowdown below 1).
 */
inline bool
applyRobustnessOptions(const Options &opts, SimConfig *cfg)
{
    cfg->hedgeAfterMs = opts.getDouble("hedge-after");
    cfg->scrubIntervalSec = opts.getDouble("scrub-interval");
    const std::string spec = opts.getString("fail-slow");
    if (spec.empty())
        return true;
    const std::vector<double> f = opts.getDoubleList("fail-slow");
    // Stall probability and duration only make sense together.
    if (f.size() != 2 && f.size() != 4 && f.size() != 5) {
        std::cerr << "--fail-slow expects DISK,FACTOR[,STALLPROB,"
                     "STALLMS[,DEFECTPROB]], got '"
                  << spec << "'\n";
        return false;
    }
    cfg->failSlowDisk = static_cast<int>(f[0]);
    cfg->failSlowFactor = f[1];
    if (f.size() >= 4) {
        cfg->failSlowStallProb = f[2];
        cfg->failSlowStallMs = f[3];
    }
    if (f.size() >= 5)
        cfg->failSlowDefectProb = f[4];
    return true;
}

/**
 * The run's complete fault-injection / robustness configuration, read
 * from whichever of the knobs the driver registered (unregistered
 * knobs report their library defaults). Every --json record carries
 * this, so a recorded run can be tied back to the exact injection
 * setup that produced it.
 */
inline JsonObject
faultModelJson(const Options &opts)
{
    SimConfig cfg;
    if (opts.has("fail-slow"))
        applyRobustnessOptions(opts, &cfg);
    if (opts.has("latent"))
        cfg.latentErrorProb = opts.getDouble("latent");
    if (opts.has("transient"))
        cfg.transientReadProb = opts.getDouble("transient");
    if (opts.has("retries"))
        cfg.faultMaxRetries = static_cast<int>(opts.getInt("retries"));
    JsonObject fm;
    fm.set("latent_error_prob", cfg.latentErrorProb)
        .set("transient_read_prob", cfg.transientReadProb)
        .set("fault_max_retries", cfg.faultMaxRetries)
        .set("fail_slow_disk", cfg.failSlowDisk)
        .set("fail_slow_factor", cfg.failSlowFactor)
        .set("fail_slow_stall_prob", cfg.failSlowStallProb)
        .set("fail_slow_stall_ms", cfg.failSlowStallMs)
        .set("fail_slow_defect_prob", cfg.failSlowDefectProb)
        .set("hedge_after_ms", cfg.hedgeAfterMs)
        .set("scrub_interval_sec", cfg.scrubIntervalSec);
    return fm;
}

/**
 * Register the cluster-topology knobs (bench_cluster). Every --json
 * record carries a "cluster" block (clusterJson) whether or not these
 * are registered, so cluster and single-array records share a schema.
 */
inline void
addClusterOptions(Options &opts)
{
    opts.add("cluster-arrays", "8", "arrays in the serving cluster");
    opts.add("cluster-workers", "1",
             "worker threads advancing the arrays' event cores "
             "(0 = hardware threads; output is byte-identical at any "
             "count)");
    opts.add("zipf-alpha", "0.9",
             "Zipf popularity skew over the object population "
             "(0 = uniform)");
    opts.add("objects", "100000",
             "object population the router places across the cluster");
    opts.add("cluster-rps", "400",
             "cluster-wide open-loop request rate, requests/sec");
    opts.add("epoch", "0.25",
             "virtual-time barrier epoch, seconds");
}

/**
 * The run's cluster-topology configuration for the --json record.
 * Drivers that never registered the cluster knobs report arrays = 0
 * ("not a cluster run") with the remaining fields at their library
 * defaults, mirroring how faultModelJson handles unregistered knobs.
 */
inline JsonObject
clusterJson(const Options &opts)
{
    JsonObject c;
    c.set("arrays", opts.has("cluster-arrays")
                        ? static_cast<std::int64_t>(
                              opts.getInt("cluster-arrays"))
                        : std::int64_t{0})
        .set("workers", opts.has("cluster-workers")
                            ? static_cast<std::int64_t>(
                                  opts.getInt("cluster-workers"))
                            : std::int64_t{0})
        .set("zipf_alpha",
             opts.has("zipf-alpha") ? opts.getDouble("zipf-alpha") : 0.0)
        .set("objects", opts.has("objects")
                            ? static_cast<std::int64_t>(
                                  opts.getInt("objects"))
                            : std::int64_t{0})
        .set("requests_per_sec",
             opts.has("cluster-rps") ? opts.getDouble("cluster-rps")
                                     : 0.0)
        .set("epoch_sec",
             opts.has("epoch") ? opts.getDouble("epoch") : 0.0);
    return c;
}

/** Register --shards (drivers that support per-trial sharding). */
inline void
addShardOption(Options &opts)
{
    opts.add("shards", "1",
             "split each sweep point across N independent array shards "
             "(deterministic merge; 1 = unsharded)");
}

/** Validated --shards value; 0 (after printing to stderr) on error. */
inline int
shardsFrom(const Options &opts)
{
    const long shards = opts.getInt("shards");
    if (shards < 1 || shards > 64) {
        std::cerr << "--shards must be in [1, 64], got " << shards
                  << "\n";
        return 0;
    }
    return static_cast<int>(shards);
}

/**
 * Fair share of @p total items for shard @p shard of @p shards: every
 * shard gets total/shards, the first total%shards get one extra.
 */
inline int
shardShare(int total, int shard, int shards)
{
    return total / shards + (shard < total % shards ? 1 : 0);
}

/**
 * The geometry slice shard @p shard rebuilds: capacity (and thus
 * reconstruction sweep length) divides across shards while seek and
 * rotation behaviour stay identical — the same scaling argument as
 * DiskGeometry::ibm0661Scaled, applied per shard. Tracks per cylinder
 * divide when they can; otherwise cylinders do. shards == 1 returns
 * @p g unchanged.
 */
inline DiskGeometry
shardGeometry(const DiskGeometry &g, int shard, int shards)
{
    if (shards == 1)
        return g;
    DiskGeometry slice = g;
    if (g.tracksPerCyl >= shards)
        slice.tracksPerCyl = shardShare(g.tracksPerCyl, shard, shards);
    else if (g.cylinders >= shards)
        slice.cylinders = shardShare(g.cylinders, shard, shards);
    else
        DECLUST_FATAL("geometry too small to split ", shards,
                      " ways: ", g.tracksPerCyl, " tracks x ",
                      g.cylinders, " cylinders");
    slice.validate();
    return slice;
}

/**
 * Each shard's slice of a measured window: an equal fraction of
 * @p seconds. Exact identity for shards == 1.
 */
inline double
shardSeconds(double seconds, int shards)
{
    return shards == 1 ? seconds : seconds / shards;
}

/** Build the experiment geometry from parsed options / environment. */
inline DiskGeometry
geometryFrom(const Options &opts)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = static_cast<int>(opts.getInt("cylinders"));
    int tracks = static_cast<int>(opts.getInt("tracks"));
    if (const char *full = std::getenv("PD_FULL");
        full && full[0] == '1')
        tracks = 14;
    g.tracksPerCyl = tracks;
    g.validate();
    return g;
}

/**
 * Parse a comma-separated list of reconstruction-algorithm names (the
 * toString spellings: baseline, user-writes, redirect,
 * redir+piggyback) from option @p name. Returns false (after printing
 * to stderr) on an unknown name or an empty list.
 */
inline bool
algorithmsFrom(const Options &opts, const std::string &name,
               std::vector<ReconAlgorithm> *out)
{
    static constexpr ReconAlgorithm kAll[] = {
        ReconAlgorithm::Baseline, ReconAlgorithm::UserWrites,
        ReconAlgorithm::Redirect, ReconAlgorithm::RedirectPiggyback};
    out->clear();
    const std::string text = opts.getString(name);
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        bool known = false;
        for (ReconAlgorithm algorithm : kAll) {
            if (token == toString(algorithm)) {
                out->push_back(algorithm);
                known = true;
                break;
            }
        }
        if (!known) {
            std::cerr << "unknown algorithm '" << token
                      << "' (expected: baseline | user-writes | "
                         "redirect | redir+piggyback)\n";
            return false;
        }
    }
    if (out->empty()) {
        std::cerr << "--" << name << " needs at least one algorithm\n";
        return false;
    }
    return true;
}

/** Emit a finished table in the selected format. */
inline void
emit(const Options &opts, const TablePrinter &table)
{
    if (opts.getFlag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

/**
 * What one sweep point produces: its table rows (spliced back in trial
 * order) plus the event/simulated-time totals of the simulations it ran.
 */
struct TrialResult
{
    std::vector<std::vector<std::string>> rows;
    std::uint64_t events = 0;
    double simSec = 0.0;
    /** User ops still queued when its reconstructions finished
     * (ReconOutcome::userBacklogAtEnd); summed by runShardedTrials. */
    std::int64_t userBacklog = 0;
};

/** One independent sweep point. Must not share mutable state. */
using Trial = std::function<TrialResult()>;

/** Fold a finished simulation's engine counters into a trial result. */
inline void
noteSim(TrialResult &result, ArraySimulation &sim)
{
    result.events += sim.eventQueue().executed();
    result.simSec += ticksToSec(sim.eventQueue().now());
}

/** Aggregate counters for one bench invocation. */
struct SweepOutcome
{
    int trials = 0;
    int jobs = 1;
    int shards = 1;
    double wallSec = 0.0;
    std::uint64_t events = 0;
    double simSec = 0.0;
    std::int64_t userBacklog = 0;
    /** Wall-clock spent in shard index s, summed across trials. The
     * max entry is the sweep's critical path under perfect overlap. */
    std::vector<double> shardWallSec;
};

/**
 * Run @p trials under --jobs workers with a progress/ETA line, splice
 * their rows into @p table in trial order, and return the aggregate
 * wall-clock / event counters.
 */
inline SweepOutcome
runTrials(const Options &opts, const std::string &benchName,
          TablePrinter &table, const std::vector<Trial> &trials)
{
    // Scope the perf-counter window to this sweep so the --json record
    // reflects exactly the work the table reports.
    perfReset();
    TrialRunner runner(static_cast<int>(opts.getInt("jobs")));
    ProgressMeter meter(benchName);
    auto results = runTrialsOrdered<TrialResult>(
        runner, trials,
        [&meter](int done, int total) { meter.update(done, total); });
    meter.finish(static_cast<int>(trials.size()));

    SweepOutcome out;
    out.trials = static_cast<int>(trials.size());
    out.jobs = runner.jobs();
    out.wallSec = meter.elapsedSec();
    for (auto &result : results) {
        for (auto &row : result.rows)
            table.addRow(std::move(row));
        out.events += result.events;
        out.simSec += result.simSec;
    }
    return out;
}

/**
 * One sweep point split across shards: run(shard) stands up shard's
 * independent array and returns its raw statistics; merge() folds the
 * shard results — always presented in shard-index order — into the
 * point's table rows. Neither may share mutable state across shards.
 */
template <typename Shard>
struct ShardedTrial
{
    std::function<Shard(int shard)> run;
    std::function<TrialResult(std::vector<Shard> &shardResults)> merge;
};

/**
 * Two-level runTrials: fan the trials × shards grid across --jobs
 * workers, merge each trial's shards in index order, splice rows in
 * trial order, and record per-shard wall clocks. The progress line
 * counts shard units so single-point sharded runs show motion.
 */
template <typename Shard>
inline SweepOutcome
runShardedTrials(const Options &opts, const std::string &benchName,
                 TablePrinter &table,
                 const std::vector<ShardedTrial<Shard>> &trials,
                 int shards)
{
    // Scope the perf-counter window to this sweep so the --json record
    // reflects exactly the work the table reports.
    perfReset();
    TrialRunner runner(static_cast<int>(opts.getInt("jobs")));
    ProgressMeter meter(benchName, shards > 1 ? "shards" : "trials");
    const int numTrials = static_cast<int>(trials.size());
    // Disjoint (trial, shard) slots, folded per shard index below —
    // deterministic content whatever the worker interleaving.
    std::vector<std::vector<double>> wall(
        static_cast<std::size_t>(numTrials),
        std::vector<double>(static_cast<std::size_t>(shards), 0.0));
    auto results = runShardedOrdered<Shard, TrialResult>(
        runner, numTrials, shards,
        [&trials, &wall](int trial, int shard) {
            const auto start = std::chrono::steady_clock::now();
            Shard result =
                trials[static_cast<std::size_t>(trial)].run(shard);
            wall[static_cast<std::size_t>(trial)]
                [static_cast<std::size_t>(shard)] =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
            return result;
        },
        [&trials](int trial, std::vector<Shard> &parts) {
            return trials[static_cast<std::size_t>(trial)].merge(parts);
        },
        [&meter](int done, int total) { meter.update(done, total); });
    meter.finish(numTrials * shards);

    SweepOutcome out;
    out.trials = numTrials;
    out.jobs = runner.jobs();
    out.shards = shards;
    out.wallSec = meter.elapsedSec();
    out.shardWallSec.assign(static_cast<std::size_t>(shards), 0.0);
    for (int t = 0; t < numTrials; ++t)
        for (int s = 0; s < shards; ++s)
            out.shardWallSec[static_cast<std::size_t>(s)] +=
                wall[static_cast<std::size_t>(t)]
                    [static_cast<std::size_t>(s)];
    for (auto &result : results) {
        for (auto &row : result.rows)
            table.addRow(std::move(row));
        out.events += result.events;
        out.simSec += result.simSec;
        out.userBacklog += result.userBacklog;
    }
    return out;
}

/**
 * Approximate percentile of a Log2Hist: the upper bound (2^i - 1) of
 * the bucket where the running count first reaches @p frac of total.
 */
inline std::uint64_t
histPercentileBound(const Log2Hist &hist, double frac)
{
    const std::uint64_t total = hist.total();
    if (total == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        frac * static_cast<double>(total));
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
        running += hist.buckets[i];
        if (running > target)
            return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
    return ~std::uint64_t{0};
}

/**
 * The sweep's perf-counter block as a nested JSON object: every event
 * counter, plus count and approximate tick percentiles per histogram.
 * Only meaningful when the counting sites are compiled in
 * (DECLUST_PERF_COUNTERS=1, the default).
 */
inline JsonObject
perfJson()
{
    const PerfCounterBlock perf = perfAggregate();
    JsonObject counters;
    for (std::size_t i = 0; i < kPerfCounterCount; ++i)
        counters.set(perfCounterName(static_cast<PerfCounter>(i)),
                     perf.counters[i]);
    JsonObject hists;
    for (std::size_t i = 0; i < kPerfHistCount; ++i) {
        const Log2Hist &h = perf.hists[i];
        JsonObject summary;
        summary.set("count", h.total())
            .set("p50_ticks_le", histPercentileBound(h, 0.50))
            .set("p90_ticks_le", histPercentileBound(h, 0.90))
            .set("p99_ticks_le", histPercentileBound(h, 0.99))
            .set("p999_ticks_le", histPercentileBound(h, 0.999));
        hists.set(perfHistName(static_cast<PerfHist>(i)),
                  std::move(summary));
    }
    JsonObject block;
    block.set("enabled", std::int64_t{perfCountersEnabled() ? 1 : 0})
        .set("counters", std::move(counters))
        .set("histograms", std::move(hists));
    return block;
}

/**
 * Write the --json run record, if requested. Drivers with
 * driver-specific results to record (bench_cluster's worker-scaling
 * projection) pass them as @p extra under @p extraKey; the shared
 * schema fields are identical either way.
 */
inline void
writeJsonRecord(const Options &opts, const std::string &benchName,
                const SweepOutcome &out,
                const std::string &extraKey = "",
                JsonObject extra = JsonObject{})
{
    const std::string path = opts.getString("json");
    if (path.empty())
        return;
    JsonObject record;
    record.set("bench", benchName)
        .set("event_queue",
             EventQueue::implName(EventQueue::defaultImpl()))
        .set("data_plane",
             ec::dataPlaneModeName(ec::defaultDataPlaneMode()))
        .set("ec_tier", ec::tierName(ec::activeTier()))
        .set("cpu_features", ec::cpuFeatureString())
        .set("jobs", out.jobs)
        .set("trials", out.trials)
        .set("shards", out.shards)
        .set("wall_sec", out.wallSec)
        .set("shard_wall_sec", out.shardWallSec)
        .set("events", out.events)
        .set("events_per_sec",
             out.wallSec > 0.0
                 ? static_cast<double>(out.events) / out.wallSec
                 : 0.0)
        .set("sim_sec", out.simSec)
        .set("sim_time_ratio",
             out.wallSec > 0.0 ? out.simSec / out.wallSec : 0.0)
        .set("fault_model", faultModelJson(opts))
        .set("cluster", clusterJson(opts))
        .set("perf", perfJson());
    if (!extraKey.empty())
        record.set(extraKey, std::move(extra));
    std::ofstream file(path);
    if (!file) {
        std::cerr << benchName << ": cannot write " << path << "\n";
        return;
    }
    record.write(file);
}

} // namespace declust::bench
