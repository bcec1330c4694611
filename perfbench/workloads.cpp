#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "cluster/router.hpp"
#include "cluster/runner.hpp"
#include "core/array_sim.hpp"
#include "ec/data_plane.hpp"
#include "ec/kernels.hpp"
#include "bench_common.hpp"
#include "harness/trial_runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/seed.hpp"
#include "stats/shard_merge.hpp"
#include "trace.hpp"
#include "util/table.hpp"

namespace perfbench {

using namespace declust;

namespace {

constexpr int kDisks = 21;
/** Degraded warm-up and measurement window before each sweep cell's
 * rebuild, simulated seconds (the fig8 smoke warm-up). */
constexpr double kWarmupSec = 0.5;

/** Select a pending-set implementation for the arrays built while this
 * is alive (every EventQueue picks the process default at
 * construction); restores the previous default on destruction. */
class QueueChoice
{
  public:
    explicit QueueChoice(const std::string &name)
        : previous_(EventQueue::defaultImpl())
    {
        if (!name.empty() && !selectEventQueue(name))
            throw std::runtime_error("unknown event queue " + name);
    }
    ~QueueChoice() { EventQueue::setDefaultImpl(previous_); }
    QueueChoice(const QueueChoice &) = delete;
    QueueChoice &operator=(const QueueChoice &) = delete;

  private:
    EventQueue::Impl previous_;
};

int
sweepShards(const SweepSpec &spec, int workers)
{
    return spec.shards > 0 ? spec.shards : workers;
}

ec::DataPlaneMode
planeMode(const std::string &name)
{
    ec::DataPlaneMode mode{};
    if (!ec::dataPlaneModeFromName(name, &mode))
        throw std::runtime_error("unknown data-plane mode " + name);
    return mode;
}

/** One sweep point: its stripe size, rate and algorithm. */
struct Point
{
    int stripes;
    int rate;
    ReconAlgorithm algorithm;
};

std::vector<Point>
sweepPoints(const SweepSpec &spec)
{
    std::vector<Point> points;
    for (int g : spec.stripes)
        for (int rate : spec.rates)
            for (ReconAlgorithm a : spec.algorithms)
                points.push_back({g, rate, a});
    return points;
}

/** Raw statistics of one (point, shard) cell. */
struct Cell
{
    ReconReport report;
    PhaseSample user;
    std::uint64_t events = 0;
    std::uint64_t issued = 0;
    std::uint64_t lost = 0;
    std::size_t pending = 0;
    double reconWallSec = 0.0;
    std::uint64_t reconEvents = 0;
    double setupSec = 0.0;
    double wallSec = 0.0;
    ec::DataPlane::Stats plane;
};

/** Start and end of the advance the calling worker is inside. */
thread_local double tlAdvanceStart = -1.0;

} // namespace

DiskGeometry
paperGeometry(int tracks)
{
    DiskGeometry g = DiskGeometry::ibm0661();
    g.cylinders = 949;
    g.tracksPerCyl = tracks;
    g.validate();
    return g;
}

SweepSpec
fig8Sweep()
{
    SweepSpec spec;
    spec.stripes = bench::paperStripeSizes();
    spec.rates = {105, 210};
    spec.algorithms = {ReconAlgorithm::Baseline, ReconAlgorithm::UserWrites,
                       ReconAlgorithm::Redirect,
                       ReconAlgorithm::RedirectPiggyback};
    return spec;
}

ClusterConfig
clusterTemplate(int arrays, double rps)
{
    ClusterConfig c;
    c.arrays = arrays;
    c.array.numDisks = kDisks;
    c.array.stripeUnits = 6;
    c.array.geometry = paperGeometry(1);
    c.objects = 100000;
    c.zipfAlpha = 0.9;
    c.requestsPerSec = rps;
    c.epochSec = 0.25;
    return c;
}

RepResult
runSweep(const SweepSpec &spec, const RepOptions &opts)
{
    Tracer off;
    Tracer &tracer = opts.tracer ? *opts.tracer : off;
    const int shards = sweepShards(spec, opts.workers);
    const std::vector<Point> points = sweepPoints(spec);
    const int numPoints = static_cast<int>(points.size());
    const ec::DataPlaneMode plane =
        planeMode(opts.plane.empty() ? spec.plane : opts.plane);
    const DiskGeometry geometry = paperGeometry(spec.tracks);

    std::vector<Cell> cells(static_cast<std::size_t>(numPoints * shards));
    RepResult out;

    // Every cell on the trial runner, shards merged in shard-index order
    // by whichever worker finishes a point last. As in fig8_recon_single,
    // a worker builds its cell's simulation, runs it and frees it, so at
    // most `workers` are alive at once.
    std::vector<std::vector<std::string>> rows(
        static_cast<std::size_t>(numPoints));
    std::vector<PhaseSample> pointUser(static_cast<std::size_t>(numPoints));
    std::vector<double> pointRecon(static_cast<std::size_t>(numPoints));
    QueueChoice queue(opts.queue);
    const double start = nowSec();
    {
        ScopedSpan runSpan(tracer, "harness.run", opts.parentSpan);
        TrialRunner runner(opts.workers);
        runner.runSharded(
            numPoints, shards,
            [&](int p, int s) {
                const int c = p * shards + s;
                Cell &cell = cells[static_cast<std::size_t>(c)];
                const Point &pt = points[static_cast<std::size_t>(p)];
                ScopedSpan item(tracer, "harness.trial", runSpan.id(), c);
                std::unique_ptr<ArraySimulation> owned;
                {
                    ScopedSpan span(tracer, "core.setup", item.id(), c);
                    const double s0 = nowSec();
                    SimConfig cfg;
                    cfg.numDisks = kDisks;
                    cfg.stripeUnits = pt.stripes;
                    cfg.geometry = bench::shardGeometry(geometry, s, shards);
                    cfg.accessesPerSec = pt.rate;
                    cfg.readFraction = 0.5;
                    cfg.algorithm = pt.algorithm;
                    cfg.reconProcesses = 1;
                    cfg.dataPlane = plane;
                    cfg.seed = shardSeed(opts.seed, s, shards);
                    owned = std::make_unique<ArraySimulation>(cfg);
                    cell.setupSec = nowSec() - s0;
                }
                if (opts.setupOnly)
                    return;
                const double t0 = nowSec();
                ArraySimulation &sim = *owned;
                {
                    ScopedSpan span(tracer, "core.degraded", item.id(), c);
                    sim.failAndRunDegraded(kWarmupSec, kWarmupSec);
                }
                cell.pending = sim.eventQueue().pending();
                ReconOutcome outcome;
                {
                    ScopedSpan span(tracer, "core.recon", item.id(), c);
                    const std::uint64_t before =
                        sim.eventQueue().executed();
                    const double r0 = nowSec();
                    outcome = sim.reconstruct();
                    cell.reconWallSec = nowSec() - r0;
                    cell.reconEvents = sim.eventQueue().executed() - before;
                }
                {
                    ScopedSpan span(tracer, "stats.merge", item.id(), c);
                    cell.report = outcome.report;
                    cell.user = sim.samplePhase(
                        outcome.report.reconstructionTimeSec);
                }
                if (opts.drain) {
                    ScopedSpan span(tracer, "array.drain", item.id(), c);
                    sim.drain();
                }
                const FaultStats &f = sim.controller().faultStats();
                cell.lost = f.userReadsLost + f.userWritesLost;
                cell.issued = sim.workload().issued();
                cell.events = sim.eventQueue().executed();
                cell.plane = sim.controller().dataPlaneStats();
                cell.wallSec = nowSec() - t0;
            },
            [&](int p) {
                if (opts.setupOnly)
                    return;
                ScopedSpan span(tracer, "stats.merge", runSpan.id(),
                                p * shards);
                Cell &first = cells[static_cast<std::size_t>(p * shards)];
                ReconReport report = first.report;
                PhaseSample user = first.user;
                for (int s = 1; s < shards; ++s) {
                    const Cell &cell =
                        cells[static_cast<std::size_t>(p * shards + s)];
                    report.merge(cell.report);
                    ShardMerge::into(user, cell.user);
                }
                const Point &pt = points[static_cast<std::size_t>(p)];
                const double alpha =
                    static_cast<double>(pt.stripes - 1) / (kDisks - 1);
                rows[static_cast<std::size_t>(p)] = {
                    fmtDouble(alpha, 2),
                    std::to_string(pt.stripes),
                    std::to_string(pt.rate),
                    toString(pt.algorithm),
                    fmtDouble(report.reconstructionTimeSec, 1),
                    fmtDouble(user.meanMs(), 1),
                    fmtDouble(user.p90Ms(), 1)};
                pointRecon[static_cast<std::size_t>(p)] =
                    report.reconstructionTimeSec;
                pointUser[static_cast<std::size_t>(p)] = std::move(user);
            });
    }
    const double wall = nowSec() - start;
    for (const Cell &cell : cells)
        out.setupSec += cell.setupSec;
    // The workers build their cells in parallel with each other's runs;
    // the run is charged the wall minus set-up's share of it, taking
    // set-up as spread evenly over the workers (exact at 1 worker).
    out.runSec = wall - out.setupSec / opts.workers;
    if (opts.setupOnly)
        return out;

    TablePrinter table({"alpha", "G", "rate/s", "algorithm",
                        "recon time s", "user resp ms", "p90 ms"});
    for (auto &row : rows)
        table.addRow(std::move(row));
    std::ostringstream text;
    text << "Figures 8-1 (reconstruction time) and 8-2 (user response "
            "during reconstruction), 1 process(es)\n";
    table.print(text);
    out.table = text.str();

    PhaseSample all;
    double reconSum = 0.0;
    for (int p = 0; p < numPoints; ++p) {
        ShardMerge::into(all, pointUser[static_cast<std::size_t>(p)]);
        reconSum += pointRecon[static_cast<std::size_t>(p)];
    }
    double pending = 0.0;
    for (Cell &cell : cells) {
        out.events += cell.events;
        out.issued += cell.issued;
        out.lost += cell.lost;
        out.reconCycles += cell.report.cycles;
        out.ecCombines += cell.plane.combinesChecked;
        out.ecBytes += cell.plane.bytesXored;
        out.reconWallSec += cell.reconWallSec;
        out.reconEvents += cell.reconEvents;
        out.busySec += cell.wallSec;
        pending += static_cast<double>(cell.pending);
    }
    out.pendingMean = pending / static_cast<double>(cells.size());
    out.userMs = all.meanMs();
    out.userP99Ms = all.p99Ms();
    out.reconSec = reconSum / numPoints;
    out.iops = reconSum > 0.0
                   ? static_cast<double>(all.reads + all.writes) / reconSum
                   : 0.0;
    out.diskUtil = all.meanDiskUtilization();
    return out;
}

RepResult
runCluster(const ClusterSpec &spec, const RepOptions &opts)
{
    Tracer off;
    Tracer &tracer = opts.tracer ? *opts.tracer : off;
    const ClusterConfig &cfg = spec.config;
    TablePrinter table({"k", "iops", "mean ms", "p99 ms", "p999 ms",
                        "redirects", "rebuilds done", "rebuild epochs",
                        "max qdepth"});
    RepResult out;
    double pending = 0.0;
    for (const int k : spec.rebuilds) {
        const double setupStart = nowSec();
        std::unique_ptr<ClusterRunner> runner;
        {
            QueueChoice queue(opts.queue);
            ScopedSpan span(tracer, "cluster.setup", opts.parentSpan, k);
            ClusterConfig c = cfg;
            c.seed = opts.seed;
            runner = std::make_unique<ClusterRunner>(c, opts.workers);
            scheduleRollingRebuilds(*runner, k, spec.warmupSec,
                                    spec.staggerSec);
        }
        out.setupSec += nowSec() - setupStart;
        if (opts.setupOnly)
            continue;

        const double runStart = nowSec();
        ClusterResult res;
        {
            ScopedSpan span(tracer, "cluster.run", opts.parentSpan, k);
            if (tracer.enabled()) {
                // Called at the start and at the end of every array
                // advance, on the worker doing it.
                const int parent = span.id();
                runner->setWallProbe([&tracer, parent] {
                    const double t = nowSec();
                    if (tlAdvanceStart < 0.0) {
                        tlAdvanceStart = t;
                    } else {
                        tracer.record("cluster.advance", tlAdvanceStart, t,
                                      parent, -1);
                        tlAdvanceStart = -1.0;
                    }
                    return t;
                });
            }
            res = runner->run(spec.warmupSec, spec.measureSec);
        }
        out.runSec += nowSec() - runStart;

        table.addRow({std::to_string(k), fmtDouble(res.sustainedIops, 1),
                      fmtDouble(res.phase.meanMs(), 1),
                      fmtDouble(res.phase.p99Ms(), 1),
                      fmtDouble(res.phase.p999Ms(), 1),
                      std::to_string(res.counters.redirectsIn),
                      std::to_string(res.counters.rebuildsCompleted),
                      std::to_string(res.counters.rebuildingEpochs),
                      std::to_string(res.counters.maxQueueDepth)});
        ClusterTopology &topo = runner->topology();
        for (int i = 0; i < topo.arrays(); ++i) {
            const EventQueue &eq = topo.array(i).eventQueue();
            out.events += eq.executed();
            pending += static_cast<double>(eq.pending()) / topo.arrays();
            const FaultStats &f = topo.array(i).controller().faultStats();
            out.lost += f.userReadsLost + f.userWritesLost;
        }
        out.issued += res.counters.routed;
        out.arrays = res.arrays;
        out.epochs = res.totalEpochs;
        out.userMs = res.phase.meanMs();
        out.userP99Ms = res.phase.p99Ms();
        out.iops = res.sustainedIops;
        out.diskUtil = res.phase.meanDiskUtilization();
        out.redirects = res.counters.redirectsIn;
        out.reconCycles = res.counters.rebuiltUnits;
        out.reconSec = res.counters.rebuildsCompleted
                           ? res.counters.rebuildingEpochs * cfg.epochSec /
                                 static_cast<double>(
                                     res.counters.rebuildsCompleted)
                           : 0.0;
        out.epochArrayWallSec = std::move(res.epochArrayWallSec);
    }
    out.pendingMean = pending / static_cast<double>(spec.rebuilds.size());
    if (opts.setupOnly)
        return out;

    std::ostringstream text;
    text << "Cluster serving sweep: " << cfg.arrays << " arrays, "
         << fmtDouble(cfg.requestsPerSec, 0) << " req/s, Zipf("
         << fmtDouble(cfg.zipfAlpha, 2) << ") over " << cfg.objects
         << " objects, scenario rolling\n";
    table.print(text);
    out.table = text.str();
    return out;
}

double
lptAdvanceSec(const RepResult &rep, int workers)
{
    double advance = 0.0;
    std::vector<double> bins(static_cast<std::size_t>(workers));
    std::vector<double> epoch;
    for (int e = 0; e < rep.epochs; ++e) {
        const auto base = rep.epochArrayWallSec.begin() +
                          static_cast<std::ptrdiff_t>(e) * rep.arrays;
        epoch.assign(base, base + rep.arrays);
        std::sort(epoch.rbegin(), epoch.rend());
        std::fill(bins.begin(), bins.end(), 0.0);
        for (const double t : epoch)
            *std::min_element(bins.begin(), bins.end()) += t;
        advance += *std::max_element(bins.begin(), bins.end());
    }
    return advance;
}

// ---------------------------------------------------------------------
// Single-layer probes
// ---------------------------------------------------------------------

namespace {

/** Hold-model state: every event reschedules one successor. */
struct HoldState
{
    EventQueue *eq;
    Rng rng;
};

struct HoldEvent
{
    HoldState *s;
    void
    operator()() const
    {
        // Exponential gaps, mean 10 ms of simulated time.
        s->eq->scheduleIn(static_cast<Tick>(s->rng.exponential(1e4)) + 1,
                          HoldEvent{s});
    }
};

std::vector<std::pair<int, DiskGeometry>>
distinct(const std::vector<std::pair<int, DiskGeometry>> &cells)
{
    std::vector<std::pair<int, DiskGeometry>> out;
    for (const auto &c : cells) {
        const bool seen = std::any_of(out.begin(), out.end(), [&](auto &o) {
            return o.first == c.first &&
                   o.second.tracksPerCyl == c.second.tracksPerCyl &&
                   o.second.cylinders == c.second.cylinders;
        });
        if (!seen)
            out.push_back(c);
    }
    return out;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
holdNs(std::size_t pending, std::uint64_t seed)
{
    pending = std::max<std::size_t>(pending, 1);
    EventQueue eq;
    HoldState state{&eq, Rng(seed)};
    for (std::size_t i = 0; i < pending; ++i)
        eq.scheduleIn(static_cast<Tick>(state.rng.exponential(1e4)) + 1,
                      HoldEvent{&state});
    constexpr int kBatch = 200000;
    for (int i = 0; i < kBatch; ++i)
        eq.step();
    std::vector<double> ns;
    for (int b = 0; b < 5; ++b) {
        const double t0 = nowSec();
        for (int i = 0; i < kBatch; ++i)
            eq.step();
        ns.push_back((nowSec() - t0) * 1e9 / kBatch);
    }
    return median(ns);
}

double
placeNs(const std::vector<std::pair<int, DiskGeometry>> &cells,
        std::uint64_t seed)
{
    constexpr int kQueries = 4096;
    constexpr int kPasses = 200;
    Rng rng(seed);
    double totalNs = 0.0;
    std::int64_t sink = 0;
    const auto layouts = distinct(cells);
    for (const auto &[g, geometry] : layouts) {
        const std::unique_ptr<Layout> layout =
            makeLayout(kDisks, g, geometry);
        std::vector<std::pair<std::int64_t, int>> q(kQueries);
        for (auto &[stripe, pos] : q) {
            stripe = static_cast<std::int64_t>(rng.uniformInt(
                static_cast<std::uint64_t>(layout->numStripes())));
            pos = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(layout->stripeWidth())));
        }
        const double t0 = nowSec();
        for (int pass = 0; pass < kPasses; ++pass)
            for (const auto &[stripe, pos] : q) {
                const PhysicalUnit pu = layout->place(stripe, pos);
                sink += pu.disk + pu.offset;
            }
        totalNs += (nowSec() - t0) * 1e9 / (kQueries * kPasses);
    }
    // Keep the lookups observable so none is optimised away.
    static std::atomic<std::int64_t> keep{0};
    keep += sink;
    return totalNs / static_cast<double>(layouts.size());
}

double
layoutBuildSec(const std::vector<std::pair<int, DiskGeometry>> &cells)
{
    const double t0 = nowSec();
    for (const auto &[g, geometry] : cells)
        makeLayout(kDisks, g, geometry);
    return nowSec() - t0;
}

double
routeNs(const ClusterConfig &config, int epochs)
{
    const std::int64_t dataUnits =
        makeLayout(kDisks, config.array.stripeUnits,
                   config.array.geometry)
            ->numDataUnits();
    RequestRouter router(config, dataUnits);
    const auto n = static_cast<std::size_t>(config.arrays);
    std::vector<ArrayCensus> census(n);
    std::vector<std::vector<Arrival>> buffers(n);
    std::vector<ClusterCounters> counters(n);
    const Tick epochTicks = secToTicks(config.epochSec);
    std::uint64_t arrivals = 0;
    double sec = 0.0;
    for (int e = 0; e < epochs; ++e) {
        const double t0 = nowSec();
        router.route(epochTicks * static_cast<Tick>(e),
                     epochTicks * static_cast<Tick>(e + 1), census,
                     buffers, counters);
        sec += nowSec() - t0;
        for (auto &b : buffers) {
            arrivals += b.size();
            b.clear();
        }
    }
    return arrivals ? sec * 1e9 / static_cast<double>(arrivals) : 0.0;
}

double
xorGbps(std::size_t unitBytes)
{
    std::vector<std::uint8_t> dst(unitBytes, 0x5a);
    std::vector<std::uint8_t> src(unitBytes);
    for (std::size_t i = 0; i < unitBytes; ++i)
        src[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    const ec::Kernels &k = ec::kernels();
    constexpr int kCalls = 20000;
    std::vector<double> gbps;
    for (int b = 0; b < 5; ++b) {
        const double t0 = nowSec();
        for (int i = 0; i < kCalls; ++i)
            k.xorInto(dst.data(), src.data(), unitBytes);
        const double sec = nowSec() - t0;
        gbps.push_back(static_cast<double>(unitBytes) * kCalls / sec /
                       1e9);
    }
    static std::atomic<unsigned> keep{0};
    keep += dst[unitBytes / 2];
    return median(gbps);
}

std::vector<std::pair<int, DiskGeometry>>
sweepLayouts(const SweepSpec &spec, int workers)
{
    const int shards = sweepShards(spec, workers);
    std::vector<std::pair<int, DiskGeometry>> cells;
    for (const Point &pt : sweepPoints(spec))
        for (int s = 0; s < shards; ++s)
            cells.emplace_back(
                pt.stripes,
                bench::shardGeometry(paperGeometry(spec.tracks), s, shards));
    return cells;
}

std::vector<std::pair<int, DiskGeometry>>
clusterLayouts(const ClusterSpec &spec)
{
    return std::vector<std::pair<int, DiskGeometry>>(
        static_cast<std::size_t>(spec.config.arrays),
        {spec.config.array.stripeUnits, spec.config.array.geometry});
}

} // namespace perfbench
