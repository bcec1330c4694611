/**
 * @file
 * Benchmark program: runs one workload for a given seed and time budget,
 * checks its simulated output against references, and prints every
 * metric by name and unit. The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 *   perfbench --workload recon_sweep|cluster_rebuild|paper_scale_verify
 *             --seed N --seconds S --trace 0|1
 *             [--root DIR] [--trace-out FILE] [--commit SHA]
 *
 * --trace 0 reports the end-to-end metrics (untraced repetitions only,
 * host times scaled to a reference host speed: see host_speed.hpp);
 * --trace 1 is the traced run, which reports the per-layer metrics and
 * writes the recorded spans to --trace-out. See README.md.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ec/kernels.hpp"
#include "host_speed.hpp"
#include "sim/event_queue.hpp"
#include "stats/perf_counters.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kSweepWorkers = 4;
constexpr int kSetupSamples = 20;
/** Share of each repetition's wall spent sampling the host speed after
 * it. */
constexpr double kProbeShare = 0.05;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::string traceOut;
    std::string commit = "unknown";
};

/** One workload: a repetition, its golden smoke anchor, and the
 * layouts its set-up builds. */
struct Workload
{
    std::string name;
    std::function<RepResult(const RepOptions &)> rep;
    /** The repo's smoke configuration of the same code path, seed 1. */
    std::function<RepResult(const RepOptions &)> anchorRep;
    /** Golden table of the anchor, relative to the checkout root. */
    std::string anchorGolden;
    std::vector<std::pair<int, declust::DiskGeometry>> layouts;
    bool sweep = true;
    /** Worker threads of the timed repetitions. */
    int workers = kSweepWorkers;
    /** The host-speed probe that follows this workload's time best. */
    ProbeKernel probe = ProbeKernel::Memory;
};

SweepSpec
paperScaleSpec()
{
    SweepSpec spec;
    spec.stripes = {4, 21};
    spec.rates = {105, 210};
    spec.algorithms = {declust::ReconAlgorithm::Baseline,
                       declust::ReconAlgorithm::RedirectPiggyback};
    spec.tracks = 14;
    spec.shards = 0;
    spec.plane = "verify";
    return spec;
}

ClusterSpec
clusterRebuildSpec()
{
    ClusterSpec spec;
    // How close the Zipf-hot arrays run to their knee depends on where
    // the seed places the hottest objects. At 200 req/s no seed tried
    // queued more than 7 requests; at 1000 some saturate, and at 300-400
    // a tail of seeds has a p99 up to 2.4x the median.
    spec.config = clusterTemplate(64, 200.0);
    spec.rebuilds = {16};
    spec.warmupSec = 2.0;
    spec.measureSec = 600.0;
    spec.staggerSec = 25.0;
    return spec;
}

ClusterSpec
clusterSmokeSpec()
{
    ClusterSpec spec;
    spec.config = clusterTemplate(8, 400.0);
    spec.rebuilds = {0, 2};
    return spec;
}

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "recon_sweep") {
        const SweepSpec spec = fig8Sweep();
        w.rep = [spec](const RepOptions &o) { return runSweep(spec, o); };
        w.anchorRep = w.rep;
        w.anchorGolden = "ci/golden_fig8_smoke.out";
        w.layouts = sweepLayouts(spec, kSweepWorkers);
        // 1-track arrays with small tables: its time follows core speed
        // as well as memory latency.
        w.probe = ProbeKernel::Mixed;
    } else if (name == "paper_scale_verify") {
        const SweepSpec spec = paperScaleSpec();
        SweepSpec smoke = fig8Sweep();
        smoke.shards = 4;
        smoke.plane = "verify";
        w.rep = [spec](const RepOptions &o) { return runSweep(spec, o); };
        w.anchorRep = [smoke](const RepOptions &o) {
            return runSweep(smoke, o);
        };
        w.anchorGolden = "ci/golden_fig8_smoke_s4.out";
        w.layouts = sweepLayouts(spec, kSweepWorkers);
    } else if (name == "cluster_rebuild") {
        const ClusterSpec spec = clusterRebuildSpec();
        const ClusterSpec smoke = clusterSmokeSpec();
        w.rep = [spec](const RepOptions &o) { return runCluster(spec, o); };
        w.anchorRep = [smoke](const RepOptions &o) {
            return runCluster(smoke, o);
        };
        w.anchorGolden = "ci/golden_cluster_smoke.out";
        w.layouts = clusterLayouts(spec);
        w.sweep = false;
        // Every epoch barrier waits for the slowest worker, so with 4
        // workers on 4 vCPUs the wall time follows host scheduling
        // noise (steal) more than the simulator. Time one worker; the
        // traced run measures 2 and 4.
        w.workers = 1;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/** The pending-set implementation that is not the default. */
std::string
otherQueue()
{
    return declust::EventQueue::defaultImpl() ==
                   declust::EventQueue::Impl::Calendar
               ? "heap"
               : "calendar";
}

/** The --seconds budget of a loop of repetitions: another lap runs
 * only if one as long as the last still fits. */
class Budget
{
  public:
    explicit Budget(double seconds)
        : seconds_(seconds), start_(nowSec()), lapStart_(start_)
    {
    }

    bool
    roomForAnother() const
    {
        return nowSec() - start_ + lastLap_ <= seconds_;
    }

    void
    lap()
    {
        const double now = nowSec();
        lastLap_ = now - lapStart_;
        lapStart_ = now;
    }

  private:
    double seconds_;
    double start_;
    double lapStart_;
    double lastLap_ = 0.0;
};

/** Accumulates the correctness verdict and the failure count. */
struct Verdict
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The golden anchor, which pins the simulated behaviour every
     * repetition shares, broke: every request of the run fails. */
    bool runBroken = false;
    std::vector<std::string> problems;

    std::uint64_t
    failedCount() const
    {
        return runBroken ? attempted : failed;
    }

    /** Count @p rep's requests; a table that differs from @p reference
     * fails every request of the repetition. */
    void
    check(const RepResult &rep, const std::string &reference,
          const std::string &what)
    {
        attempted += rep.issued;
        failed += rep.lost;
        if (rep.table != reference) {
            correct = false;
            failed += rep.issued - rep.lost;
            problems.push_back(what + ": simulated table differs");
        }
    }

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

/** Run the golden smoke anchor and compare it byte for byte. */
void
checkAnchor(const Workload &w, const Args &args, Verdict &verdict)
{
    const std::string golden = readFile(args.root + "/" + w.anchorGolden);
    if (golden.empty()) {
        verdict.fail("missing reference " + w.anchorGolden);
        verdict.runBroken = true;
        return;
    }
    RepOptions o;
    o.seed = 1;
    o.workers = w.workers;
    const RepResult anchor = w.anchorRep(o);
    verdict.check(anchor, golden, "smoke anchor " + w.anchorGolden);
    verdict.runBroken = verdict.runBroken || anchor.table != golden;
}

/** A metric value with its unit. */
struct Value
{
    double value;
    const char *unit;
};

using Metrics = std::vector<std::pair<std::string, Value>>;

std::uint64_t
counter(const declust::PerfCounterBlock &block, const char *name)
{
    for (std::size_t i = 0; i < declust::kPerfCounterCount; ++i)
        if (std::string(declust::perfCounterName(
                static_cast<declust::PerfCounter>(i))) == name)
            return block.counters[i];
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Peak resident set of the process, less @p probeBytes: the host-speed
 * probe's tables, resident from before the first repetition, so they
 * add exactly their size. */
double
peakRssMb(std::size_t probeBytes)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return (static_cast<double>(usage.ru_maxrss) * 1024.0 -
            static_cast<double>(probeBytes)) /
           (1024.0 * 1024.0);
}

struct Outcome
{
    Verdict verdict;
    Metrics metrics;
};

Outcome
runUntraced(const Workload &w, const Args &args)
{
    Outcome out;
    Verdict &v = out.verdict;
    RepOptions o;
    o.seed = args.seed;
    o.workers = w.workers;
    // Sampled after every repetition, on as many threads as it used.
    HostSpeed speed(w.workers, w.probe);

    // Reference: the same inputs on the other pending set. The
    // determinism contract makes it byte-identical; it also warms up.
    RepOptions refOpts = o;
    refOpts.queue = otherQueue();
    const RepResult ref = w.rep(refOpts);
    v.check(ref, ref.table, "reference");
    speed.sampleFor(ref.runSec, kProbeShare);

    std::vector<RepResult> reps;
    Budget budget(args.seconds);
    while (reps.size() < 3 || budget.roomForAnother()) {
        reps.push_back(w.rep(o));
        v.check(reps.back(), ref.table, "repetition");
        speed.sampleFor(reps.back().runSec, kProbeShare);
        budget.lap();
    }
    // The anchor is a check, not the workload: read the peak first.
    const double peakRss = peakRssMb(speed.tableBytes());
    checkAnchor(w, args, v);

    std::vector<double> run, setup, rate;
    for (const RepResult &r : reps) {
        run.push_back(r.runSec);
        setup.push_back(r.setupSec);
        rate.push_back(static_cast<double>(r.events) / r.runSec);
    }
    // Set-up is short, so it gets extra set-up-only samples.
    RepOptions setupOnly = o;
    setupOnly.setupOnly = true;
    const double setupStart = nowSec();
    for (int i = 0; i < kSetupSamples; ++i)
        setup.push_back(w.rep(setupOnly).setupSec);
    speed.sampleFor(nowSec() - setupStart, kProbeShare);
    const RepResult &sim = reps.front();
    const double servedFrac =
        1.0 - ratio(static_cast<double>(v.failedCount()),
                    static_cast<double>(v.attempted));
    // Host times at the reference host speed.
    const double slowdown = speed.slowdown();
    out.metrics = {
        {"run_s", {median(run) / slowdown, "s"}},
        {"events_per_s", {median(rate) * slowdown, "1/s"}},
        {"setup_s", {median(setup) / slowdown, "s"}},
        {"peak_rss_mb", {peakRss, "MB"}},
        {"sim_user_ms", {sim.userMs, "ms"}},
        {"sim_user_p99_ms", {sim.userP99Ms, "ms"}},
        {"sim_recon_s", {sim.reconSec, "s"}},
        {"sim_iops", {sim.iops, "1/s"}},
        {"served_frac", {servedFrac, "frac"}},
    };
    std::fprintf(stderr, "%s: %zu repetitions, wall", w.name.c_str(),
                 reps.size());
    for (const double r : run)
        std::fprintf(stderr, " %.4f", r);
    std::fprintf(stderr,
                 "\nhost slowdown %.4f (median of %zu probe samples); "
                 "median wall %.4f s, set-up %.4f s\n",
                 slowdown, speed.samples(), median(run), median(setup));
    return out;
}

Outcome
runTraced(const Workload &w, const Args &args)
{
    Outcome out;
    Verdict &v = out.verdict;
    RepOptions o;
    o.seed = args.seed;
    o.workers = w.workers;

    // The golden anchor goes first: it also warms the allocator and
    // caches before anything is timed.
    checkAnchor(w, args, v);

    // Untraced, other-pending-set and traced repetitions alternate, so
    // all three see the same machine state; the traced one keeps the
    // last spans and counters. The first untraced table is the
    // reference every later repetition must reproduce.
    RepOptions otherOpts = o;
    otherOpts.queue = otherQueue();
    Tracer tracer;
    std::vector<double> plainRun, otherRun, tracedRun;
    std::string reference;
    RepResult traced;
    std::vector<Span> spans;
    declust::PerfCounterBlock counters;
    double rootSec = 0.0;
    Budget budget(args.seconds);
    while (tracedRun.empty() || budget.roomForAnother()) {
        const RepResult plain = w.rep(o);
        if (reference.empty())
            reference = plain.table;
        v.check(plain, reference, "repetition");
        plainRun.push_back(plain.runSec);
        const RepResult other = w.rep(otherOpts);
        v.check(other, reference, "other-pending-set repetition");
        otherRun.push_back(other.runSec);

        tracer.clear();
        tracer.setEnabled(true);
        declust::perfReset();
        RepOptions t = o;
        t.tracer = &tracer;
        t.drain = w.sweep;
        const int root = tracer.open("bench.rep", -1, -1);
        t.parentSpan = root;
        traced = w.rep(t);
        tracer.close(root);
        tracer.setEnabled(false);
        counters = declust::perfAggregate();
        spans = tracer.spans();
        rootSec = spans.front().end - spans.front().start;
        v.check(traced, reference, "traced repetition");
        tracedRun.push_back(traced.runSec);
        budget.lap();
    }
    const double runTimed = median(plainRun);
    const std::map<std::string, double> self = selfTimes(spans);
    auto selfOf = [&self](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };

    // Worker-scaling legs (untraced) at the counts of 1, 2 and 4 the
    // timed repetitions do not already measure.
    std::map<int, double> wallAt{{w.workers, runTimed}};
    for (const int n : {1, 2, 4}) {
        if (n == w.workers)
            continue;
        RepOptions l = o;
        l.workers = n;
        const RepResult leg = w.rep(l);
        const std::string what = std::to_string(n) + "-worker repetition";
        if (w.name != "paper_scale_verify")
            // Same inputs at any worker count: byte-identical by contract.
            v.check(leg, reference, what);
        else
            // Shard count follows the worker count, which changes the
            // decomposition and so the table; count the requests only.
            v.check(leg, leg.table, what);
        wallAt[n] = leg.runSec;
    }
    const double speedupW2 = ratio(wallAt[1], wallAt[2]);
    const double speedupW4 = ratio(wallAt[1], wallAt[4]);

    const double events = static_cast<double>(traced.events);
    const double kev = events / 1000.0;
    const double userOps =
        static_cast<double>(counter(counters, "user_reads") +
                            counter(counters, "user_writes"));
    const double heapOverCalendar =
        declust::EventQueue::defaultImpl() ==
                declust::EventQueue::Impl::Calendar
            ? ratio(median(otherRun), runTimed)
            : ratio(runTimed, median(otherRun));
    const auto contended =
        static_cast<double>(counter(counters, "lock_acquires_contended"));
    const auto uncontended = static_cast<double>(
        counter(counters, "lock_acquires_uncontended"));

    double verifyShare = 0.0;
    double xor_ = 0.0;
    if (w.name == "paper_scale_verify") {
        RepOptions p = o;
        p.plane = "off";
        const RepResult planeOff = w.rep(p);
        // The plane checks bytes only; simulated timing is unchanged.
        v.check(planeOff, reference, "data-plane-off repetition");
        verifyShare = 1.0 - ratio(planeOff.runSec, runTimed);
        xor_ = xorGbps(8 * 512);
    }

    // Cluster: the traced repetition's per-(epoch, array) advance walls,
    // measured at the timed repetitions' worker count (1). The time
    // outside advances is the serial part; the 4-worker projection packs
    // each epoch's walls into 4 bins (longest first) and adds it.
    double busy = 0.0, crit = 0.0, serial = 0.0, projected = 0.0;
    double imbalance = 0.0;
    double routeNsPerArrival = 0.0;
    if (!w.sweep) {
        for (int e = 0; e < traced.epochs; ++e) {
            double most = 0.0;
            for (int i = 0; i < traced.arrays; ++i) {
                const double t =
                    traced.epochArrayWallSec[static_cast<std::size_t>(
                        e * traced.arrays + i)];
                busy += t;
                most = std::max(most, t);
            }
            crit += most;
        }
        serial = std::max(traced.runSec - busy, 0.0);
        const double packed = lptAdvanceSec(traced, 4);
        projected = serial + packed;
        imbalance = ratio(packed, busy / 4);
        routeNsPerArrival = routeNs(clusterRebuildSpec().config, 400);
    }

    const bool sweep = w.sweep;
    const double leaked =
        sweep ? static_cast<double>(counter(counters, "io_ops_acquired")) -
                    static_cast<double>(counter(counters, "io_ops_released"))
              : 0.0;
    out.metrics = {
        {"sim.events", {events, "count"}},
        {"sim.queue_resizes_per_kev",
         {ratio(counter(counters, "event_queue_resizes"), kev), "1/kev"}},
        {"sim.queue_rebuilds_per_kev",
         {ratio(counter(counters, "event_queue_rebuilds"), kev), "1/kev"}},
        {"sim.queue_spills_per_kev",
         {ratio(counter(counters, "event_queue_spills"), kev), "1/kev"}},
        {"sim.hold_ns",
         {holdNs(static_cast<std::size_t>(traced.pendingMean + 0.5),
                 args.seed),
          "ns"}},
        {"sim.heap_over_calendar", {heapOverCalendar, "ratio"}},
        {"disk.ops_per_user_op",
         {ratio(counter(counters, "disk_reads_user") +
                    counter(counters, "disk_writes_user"),
                userOps),
          "ratio"}},
        {"disk.util", {traced.diskUtil, "frac"}},
        {"layout.place_ns", {placeNs(w.layouts, args.seed), "ns"}},
        {"layout.build_s", {layoutBuildSec(w.layouts), "s"}},
        {"array.io_ops",
         {static_cast<double>(counter(counters, "io_ops_acquired")),
          "count"}},
        {"array.lock_contended_frac",
         {ratio(contended, contended + uncontended), "frac"}},
        {"array.callbacks_heap_spill",
         {static_cast<double>(counter(counters, "callbacks_spill_heap")),
          "count"}},
        {"array.large_writes",
         {static_cast<double>(counter(counters, "large_writes")), "count"}},
        {"array.degraded_reads",
         {static_cast<double>(counter(counters, "degraded_reads")),
          "count"}},
        {"array.io_ops_leaked", {leaked, "count"}},
        {"core.setup_s", {selfOf("core.setup"), "s"}},
        {"core.degraded_s", {selfOf("core.degraded"), "s"}},
        {"core.recon_s", {selfOf("core.recon"), "s"}},
        {"core.recon_ns_per_event",
         {ratio(traced.reconWallSec * 1e9,
                static_cast<double>(traced.reconEvents)),
          "ns"}},
        {"core.recon_cycles",
         {static_cast<double>(traced.reconCycles), "count"}},
        {"ec.combines", {static_cast<double>(traced.ecCombines), "count"}},
        {"ec.bytes_xored", {static_cast<double>(traced.ecBytes), "B"}},
        {"ec.xor_gbps", {xor_, "GB/s"}},
        {"ec.verify_share", {verifyShare, "frac"}},
        {"cluster.setup_s", {selfOf("cluster.setup"), "s"}},
        {"cluster.advance_busy_s", {busy, "s"}},
        {"cluster.advance_crit_s", {crit, "s"}},
        {"cluster.serial_s", {serial, "s"}},
        {"cluster.imbalance", {imbalance, "ratio"}},
        {"cluster.projected_w4_s", {projected, "s"}},
        {"cluster.redirects",
         {static_cast<double>(traced.redirects), "count"}},
        {"cluster.speedup_w2", {sweep ? 0.0 : speedupW2, "ratio"}},
        {"cluster.speedup_w4", {sweep ? 0.0 : speedupW4, "ratio"}},
        {"workload.route_ns", {routeNsPerArrival, "ns"}},
        {"harness.busy_s", {traced.busySec, "s"}},
        {"harness.efficiency",
         {sweep ? ratio(traced.busySec, w.workers * traced.runSec) : 0.0,
          "frac"}},
        {"harness.speedup_w2", {sweep ? speedupW2 : 0.0, "ratio"}},
        {"harness.speedup_w4", {sweep ? speedupW4 : 0.0, "ratio"}},
        {"stats.merge_s", {selfOf("stats.merge"), "s"}},
        {"trace.overhead_frac",
         {ratio(median(tracedRun), runTimed) - 1.0, "frac"}},
        {"trace.unattributed_frac",
         {ratio(selfOf("bench.rep"), rootSec), "frac"}},
    };

    // Human-readable layer self times of the last traced repetition.
    std::fprintf(stderr, "%s traced repetition: %.4f s, layer self "
                         "times (wall share):\n",
                 w.name.c_str(), rootSec);
    for (const auto &[name, sec] : self)
        std::fprintf(stderr, "  %-18s %10.4f s  %5.1f%%\n", name.c_str(),
                     sec, 100.0 * ratio(sec, rootSec));
    if (!args.traceOut.empty() && !writeChromeTrace(spans, args.traceOut))
        v.fail("cannot write " + args.traceOut);
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** One line describing the host and build the result came from. */
void
printHost(const Args &args)
{
    std::cout << "host {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString("g++ " __VERSION__)
              << ", \"flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"perf_counters\": "
              << (declust::perfCountersEnabled() ? 1 : 0)
              << ", \"ec_tier\": "
              << jsonString(declust::ec::tierName(declust::ec::activeTier()))
              << ", \"event_queue\": "
              << jsonString(declust::EventQueue::implName(
                     declust::EventQueue::defaultImpl()))
              << ", \"commit\": " << jsonString(args.commit)
              << ", \"workload\": " << jsonString(args.workload)
              << ", \"seed\": " << args.seed << "}\n";
}

void
printResult(const Outcome &out)
{
    const Verdict &v = out.verdict;
    for (const std::string &p : v.problems)
        std::cout << "problem: " << p << "\n";
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (v.correct ? "true" : "false")
         << ", \"attempted\": " << v.attempted
         << ", \"failed\": " << v.failedCount() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : out.metrics) {
        json << (first ? "" : ", ") << jsonString(name)
             << ": {\"value\": " << value.value
             << ", \"unit\": " << jsonString(value.unit) << "}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            args->workload = val;
        else if (key == "--seed")
            args->seed = std::stoull(val);
        else if (key == "--seconds")
            args->seconds = std::stod(val);
        else if (key == "--trace")
            args->trace = val == "1";
        else if (key == "--root")
            args->root = val;
        else if (key == "--trace-out")
            args->traceOut = val;
        else if (key == "--commit")
            args->commit = val;
        else
            return false;
    }
    return argc % 2 == 1 && !args->workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    // Pin malloc's mmap threshold at its default (this also stops it
    // sliding up as large blocks are freed). Every simulation's large
    // tables are then mapped when it is built and unmapped when it is
    // freed, so peak RSS follows the live simulations and set-up time
    // includes faulting their memory in, rather than both depending on
    // which earlier repetition's freed memory the allocator reuses.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        if (!parseArgs(argc, argv, &args)) {
            std::cerr << "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--root DIR] "
                         "[--trace-out FILE] [--commit SHA]\n";
            return 2;
        }
        const Workload w = makeWorkload(args.workload);
        const Outcome out =
            args.trace ? runTraced(w, args) : runUntraced(w, args);
        printHost(args);
        printResult(out);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
