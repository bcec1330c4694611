/**
 * @file
 * The benchmark's workloads, written against the declust library's
 * public entry points (ArraySimulation, ClusterRunner, TrialRunner,
 * Layout, RequestRouter, EventQueue, ec::kernels).
 *
 * A workload runs as repetitions. Each repetition builds its
 * simulations (set-up, timed on its own), runs them (the timed work),
 * and renders the simulated result as the same text table the repo's
 * bench/ programs print, so it can be byte-compared against a reference.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "array/types.hpp"
#include "cluster/topology.hpp"
#include "disk/geometry.hpp"

namespace perfbench {

class Tracer;

/** How one repetition runs. */
struct RepOptions
{
    std::uint64_t seed = 1;
    /** Worker threads (sweep jobs, or cluster workers). */
    int workers = 4;
    /** Pending-set implementation name; empty keeps the default. */
    std::string queue;
    /** Record spans into this tracer (null or disabled: no spans). */
    Tracer *tracer = nullptr;
    /** Parent span id for the repetition's spans. */
    int parentSpan = -1;
    /** Sweep: drain every array after its trial (conservation count). */
    bool drain = false;
    /** Sweep: override the data-plane mode by name (empty: the spec's). */
    std::string plane;
    /** Build the simulations and free them without running them. */
    bool setupOnly = false;
};

/** What one repetition produced. */
struct RepResult
{
    /** Set-up wall: for a sweep, the summed constructor walls of its
     * cells, which the workers build in parallel. */
    double setupSec = 0.0;
    /** Timed-work wall, set-up excluded. */
    double runSec = 0.0;
    std::uint64_t events = 0;
    /** Simulated result table, byte-compared against references. */
    std::string table;

    /** User requests issued, and those that ended in data loss. */
    std::uint64_t issued = 0;
    std::uint64_t lost = 0;

    /** Simulated end-to-end figures. */
    double userMs = 0.0;
    double userP99Ms = 0.0;
    double reconSec = 0.0;
    double iops = 0.0;
    double diskUtil = 0.0;

    /** Mean pending events per event core, sampled mid-run. */
    double pendingMean = 0.0;
    std::uint64_t reconCycles = 0;
    std::uint64_t ecCombines = 0;
    std::uint64_t ecBytes = 0;
    /** Sweep: per-thread wall in reconstruct() and events it ran. */
    double reconWallSec = 0.0;
    std::uint64_t reconEvents = 0;
    /** Sweep: summed wall of every trial/shard work item. */
    double busySec = 0.0;

    /** Cluster only. */
    std::uint64_t redirects = 0;
    int arrays = 0;
    int epochs = 0;
    std::vector<double> epochArrayWallSec;
};

/** A fig8_recon_single-shaped sweep over one 21-disk array per cell. */
struct SweepSpec
{
    std::vector<int> stripes;
    std::vector<int> rates;
    std::vector<declust::ReconAlgorithm> algorithms;
    int tracks = 1;
    /** Shards per sweep point: 0 = as many as workers. */
    int shards = 1;
    /** Data-plane mode name (off | verify). */
    std::string plane = "off";
};

/** A bench_cluster-shaped run over one or more rolling-rebuild counts. */
struct ClusterSpec
{
    declust::ClusterConfig config;
    std::vector<int> rebuilds;
    double warmupSec = 0.5;
    double measureSec = 2.0;
    double staggerSec = 2.0;
};

/** The paper-geometry disk with @p tracks tracks per cylinder. */
declust::DiskGeometry paperGeometry(int tracks);

/** The fig8 reduced sweep over all paper stripe sizes and algorithms. */
SweepSpec fig8Sweep();

/** A 21-disk, G=6 cluster template (the bench_cluster defaults). */
declust::ClusterConfig clusterTemplate(int arrays, double rps);

RepResult runSweep(const SweepSpec &spec, const RepOptions &opts);
RepResult runCluster(const ClusterSpec &spec, const RepOptions &opts);

/** @{ Single-layer probes, timed from outside the layer. */
/** EventQueue pop + reschedule at @p pending queued events, ns/op. */
double holdNs(std::size_t pending, std::uint64_t seed);
/** Layout::place over every (G, geometry) in @p cells, ns/call. */
double placeNs(const std::vector<std::pair<int, declust::DiskGeometry>>
                   &cells,
               std::uint64_t seed);
/** Total wall seconds of makeLayout (design selection included) over
 * every cell. */
double layoutBuildSec(
    const std::vector<std::pair<int, declust::DiskGeometry>> &cells);
/** RequestRouter::route over @p epochs healthy epochs, ns/arrival. */
double routeNs(const declust::ClusterConfig &config, int epochs);
/** ec::kernels().xorInto at one stripe unit per call, GB/s. */
double xorGbps(std::size_t unitBytes);
/** @} */

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** The (G, geometry) of every array a sweep or cluster builds. */
std::vector<std::pair<int, declust::DiskGeometry>>
sweepLayouts(const SweepSpec &spec, int workers);
std::vector<std::pair<int, declust::DiskGeometry>>
clusterLayouts(const ClusterSpec &spec);

/** Advance time of a W-worker cluster run predicted from @p rep's
 * per-(epoch, array) walls: each epoch's walls packed longest-first
 * into @p workers bins, the fullest bin summed over epochs. */
double lptAdvanceSec(const RepResult &rep, int workers);

} // namespace perfbench
