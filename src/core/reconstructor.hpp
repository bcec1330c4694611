/**
 * @file
 * The background reconstruction engine (paper section 8).
 *
 * Sweeps the failed disk's stripe units in offset order, regenerating
 * each from its parity stripe's survivors and writing it to the
 * replacement. Runs 1..N logical reconstruction processes against a
 * shared sweep cursor (section 8.1's single-threaded vs. eight-way
 * parallel comparison), records per-cycle read/write phase durations
 * (table 8-1, including the last-300-units tail window), and supports an
 * optional per-cycle throttle delay (the paper's future-work item).
 *
 * The per-cycle G-1-way parity combine runs in the controller
 * (reconstructOffset); with `--data-plane verify` every one of those
 * combines is additionally executed over real stripe-unit bytes through
 * the SIMD kernels and byte-checked against the shadow value.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "array/controller.hpp"
#include "array/types.hpp"
#include "sim/time.hpp"
#include "stats/accumulator.hpp"

namespace declust {

/** Reconstruction engine configuration. */
struct ReconConfig
{
    ReconAlgorithm algorithm = ReconAlgorithm::Baseline;
    /** Concurrent reconstruction processes. */
    int processes = 1;
    /** Rebuild into the layout's distributed spare units instead of a
     * dedicated replacement disk (requires a sparing layout). */
    bool distributedSparing = false;
    /** Delay inserted after each cycle of each process (0 = none). */
    Tick throttleDelay = 0;
    /** Cycles contributing to the tail window statistics. */
    int tailWindow = 300;
};

/** Results of one complete reconstruction. */
struct ReconReport
{
    double reconstructionTimeSec = 0.0;
    std::uint64_t cycles = 0;   ///< units rebuilt by the sweep
    std::uint64_t skipped = 0;  ///< units rebuilt by user writes, or unmapped
    /** Units abandoned as unrecoverable (a second failure or a medium
     * error on a survivor); > 0 means the repair lost data. */
    std::uint64_t lostUnits = 0;
    Accumulator readPhaseMs;
    Accumulator writePhaseMs;
    Accumulator cycleMs;
    /** Same phases measured over only the last `tailWindow` cycles. */
    Accumulator tailReadPhaseMs;
    Accumulator tailWritePhaseMs;

    /**
     * Fold another report in, as when shards of one logical trial each
     * reconstructed a slice of the failed disk. Times and unit counts
     * add (a serial run would have swept the slices back-to-back);
     * phase accumulators merge, so cycle statistics cover every
     * shard's cycles — the tail accumulators then cover the union of
     * the shards' tail windows. Fold in shard-index order for
     * bit-reproducible sums.
     */
    void merge(const ReconReport &other);
};

/** Drives reconstruction of the currently failed disk to completion. */
class Reconstructor
{
  public:
    /**
     * @param array Controller with a failed disk (failDisk() already
     *        called, replacement not yet attached).
     * @param config Engine configuration.
     */
    Reconstructor(ArrayController &array, const ReconConfig &config);

    /**
     * Attach the replacement and start the sweep. @p onComplete fires
     * after the controller verifies and finishes the reconstruction.
     */
    void start(std::function<void()> onComplete);

    bool finished() const { return finished_; }
    const ReconReport &report() const { return report_; }

  private:
    void pump();
    void cycleDone(const CycleResult &result);

    ArrayController &array_;
    ReconConfig config_;
    std::function<void()> onComplete_;

    Tick startTick_ = 0;
    int nextOffset_ = 0;
    int activeProcesses_ = 0;
    bool started_ = false;
    bool finished_ = false;
    ReconReport report_;
    /**
     * Sliding tail of the most recent tailWindow (read, write) phase
     * pairs, kept in a fixed ring so the per-cycle push never allocates.
     */
    std::vector<std::pair<double, double>> tail_;
    std::size_t tailHead_ = 0;  ///< index of the oldest entry
    std::size_t tailCount_ = 0; ///< entries currently held
};

} // namespace declust
