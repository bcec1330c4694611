/**
 * @file
 * Host-speed probe: a fixed amount of work that calls nothing in declust,
 * timed between repetitions so the benchmark can report its host times
 * at a reference host speed.
 *
 * The host is a few vCPUs of a shared machine. How fast they run drifts
 * by tens of percent over minutes with the load of its other tenants, so
 * two runs of the same code minutes apart differ by more than any change
 * worth detecting. The probe runs the same kernel on as many threads as
 * the timed work uses and records the mean per-thread wall. The kernel
 * stands for what the workload's time goes to: memory latency (a
 * dependent walk over a random cycle through a 16 MiB table, each
 * thread on its own copy) and, for workloads that also follow core
 * speed, a dependent chain of integer work. A run's slowdown is the median of its
 * samples over the kernel's wall on the reference host; dividing a host
 * time by it removes the drift the kernel sees, and no change to declust
 * can move the kernel.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** What one probe sample runs on each thread: about 42 ms on the
 * reference host either way. */
enum class ProbeKernel
{
    /** Table walk only. */
    Memory,
    /** Half table walk, half integer chain. */
    Mixed,
};

class HostSpeed
{
  public:
    /** @p threads: the worker count of the work being timed. */
    HostSpeed(int threads, ProbeKernel kernel);

    /** Sample until the samples have taken @p share of @p workSec, the
     * wall of the work just timed (at least one sample). */
    void sampleFor(double workSec, double share);

    /** Median sampled wall / the reference wall (1 = reference speed,
     * 2 = the host ran half as fast); 1 with no samples. */
    double slowdown() const;

    std::size_t samples() const { return walls_.size(); }

    /** Resident bytes of the probe's tables, which count in the
     * process's peak RSS from construction on. */
    std::size_t tableBytes() const;

  private:
    /** Run the kernel once on every thread; record the mean wall. */
    void sample();

    /** One table per thread, so no walk finds lines another loaded. */
    std::vector<std::vector<std::uint32_t>> tables_;
    ProbeKernel kernel_;
    std::vector<double> walls_;
};

} // namespace perfbench
