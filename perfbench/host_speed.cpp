#include "host_speed.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/** Table entries: 16 MiB, past every core's L2 (2 MiB) on the
 * reference host. */
constexpr std::size_t kEntries = std::size_t{1} << 22;
/** Mean per-thread wall of one sample on the reference host (4-vCPU
 * Xeon, Intel family 6 model 207). */
constexpr double kReferenceSec = 0.042;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Keeps every walk observable so none is optimised away. */
std::atomic<std::uint64_t> sink{0};

/** One thread's sample: @p steps table steps, then @p mixes steps of
 * the integer chain. */
double
walk(const std::vector<std::uint32_t> &next, int steps, int mixes)
{
    const double t0 = nowSec();
    // A dependent walk through the table: every step waits on a load
    // that misses L2.
    std::uint32_t at = 0;
    for (int i = 0; i < steps; ++i)
        at = next[at];
    // A dependent chain of integer shifts, adds and selects.
    std::uint64_t x = at | 1u;
    std::uint64_t acc = 0;
    for (int i = 0; i < mixes; ++i) {
        xorshift(x);
        if (x & 1u)
            acc += x >> 3;
        else
            acc ^= x;
    }
    sink += acc + at;
    return nowSec() - t0;
}

} // namespace

HostSpeed::HostSpeed(int threads, ProbeKernel kernel) : kernel_(kernel)
{
    // Sattolo's shuffle of the identity makes one cycle through every
    // entry; a fixed seed makes it the same table in every run.
    std::vector<std::uint32_t> next(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i)
        next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = kEntries - 1; i > 0; --i)
        std::swap(next[i], next[xorshift(x) % i]);
    tables_.assign(static_cast<std::size_t>(std::max(threads, 1)), next);
}

void
HostSpeed::sample()
{
    const bool mixed = kernel_ == ProbeKernel::Mixed;
    const int steps = mixed ? 150000 : 300000;
    const int mixes = mixed ? 6000000 : 0;
    std::vector<double> walls(tables_.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 1; t < tables_.size(); ++t)
        workers.emplace_back([this, &walls, t, steps, mixes] {
            walls[t] = walk(tables_[t], steps, mixes);
        });
    walls[0] = walk(tables_[0], steps, mixes);
    for (std::thread &w : workers)
        w.join();
    double sum = 0.0;
    for (const double w : walls)
        sum += w;
    walls_.push_back(sum / static_cast<double>(walls.size()));
}

void
HostSpeed::sampleFor(double workSec, double share)
{
    const double t0 = nowSec();
    do
        sample();
    while (nowSec() - t0 < share * workSec);
}

double
HostSpeed::slowdown() const
{
    return walls_.empty() ? 1.0 : median(walls_) / kReferenceSec;
}

std::size_t
HostSpeed::tableBytes() const
{
    return tables_.size() * kEntries * sizeof(std::uint32_t);
}

} // namespace perfbench
