// Fixture: nondeterministic sources in simulation code. Any use fires,
// whether or not it reaches a stats or scheduling sink — wall clocks,
// unseeded or implementation-defined randomness, and unordered
// containers (iteration order is address-dependent).
// EXPECT-ANALYZE: determinism-taint

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

namespace fixture {

long
wallClockSeed()
{
    const auto t = std::chrono::steady_clock::now(); // EXPECT-ANALYZE: determinism-taint
    const long ticks = clock(); // EXPECT-ANALYZE: determinism-taint
    const long secs = time(nullptr); // EXPECT-ANALYZE: determinism-taint
    std::random_device rd; // EXPECT-ANALYZE: determinism-taint
    srand(7); // EXPECT-ANALYZE: determinism-taint
    const int noise = std::rand(); // EXPECT-ANALYZE: determinism-taint
    return t.time_since_epoch().count() + ticks + secs + noise + rd();
}

double
implementationDefinedHazard(unsigned long seed)
{
    std::mt19937_64 engine(seed); // EXPECT-ANALYZE: determinism-taint
    std::exponential_distribution<double> ttf(1.0); // EXPECT-ANALYZE: determinism-taint
    return ttf(engine);
}

#define FIXTURE_NOW() std::chrono::system_clock::now() // EXPECT-ANALYZE: determinism-taint

struct TrialStats
{
    void merge(double v);
};

void
mergeShards(const std::unordered_map<int, double> &shards, // EXPECT-ANALYZE: determinism-taint
            TrialStats &stats)
{
    for (const auto &kv : shards)
        stats.merge(kv.second);
}

// Mentioning rand() or std::chrono in a comment must NOT fire, nor may
// the word "time" inside a diagnostic string literal:
inline const char *kMessage = "rotational time (not a wall-clock read)";

} // namespace fixture
