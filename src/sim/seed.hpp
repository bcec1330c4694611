/**
 * @file
 * The repo's single seed-derivation point.
 *
 * Every independent random stream in the simulator is keyed by a
 * 64-bit seed derived from the experiment's base seed. Deriving those
 * seeds ad hoc (xor here, shift-and-add there) makes collisions — two
 * "independent" streams that are actually correlated — silent and
 * almost impossible to audit, so all derivation lives in this header
 * and an analyzer rule (seed-isolation) bans seed arithmetic anywhere
 * else in src/.
 *
 * Three derivation flavours, in decreasing order of mixing strength:
 *
 *   splitmix64(z)       full avalanche finalizer; use when derived
 *                       seeds feed statistically sensitive streams
 *                       (Monte Carlo windows, shard sub-seeds).
 *   mixSeed(seed, salt) splitmix64 over seed + salt; the per-disk
 *                       stream split the fault models use.
 *   taggedSeed(seed, t) plain xor; only decorrelates streams that are
 *                       then expanded through Rng's own splitmix64
 *                       seeding (workload/value/fault stream tags).
 *
 * The numeric definitions are frozen: they reproduce exactly the
 * derivations the drivers used before this header existed, so golden
 * outputs are unchanged.
 */
#pragma once

#include <cstdint>

namespace declust {

/** splitmix64 finalizer: one full-avalanche step (Steele et al.). */
constexpr std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Sequential splitmix64 step: returns splitmix64 of the current state
 * and advances the state by the golden-gamma increment. This is the
 * generator form of the finalizer above — use it to expand one seed
 * into a stream of independent 64-bit words (Rng state init, fresh
 * unit values) instead of re-deriving the mixing constants locally.
 */
inline std::uint64_t
splitmixNext(std::uint64_t &state)
{
    const std::uint64_t z = splitmix64(state);
    state += 0x9e3779b97f4a7c15ull;
    return z;
}

/** Salted splitmix64: decorrelates (seed, salt) tuples. */
constexpr std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    return splitmix64(seed + salt);
}

/**
 * Cheap stream tag: xor with a constant. Safe only because Rng's
 * constructor runs its own splitmix64 expansion over the result; do
 * not feed a taggedSeed anywhere that uses the bits directly.
 */
constexpr std::uint64_t
taggedSeed(std::uint64_t seed, std::uint64_t tag)
{
    return seed ^ tag;
}

/**
 * Sub-seed for shard @p shard of a trial split @p shards ways.
 *
 * shards == 1 returns the trial seed unchanged — an unsharded run is
 * byte-identical to a pre-sharding build. For real splits every shard
 * gets a doubly-mixed seed: the outer splitmix64 avalanche guarantees
 * that shard streams of the same trial, and equal-index shards of
 * nearby trial seeds, share no structure.
 */
constexpr std::uint64_t
shardSeed(std::uint64_t trialSeed, int shard, int shards)
{
    if (shards == 1)
        return trialSeed;
    const auto lane = static_cast<std::uint64_t>(shard) + 1;
    return splitmix64(splitmix64(trialSeed) ^
                      (0x9e3779b97f4a7c15ull * lane));
}

} // namespace declust
