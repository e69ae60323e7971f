/**
 * @file
 * Implementation of the deterministic RNG.
 */

#include "rng.hpp"

#include <cassert>

namespace apres {

namespace {

/** SplitMix64 step, used to expand one seed into two xorshift words. */
std::uint64_t
splitMix64(std::uint64_t& state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t state = seed ? seed : 0xDEADBEEFCAFEF00Dull;
    s0 = splitMix64(state);
    s1 = splitMix64(state);
    if (s0 == 0 && s1 == 0)
        s1 = 1;
}

std::uint64_t
Rng::next()
{
    std::uint64_t x = s0;
    const std::uint64_t y = s1;
    s0 = y;
    x ^= x << 23;
    s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1 + y;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    assert(bound > 0);
    // Modulo bias is negligible for the bounds used in workload
    // synthesis (all far below 2^63) and keeps the stream portable.
    return next() % bound;
}

double
Rng::nextDouble()
{
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace apres
