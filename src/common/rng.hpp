/**
 * @file
 * Deterministic pseudo-random number generation for the exploration
 * campaign (kernel-signature generation and mutation) and the tests.
 *
 * The simulator itself draws no random numbers: a simulation is a pure
 * function of its configuration and kernel, the irregular/zipf address
 * generators hash their own `seed=` attribute statelessly, and
 * GpuConfig::seed reaches no model component. Nothing here uses
 * std::random_device or wall-clock seeding. Xorshift128+ is used
 * because it is fast, has a long period, and its output is
 * reproducible across platforms.
 */

#ifndef APRES_COMMON_RNG_HPP
#define APRES_COMMON_RNG_HPP

#include <cstdint>

namespace apres {

/**
 * Deterministic xorshift128+ generator.
 *
 * Seeding with the same value always yields the same stream on every
 * platform (unlike std::mt19937's distribution wrappers).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; seed 0 is remapped internally. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Reset to an exact seed (same effect as re-construction). */
    void reseed(std::uint64_t seed);

  private:
    std::uint64_t s0;
    std::uint64_t s1;
};

} // namespace apres

#endif // APRES_COMMON_RNG_HPP
