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
#include <vector>

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

/**
 * Zipf-distributed sampler over {0, .., n-1}.
 *
 * Used to synthesise irregular-but-skewed access patterns (e.g. the BFS
 * and MUM frontier loads, whose footprint is large yet a small set of
 * lines absorbs most references). Uses the classic inverse-CDF walk
 * with a precomputed table, so sampling is O(log n).
 */
class ZipfSampler
{
  public:
    /**
     * @param n     population size (number of distinct items)
     * @param alpha skew exponent; 0 degenerates to uniform
     */
    ZipfSampler(std::size_t n, double alpha);

    /** Draw one item index in [0, n). */
    std::size_t sample(Rng& rng) const;

    /** Population size. */
    std::size_t size() const { return cdf.size(); }

  private:
    std::vector<double> cdf; // cumulative probability per rank
};

} // namespace apres

#endif // APRES_COMMON_RNG_HPP
