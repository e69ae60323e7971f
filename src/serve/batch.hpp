/**
 * @file
 * The cached-batch path: the one place that turns job specs into
 * cache keys, answers hits from a ResultCache, simulates the misses
 * and memoizes the clean results. apres_serve runs every request
 * through it (ServeDaemon::handleRun) and apres_explore compare every
 * comparison (runComparison), so a cell either front end stored is a
 * hit for the other.
 */

#ifndef APRES_SERVE_BATCH_HPP
#define APRES_SERVE_BATCH_HPP

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "sim/runner.hpp"

namespace apres {

/** One job's outcome, in the order of the batch. */
struct CachedRun
{
    std::string key;      ///< cache key; empty when the job is invalid
    std::string payload;  ///< serializeRunResult document
    bool cached = false;  ///< answered from the cache

    /** True when the job ran in this batch (a keyed miss). */
    bool simulated() const { return !cached && !key.empty(); }
};

/**
 * A budget of simulation slots shared by concurrent batches: the bound
 * on simulations running at once. A batch with misses claims slots
 * after its lookups, so cache hits never take one.
 */
class SimulationSlots
{
  public:
    /** Slots held by one batch; given back on destruction. */
    class Claim
    {
      public:
        /**
         * Wait until a slot is free, then take up to @p want of the
         * free ones (at least one).
         */
        Claim(SimulationSlots& slots, std::size_t want);
        ~Claim();

        Claim(const Claim&) = delete;
        Claim& operator=(const Claim&) = delete;

        /** Slots held: the workers the batch may run. */
        int count() const { return count_; }

      private:
        SimulationSlots& slots_;
        int count_ = 0;
    };

    /** A budget of @p slots slots (at least one). */
    explicit SimulationSlots(int slots);

    SimulationSlots(const SimulationSlots&) = delete;
    SimulationSlots& operator=(const SimulationSlots&) = delete;

  private:
    std::mutex mu_;
    std::condition_variable freed_;
    int free_; ///< guarded by mu_
};

/**
 * Run @p jobs through @p cache, in order:
 *
 *  1. resolve each spec to a config, a kernel and a cache key
 *     (computeCacheKey under @p fingerprint). An invalid job (bad
 *     override, unknown workload, malformed kernel text) becomes an
 *     unkeyed error row and is never cached or executed;
 *  2. look each key up;
 *  3. simulate the misses on one SweepRunner built from @p runner,
 *     which keeps going past failed jobs. With @p slots, the misses
 *     first claim workers from that budget and run on as many as
 *     they got, in place of runner.threads;
 *  4. serialize every fresh result and store the "ok" ones — errors
 *     and timeouts are environmental or diagnostic and must re-run.
 */
std::vector<CachedRun> runCachedBatch(const std::vector<ServeJobSpec>& jobs,
                                      const std::string& fingerprint,
                                      ResultCache& cache,
                                      RunnerOptions runner,
                                      SimulationSlots* slots = nullptr);

} // namespace apres

#endif // APRES_SERVE_BATCH_HPP
