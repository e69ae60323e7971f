/**
 * @file
 * The job path of the front ends that take ServeJobSpecs. One helper
 * builds the specs, one resolver turns a spec into the SweepJob it
 * runs, and the cached-batch path keys the jobs, answers hits from a
 * ResultCache, simulates the misses and memoizes the clean results.
 * apres_serve runs every request through the cached path
 * (ServeDaemon::handleRun) and apres_explore compare every comparison
 * (runComparison), so a cell either front end stored is a hit for the
 * other; apres_sim resolves its specs and runs them uncached.
 */

#ifndef APRES_SERVE_BATCH_HPP
#define APRES_SERVE_BATCH_HPP

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
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
 * The specs of one batch, in order: one per name in @p workloads at
 * @p scale ("all" expands to the 15 Table IV names), then one per
 * kernel file, sent as its text and labelled with its path. Every
 * spec carries @p overrides. Throws SimError(kKernel) naming a kernel
 * file that cannot be read.
 */
std::vector<ServeJobSpec> makeServeJobSpecs(
    const std::vector<std::string>& workloads,
    const std::vector<std::string>& kernel_files, double scale,
    const std::vector<std::pair<std::string, std::string>>& overrides = {});

/**
 * The job @p spec runs: the default GpuConfig with the spec's
 * overrides applied in order, over its named workload at its scale or
 * its parsed kernel text, labelled with the spec's label and without
 * a driver. Throws SimError(kConfig) for a bad override, an unknown
 * workload or a scale makeWorkload rejects, SimError(kKernel) for
 * malformed kernel text.
 */
SweepJob resolveServeJob(const ServeJobSpec& spec);

/**
 * Run @p jobs through @p cache, in order:
 *
 *  1. resolve each spec (resolveServeJob) and key it (computeCacheKey
 *     under @p fingerprint). An invalid job (bad override, unknown
 *     workload, malformed kernel text) becomes an unkeyed error row
 *     and is never cached or executed. So does a job that would write
 *     a file (sim.traceFile) or start engine threads outside the
 *     simulation budget (sim.shards other than 1);
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
