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
 * Run @p jobs through @p cache, in order:
 *
 *  1. resolve each spec to a config, a kernel and a cache key
 *     (computeCacheKey under @p fingerprint). An invalid job (bad
 *     override, unknown workload, malformed kernel text) becomes an
 *     unkeyed error row and is never cached or executed;
 *  2. look each key up;
 *  3. simulate the misses on one SweepRunner built from @p runner,
 *     which keeps going past failed jobs;
 *  4. serialize every fresh result and store the "ok" ones — errors
 *     and timeouts are environmental or diagnostic and must re-run.
 */
std::vector<CachedRun> runCachedBatch(const std::vector<ServeJobSpec>& jobs,
                                      const std::string& fingerprint,
                                      ResultCache& cache,
                                      RunnerOptions runner);

} // namespace apres

#endif // APRES_SERVE_BATCH_HPP
