/**
 * @file
 * Policy comparison: one run per (kernel, policy) cell, IPC speedups
 * per ordered policy pair.
 *
 * The simulator is deterministic — a run is a pure function of its
 * config and kernel, and GpuConfig::seed changes no statistic — so a
 * cell has exactly one result and repeating it measures nothing. Per
 * pair the report gives both IPCs and speedup = candidate / baseline.
 *
 * Every cell is one ServeJobSpec run through the daemon's own
 * cached-batch path (runCachedBatch, serve/batch.hpp): the SweepRunner
 * thread pool returns results in submission order, so parallelism
 * never changes the report, and with a cache directory the cells are
 * memoized under the daemon's cache keys, so a warm re-run costs zero
 * simulations and a cell either front end stored is a hit for the
 * other. Reports carry no wall times.
 */

#ifndef APRES_EXPLORE_POLICY_COMPARE_HPP
#define APRES_EXPLORE_POLICY_COMPARE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace apres {

/** One contender: a scheduler/prefetcher pairing. */
struct ComparePolicy
{
    std::string scheduler = "lrr";
    std::string prefetcher = "none";

    /** "laws+sap", "gto+none", ... (report and cell label). */
    std::string label() const { return scheduler + "+" + prefetcher; }
};

/** Harness options. */
struct CompareOptions
{
    std::vector<ComparePolicy> policies; ///< >= 2

    /**
     * Workloads under comparison (>= 1): a named workload or inline
     * kernel text, with its own overrides applied after the shared
     * ones below.
     */
    std::vector<ServeJobSpec> kernels;

    /** Dotted overrides applied to every cell (machine shaping). */
    std::vector<std::pair<std::string, std::string>> overrides;

    /** Serve result-cache directory; empty disables memoization. */
    std::string cacheDir;

    /** Sweep threads; <= 0 selects defaultJobCount(). */
    int threads = 0;
};

/** One ordered policy pair on one kernel. */
struct ComparePair
{
    std::string kernel;
    std::string baseline;   ///< policy A label
    std::string candidate;  ///< policy B label
    double ipcBaseline = 0.0;
    double ipcCandidate = 0.0;
    double speedup = 0.0;   ///< ipcCandidate / ipcBaseline
};

/** The full comparison result. */
struct CompareReport
{
    std::vector<std::string> policies;
    std::vector<std::string> kernels;
    std::vector<ComparePair> pairs;
    std::uint64_t simulations = 0; ///< cells actually simulated
    std::uint64_t cacheHits = 0;   ///< cells served from the cache

    /** Deterministic JSON document (schema apres-compare-report-v2). */
    void writeJson(std::ostream& os) const;

    /** One CSV row per pair, with the JSON pair fields as columns. */
    void writeCsv(std::ostream& os) const;
};

/**
 * Run the comparison. Throws SimError(kConfig) on malformed options
 * and on the first failed cell in (kernel, policy) order, naming the
 * cell with its error kind and detail (a comparison must not silently
 * drop error rows).
 */
CompareReport runComparison(const CompareOptions& options);

} // namespace apres

#endif // APRES_EXPLORE_POLICY_COMPARE_HPP
