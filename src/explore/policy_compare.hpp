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
 * Runs go through the SweepRunner thread pool (results in submission
 * order, so parallelism never changes the report) and are optionally
 * memoized in the serve result cache: the cell's cache key is the
 * same computeCacheKey() the daemon uses, so a warm re-run of a
 * comparison costs zero simulations. Reports carry no wall times.
 */

#ifndef APRES_EXPLORE_POLICY_COMPARE_HPP
#define APRES_EXPLORE_POLICY_COMPARE_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace apres {

/** One contender: a scheduler/prefetcher pairing. */
struct ComparePolicy
{
    std::string scheduler = "lrr";
    std::string prefetcher = "none";

    /** "laws+sap", "gto+none", ... (report and cell label). */
    std::string label() const { return scheduler + "+" + prefetcher; }
};

/** One workload under comparison: named workload or inline text. */
struct CompareKernel
{
    std::string label;
    std::string workload;   ///< Table IV abbreviation; empty for text
    double scale = 1.0;     ///< named-workload trip multiplier
    std::string kernelText; ///< .kt text (corpus kernels); empty for named
};

/** Harness options. */
struct CompareOptions
{
    std::vector<ComparePolicy> policies; ///< >= 2
    std::vector<CompareKernel> kernels;  ///< >= 1

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
 * and propagates the first simulation failure (a comparison must not
 * silently drop error rows).
 */
CompareReport runComparison(const CompareOptions& options);

} // namespace apres

#endif // APRES_EXPLORE_POLICY_COMPARE_HPP
