/**
 * @file
 * The paper's benchmark suite (Table IV) as synthetic kernels.
 *
 * Each benchmark is a kernel whose static loads reproduce the
 * per-load signatures the paper characterizes in Table I: the
 * high-locality loads (small #L/#R) of BFS/MUM/SPMV, the large-stride
 * streaming loads of NW/LUD/SRAD/HISTO/BP, KM's pathological
 * 2 MB-window thrashing, and the compute-heavy mixes of the five
 * compute-intensive applications. Absolute data values are irrelevant
 * to APRES (a timing mechanism), so only address streams and
 * dependency shapes are modelled — see DESIGN.md, substitution table.
 */

#ifndef APRES_WORKLOADS_WORKLOAD_HPP
#define APRES_WORKLOADS_WORKLOAD_HPP

#include <string>
#include <vector>

#include "isa/kernel.hpp"

namespace apres {

/** Table IV's three application categories. */
enum class AppCategory {
    kCacheSensitive,   ///< memory-intensive, cache-size sensitive
    kCacheInsensitive, ///< memory-intensive, cache-size insensitive
    kComputeIntensive,
};

/** Human-readable category name. */
const char* categoryName(AppCategory category);

/** A benchmark: metadata + the kernel to simulate. */
struct Workload
{
    std::string abbr;     ///< Table IV abbreviation (e.g. "KM")
    std::string fullName; ///< e.g. "KMeans"
    std::string suite;    ///< originating suite (Rodinia/Parboil/CUDA)
    AppCategory category = AppCategory::kCacheSensitive;
    Kernel kernel;
};

/**
 * Build a benchmark by its Table IV abbreviation.
 *
 * @param name  one of the 15 abbreviations (case-sensitive)
 * @param scale multiplies the loop trip count; tests use ~0.1 for
 *              fast runs, benches 1.0 for paper-shaped runs
 * @throws SimError(kConfig) for an unknown name (`unknown workload
 *         "X"`) or a scale whose trip count a uint64 cannot hold
 */
Workload makeWorkload(const std::string& name, double scale = 1.0);

/** All 15 abbreviations, in Table IV order. */
const std::vector<std::string>& allWorkloadNames();

/** Abbreviations of one category, in Table IV order. */
std::vector<std::string> workloadNames(AppCategory category);

/** True when @p name is a memory-intensive application. */
bool isMemoryIntensive(const std::string& name);

} // namespace apres

#endif // APRES_WORKLOADS_WORKLOAD_HPP
