/**
 * @file
 * Shared helpers for the benches: the bench scale, the baseline
 * config, workload handles, geometric-mean aggregation and fixed-width
 * table printing.
 */

#ifndef APRES_BENCH_BENCH_UTIL_HPP
#define APRES_BENCH_BENCH_UTIL_HPP

#include <cmath>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace apres::bench {

/**
 * Trip-count multiplier; override with APRES_BENCH_SCALE. Non-numeric,
 * zero, negative or otherwise unusable values are rejected with a
 * warning and fall back to the default of 1.0.
 */
double benchScale();

/** Strict APRES_BENCH_SCALE parse; @return the fallback on bad input. */
double parseBenchScale(const char* text, double fallback = 1.0);

/** The paper's baseline (LRR, no prefetching, Table III sizes). */
GpuConfig baselineConfig();

/** Geometric mean; empty input yields 1. */
double geomean(const std::vector<double>& values);

/** Print a table header: first column wide, rest fixed width. */
void printHeader(const std::string& first,
                 const std::vector<std::string>& columns);

/** Print one row of doubles with @p precision decimals. */
void printRow(const std::string& first, const std::vector<double>& values,
              int precision = 3);

/** Build workload @p name at @p scale as a shared handle. */
std::shared_ptr<const Workload> loadWorkload(const std::string& name,
                                             double scale);

/** Aliasing kernel handle into an already-loaded workload. */
std::shared_ptr<const Kernel> kernelOf(std::shared_ptr<const Workload> wl);

} // namespace apres::bench

#endif // APRES_BENCH_BENCH_UTIL_HPP
