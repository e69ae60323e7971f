/**
 * @file
 * The benchmark's own arithmetic: order statistics with the
 * ten-samples-beyond rule, failure fractions, the idle-share formulas
 * and StatSet digests. Kept free of I/O so perfbench_tests can pin it.
 */

#ifndef PERFBENCH_BENCH_MATH_HPP
#define PERFBENCH_BENCH_MATH_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace perfbench {

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the value at rank ceil(p/100 * n) of the
 * sorted samples. @p p in (0, 100]; 0 when empty.
 */
double percentile(std::vector<double> values, double p);

/** Samples strictly beyond the nearest-rank @p p percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The percentile to report for @p n samples: @p wanted when at least
 * ten samples lie beyond it, else the highest of 99.9/99/95/90/75/50
 * below @p wanted that keeps ten beyond; 0 when no percentile does.
 */
double reportablePercentile(std::size_t n, double wanted);

/** failed / attempted; 1 when nothing was attempted (nothing worked). */
double failedFrac(std::uint64_t failed, std::uint64_t attempted);

/**
 * Share of worker time a batch left unused:
 * 1 - sum(job wall) / (workers * batch wall), floored at 0.
 */
double workerIdleFrac(double sum_job_wall_s, int workers,
                      double batch_wall_s);

/**
 * Share of SM-cycles in which an SM could not issue:
 * idleCycles / (cycles * numSms).
 */
double idleSmCycleFrac(double idle_cycles, double cycles, double num_sms);

/** Geometric mean; 0 when empty or any value is not positive. */
double geomean(const std::vector<double>& values);

/**
 * Digest of every (key, exact double bits) pair of @p stats: equal
 * digests mean bitwise-equal StatSets.
 */
std::string statDigest(const apres::StatSet& stats);

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_HPP
