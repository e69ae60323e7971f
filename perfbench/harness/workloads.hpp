/**
 * @file
 * The benchmark's three workloads. Each runs its closed loop for
 * Options::seconds, checks its outputs, and fills the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "harness/layers.hpp"

namespace perfbench {

/** KM at 80 SMs x 64 warps under APRES, ff and sim.shards=4. */
void runFullchip(const Options& opts, SpanLog& spans, Outcome& out);

/** The deduplicated paper-figure cells as SweepRunner batches. */
void runPaperSuite(const Options& opts, SpanLog& spans, Outcome& out);

/** Warm and cold requests against a spawned apres_serve. */
void runServeMixed(const Options& opts, SpanLog& spans, Outcome& out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
