/**
 * @file
 * Timeline recording: periodic snapshots of a running simulation.
 *
 * Samples the full RunResult every N cycles and derives per-interval
 * deltas (IPC, miss rate, prefetch activity within the window), which
 * is how the phase behaviour of a kernel — warm-up, steady state,
 * drain, CCWS throttle oscillation — becomes visible. Rows export via
 * the CSV writer.
 */

#ifndef APRES_SIM_TIMELINE_HPP
#define APRES_SIM_TIMELINE_HPP

#include <string>
#include <vector>

#include "common/csv.hpp"
#include "sim/gpu.hpp"

namespace apres {

/** One sampled interval. */
struct TimelineSample
{
    Cycle cycleEnd = 0;       ///< end of the interval
    double intervalIpc = 0.0; ///< instructions/cycle within the interval
    double intervalMissRate = 0.0; ///< L1 miss rate within the interval
    std::uint64_t intervalPrefetches = 0; ///< prefetches issued within
    double cumulativeIpc = 0.0;
};

/**
 * Runs a Gpu to completion while sampling every @p interval cycles.
 */
class TimelineRecorder
{
  public:
    /** @param interval cycles per sample; fatal unless >= 1. */
    explicit TimelineRecorder(Cycle interval);

    /**
     * Drive @p gpu to completion (or its cycle cap) through
     * Gpu::step(), sampling as it goes. Stepping runs the real engine
     * (fast-forward, shards, audits, interrupt polls, watchdog), so a
     * wedged machine throws SimError(kDeadlock) here as in Gpu::run().
     * @return Gpu::finish(): the RunResult Gpu::run() would return
     */
    RunResult record(Gpu& gpu);

    /** The collected samples. */
    const std::vector<TimelineSample>& samples() const { return samples_; }

    /**
     * Export all samples through the CSV writer, one row per sample
     * labelled @p workload, so rows of several runs stay apart.
     */
    void toCsv(CsvWriter& csv, const std::string& workload) const;

  private:
    Cycle interval_;
    std::vector<TimelineSample> samples_;
};

} // namespace apres

#endif // APRES_SIM_TIMELINE_HPP
