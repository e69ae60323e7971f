/**
 * @file
 * Timeline recorder implementation.
 */

#include "timeline.hpp"

#include <string>

#include "common/log.hpp"

namespace apres {

TimelineRecorder::TimelineRecorder(Cycle interval) : interval_(interval)
{
    // A zero interval would make record() step the Gpu by 0 cycles
    // forever; reject it up front instead of hanging in release builds.
    if (interval_ < 1)
        fatal("timeline interval must be >= 1 (got " +
              std::to_string(interval_) + ")");
}

RunResult
TimelineRecorder::record(Gpu& gpu)
{
    std::uint64_t last_instr = 0;
    std::uint64_t last_accesses = 0;
    std::uint64_t last_misses = 0;
    std::uint64_t last_prefetches = 0;

    while (!gpu.done() && gpu.now() < gpu.maxCycles()) {
        // The final interval may be cut short by the cycle cap (or by
        // the kernel finishing mid-window): normalize the interval IPC
        // by the cycles actually simulated so the partial tail row is
        // not diluted.
        const Cycle start = gpu.now();
        gpu.step(interval_);
        const Cycle elapsed = gpu.now() - start;
        const RunResult snap = gpu.collect();

        TimelineSample sample;
        sample.cycleEnd = gpu.now();
        sample.intervalIpc =
            static_cast<double>(snap.instructions - last_instr) /
            static_cast<double>(elapsed);
        const std::uint64_t accesses =
            snap.l1.demandAccesses - last_accesses;
        const std::uint64_t misses = snap.l1.demandMisses - last_misses;
        sample.intervalMissRate = accesses
            ? static_cast<double>(misses) / static_cast<double>(accesses)
            : 0.0;
        sample.intervalPrefetches =
            snap.prefetchesIssued - last_prefetches;
        sample.cumulativeIpc = snap.ipc;
        samples_.push_back(sample);

        last_instr = snap.instructions;
        last_accesses = snap.l1.demandAccesses;
        last_misses = snap.l1.demandMisses;
        last_prefetches = snap.prefetchesIssued;
    }

    return gpu.finish();
}

void
TimelineRecorder::toCsv(CsvWriter& csv, const std::string& workload) const
{
    for (const TimelineSample& s : samples_) {
        StatSet row;
        row.set("cycleEnd", static_cast<double>(s.cycleEnd));
        row.set("intervalIpc", s.intervalIpc);
        row.set("intervalMissRate", s.intervalMissRate);
        row.set("intervalPrefetches",
                static_cast<double>(s.intervalPrefetches));
        row.set("cumulativeIpc", s.cumulativeIpc);
        csv.addRow(workload, row);
    }
}

} // namespace apres
