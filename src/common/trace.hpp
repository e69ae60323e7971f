/**
 * @file
 * Structured event tracing: compact per-lane ring buffers flushed to
 * Chrome trace_event JSON.
 *
 * The tracer is the simulator's flight recorder. Components emit
 * typed events (warp issue, L1 hit/miss/bypass, MSHR merge, DRAM
 * service, LAWS group promotion/demotion, SAP training and prefetch
 * issue, fast-forward idle spans) into fixed-capacity ring buffers —
 * one lane per SM plus one for the memory side and one for the
 * simulation engine. When the buffer of a lane fills, the oldest
 * events are overwritten (and counted as dropped), so tracing a long
 * run keeps the most recent window instead of aborting or growing
 * without bound.
 *
 * Two consumers:
 *
 *  - writeChromeTrace() emits the Chrome trace_event JSON format
 *    (loadable in chrome://tracing or https://ui.perfetto.dev), one
 *    process per lane, one thread per warp, 1 simulated cycle = 1 us;
 *  - eventSummary() renders the cycle-free event *sequence*
 *    ("sm0 warp-issue pc=4 warp=3" lines, engine lane excluded),
 *    which is what the golden-trace regression suite pins: the order
 *    of typed events is part of the simulator's contract, wall
 *    timestamps are not.
 *
 * Tracing is pure observation: recording an event never feeds back
 * into simulation state, so every statistic is bitwise identical with
 * tracing on or off (tests/ff_equivalence_test.cpp enforces this).
 * When tracing is off no Tracer exists and every emit site is a
 * single null-pointer test.
 */

#ifndef APRES_COMMON_TRACE_HPP
#define APRES_COMMON_TRACE_HPP

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace apres {

/** Every event type the simulator can emit. */
enum class TraceEventType : std::uint8_t {
    kWarpIssue,        ///< an instruction issued (pc, warp)
    kSchedulerIdle,    ///< scheduler idled deliberately with ready warps
    kL1Hit,            ///< first-line L1 demand hit (pc, warp)
    kL1Miss,           ///< first-line L1 demand miss (pc, warp)
    kL1Bypass,         ///< adaptive-bypass line skipped the L1
    kMshrMerge,        ///< demand line merged into an outstanding MSHR
    kDramService,      ///< request scheduled on a DRAM channel
    kLawsGroupPromote, ///< LAWS moved a hit group to the queue head
    kLawsGroupDemote,  ///< LAWS moved a miss group to the queue tail
    kSapPtTrain,       ///< SAP trained its PT with an inter-warp stride
    kSapStrideMatch,   ///< grouped miss matched the stored stride
    kSapPrefetchIssue, ///< SAP prefetch accepted into the memory system
    kSapWqDrain,       ///< SAP drained a WQ walk (arg = warps walked)
    kFfIdleSpan,       ///< fast-forward bulk idle skip (arg = cycles)
};

/** Number of TraceEventType values (array-sizing helper). */
inline constexpr std::size_t kNumTraceEventTypes =
    static_cast<std::size_t>(TraceEventType::kFfIdleSpan) + 1;

/** Stable lower-case name of @p type ("warp-issue", "l1-miss", ...). */
const char* traceEventTypeName(TraceEventType type);

/** One recorded event; compact, fixed-size. */
struct TraceRecord
{
    Cycle cycle = 0;             ///< emission cycle
    std::uint64_t arg = 0;       ///< event-specific payload (addr/mask/count)
    Pc pc = kInvalidPc;          ///< static PC, kInvalidPc when n/a
    WarpId warp = kInvalidWarp;  ///< warp, kInvalidWarp when n/a
    TraceEventType type = TraceEventType::kWarpIssue;
};

/**
 * The event recorder. Lanes 0..numSms-1 belong to the SMs; two extra
 * lanes hold memory-side and engine-level events.
 */
class Tracer
{
  public:
    /**
     * @param num_sms           SM lane count
     * @param capacity_per_lane ring capacity per lane (>= 1)
     */
    Tracer(int num_sms, std::size_t capacity_per_lane);

    /** Lane of memory-side events (DRAM service). */
    int memLane() const { return numSms_; }

    /** Lane of engine events (fast-forward idle spans). */
    int engineLane() const { return numSms_ + 1; }

    /** Total lanes (SMs + mem + engine). */
    int numLanes() const { return numSms_ + 2; }

    /** Record one event into @p lane's ring. */
    void record(int lane, TraceEventType type, Cycle cycle,
                Pc pc = kInvalidPc, WarpId warp = kInvalidWarp,
                std::uint64_t arg = 0);

    /** Events recorded over the run (including later-overwritten). */
    std::uint64_t recorded() const;

    /** Events lost to ring overwrites. */
    std::uint64_t dropped() const;

    /** Events currently retained across all lanes. */
    std::uint64_t retained() const;

    /**
     * Events of @p type ever recorded on the SM and memory lanes (the
     * engine lane is excluded, matching eventSummary()). Unlike the
     * rings these counters survive overwrites, so they summarize the
     * whole run — the behavioral-coverage layer (src/explore) bins on
     * them.
     */
    std::uint64_t eventTypeCount(TraceEventType type) const;

    /**
     * Every event type with a non-zero recorded count, in enum order,
     * as (stable type name, count) pairs. The machine-readable twin of
     * eventSummary()'s per-event lines.
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    eventTypeCounts() const;

    /**
     * Emit the retained events as one Chrome trace_event JSON
     * document (chrome://tracing / Perfetto). Lanes map to processes,
     * warps to threads; 1 simulated cycle is rendered as 1 us.
     */
    void writeChromeTrace(std::ostream& os) const;

    /**
     * Timestamp-free event sequence, lane-major: one
     * "<lane> <type> pc=<pc|-> warp=<warp|->" line per retained
     * event, oldest first within each lane. The engine lane is
     * excluded — fast-forward spans describe how fast the wall clock
     * moved, not what the machine did, and their absence keeps golden
     * files valid across engine changes. @p max_per_lane truncates
     * each lane (0 = unlimited).
     */
    std::string eventSummary(std::size_t max_per_lane = 0) const;

    /** Human-readable lane label ("sm3", "mem", "engine"). */
    std::string laneLabel(int lane) const;

  private:
    /** Drop-oldest ring of one lane. */
    struct Lane
    {
        std::vector<TraceRecord> buf; ///< grows to capacity, then rings
        std::size_t head = 0;         ///< next overwrite slot once full
        std::uint64_t total = 0;      ///< events ever recorded
        /** Per-type totals; overwrite-proof, one writer like the ring. */
        std::array<std::uint64_t, kNumTraceEventTypes> typeCounts{};
    };

    /** Visit @p lane's retained records, oldest first. */
    template <typename Fn>
    void forEachRetained(const Lane& lane, Fn&& fn) const;

    int numSms_;
    std::size_t capacity_;
    std::vector<Lane> lanes_;
};

} // namespace apres

#endif // APRES_COMMON_TRACE_HPP
