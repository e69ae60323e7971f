/**
 * @file
 * Load-Store Unit: per-SM memory pipeline front end.
 *
 * The LSU accepts one warp-level memory operation per cycle from the
 * issue stage, coalesces it into line requests and walks them through
 * the L1 at a configurable line rate (default 1 line/cycle, so a fully
 * uncoalesced load occupies the unit for 32 cycles). MSHR-full
 * outcomes replay the same line next cycle, which is safe because
 * address generation is stateless.
 *
 * The first line of each load carries the lowest-lane address; its L1
 * outcome is reported to the SM as the load's hit/miss result — the
 * feedback LAWS, CCWS and all prefetchers consume (paper Section IV-A:
 * the LSU sends warp ID, group and hit status to the scheduler).
 */

#ifndef APRES_CORE_LSU_HPP
#define APRES_CORE_LSU_HPP

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/lsu_structures.hpp"
#include "core/scheduler.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/memory_system.hpp"

namespace apres {

/** Callbacks the LSU makes into its owning SM. */
class LsuOwner
{
  public:
    virtual ~LsuOwner() = default;

    /** First-line L1 outcome of a warp load (scheduler/prefetch feed). */
    virtual void onAccessResult(const LoadAccessInfo& info) = 0;

    /** All line requests of a warp load completed. */
    virtual void onLoadComplete(WarpId warp, int dst_reg, Cycle now) = 0;
};

/** LSU sizing and timing. */
struct LsuConfig
{
    int queueCapacity = 32;  ///< pending warp-level memory ops
    int linesPerCycle = 1;   ///< L1 accesses per cycle
    Cycle l1HitLatency = 28; ///< load-to-use latency on an L1 hit

    /**
     * Adaptive L1 bypass (off by default; a Section VI related-work
     * mechanism, not part of APRES): once a static load has proven to
     * be a pure stream — at least bypassMinAccesses executions with a
     * miss rate above bypassMissRate — its requests skip the L1
     * entirely, saving its lines from evicting reusable data and its
     * misses from occupying MSHRs.
     */
    bool adaptiveBypass = false;
    std::uint64_t bypassMinAccesses = 128;
    double bypassMissRate = 0.97;
};

/** Per-static-load counters (Table I's per-PC miss rates). */
struct PcLoadStats
{
    std::uint64_t accesses = 0; ///< warp-level load executions
    std::uint64_t hits = 0;     ///< first-line L1 hits

    double
    missRate() const
    {
        return accesses ? 1.0 - static_cast<double>(hits) /
                                    static_cast<double>(accesses)
                        : 0.0;
    }
};

/** LSU counters. */
struct LsuStats
{
    std::uint64_t loadsAccepted = 0;
    std::uint64_t storesAccepted = 0;
    std::uint64_t lineAccesses = 0;
    std::uint64_t mshrReplays = 0;
    std::uint64_t bypassedLines = 0; ///< adaptive-bypass line requests
    RunningStat loadLatency;    ///< per warp-load completion latency
    RunningStat missLatency;    ///< per line-request miss latency
    std::unordered_map<Pc, PcLoadStats> perPc; ///< per static load
};

/**
 * The load-store unit.
 */
class Lsu
{
  public:
    /**
     * @param sm      owning SM's ID (stamped into requests)
     * @param config  sizing and timing
     * @param owner   completion/feedback sink (the SM)
     * @param l1      this SM's L1 data cache
     * @param memsys  shared memory side
     */
    Lsu(SmId sm, const LsuConfig& config, LsuOwner& owner, Cache& l1,
        MemorySystem& memsys);

    /** True when another memory op can be accepted this cycle. */
    bool
    canAccept() const
    {
        return static_cast<int>(ops.size()) < cfg.queueCapacity;
    }

    /** Current op queue depth (MASCAR saturation heuristic input). */
    std::size_t queueDepth() const { return ops.size(); }

    /**
     * Accept a warp load.
     * @pre canAccept()
     */
    void pushLoad(WarpId warp, Pc pc, Addr base_addr, int lane_stride,
                  int dst_reg, Cycle now, int active_lanes = kWarpSize);

    /**
     * Accept a warp store (fire-and-forget, write-through).
     * @pre canAccept()
     */
    void pushStore(WarpId warp, Pc pc, Addr base_addr, int lane_stride,
                   Cycle now, int active_lanes = kWarpSize);

    /** Advance one cycle: deliver hit completions, process line reqs. */
    void tick(Cycle now);

    /** Memory-side response for a read this LSU issued. */
    void memResponse(const MemRequest& req, Cycle now);

    /** True when no op or outstanding load remains. */
    bool idle() const { return ops.empty() && tracks.empty(); }

    /** True when queued ops force the LSU to make progress each cycle. */
    bool busy() const { return !ops.empty(); }

    /**
     * Ready cycle of the earliest pending L1-hit completion;
     * kNoPendingEvent when none is queued (fast-forward wakeup input).
     */
    Cycle nextHitReady() const { return hitEvents.nextReady(); }

    /**
     * Install observation sinks (either may be null = off). The LSU
     * emits L1 hit/miss/bypass and MSHR-merge events and samples the
     * load-to-use and MSHR-occupancy histograms; pure observation.
     */
    void
    setObservability(Tracer* tracer, MetricsRegistry* metrics)
    {
        tracer_ = tracer;
        metrics_ = metrics;
    }

    /** Counters. */
    const LsuStats& stats() const { return stats_; }

  private:
    /** One warp-level memory operation in flight. */
    struct Op
    {
        std::uint64_t token = 0;
        WarpId warp = kInvalidWarp;
        Pc pc = kInvalidPc;
        bool isWrite = false;
        Addr baseAddr = kInvalidAddr; ///< exact lane-0 address
        std::vector<Addr> lines;  ///< coalesced line addresses
        std::size_t next = 0;     ///< next line to access
        Cycle accepted = 0;
    };

    /** Book-keeping for an outstanding load's completion. */
    struct Track
    {
        WarpId warp = kInvalidWarp;
        int dstReg = -1;
        int remaining = 0;
        Cycle accepted = 0;
    };

    void completeOne(std::uint64_t token, Cycle now);
    /** Access the next line of @p op; false = MSHR full, replay. */
    bool processLine(Op& op, Cycle now);

    SmId smId;
    LsuConfig cfg;
    LsuOwner& owner;
    Cache& l1;
    MemorySystem& memsys;
    Coalescer coalescer;

    std::deque<Op> ops;
    /**
     * Outstanding-load tracks. The slab mints the token a load's line
     * requests carry (MemRequest::token, hit events), so completion is
     * an O(1) indexed lookup instead of a hash probe per line.
     */
    TokenSlab<Track> tracks;
    /**
     * Pending L1-hit completions. The hit latency is constant, so
     * completions mature in push order and a FIFO ring suffices.
     */
    HitEventRing hitEvents;
    LsuStats stats_;
    Tracer* tracer_ = nullptr;
    MetricsRegistry* metrics_ = nullptr;
};

} // namespace apres

#endif // APRES_CORE_LSU_HPP
