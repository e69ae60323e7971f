/**
 * @file
 * Streaming Multiprocessor model.
 *
 * One SM owns 48 warp contexts, a scoreboard, one warp scheduler, an
 * optional prefetcher, a private L1 data cache and an LSU. Each cycle
 * it computes the ready-warp set, lets the scheduler pick one warp and
 * issues a single instruction (Section II's baseline issue model).
 *
 * The SM is also the integration point of the APRES feedback loops: it
 * forwards LSU access results to the scheduler (LAWS group
 * prioritization, CCWS scoring) and to the prefetcher (STR/SLD/SAP),
 * and exposes the PrefetchIssuer the prefetchers inject requests
 * through.
 */

#ifndef APRES_CORE_SM_HPP
#define APRES_CORE_SM_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/lsu.hpp"
#include "core/shared_memory.hpp"
#include "core/prefetcher.hpp"
#include "core/scheduler.hpp"
#include "core/warp.hpp"
#include "isa/kernel.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"

namespace apres {

/** Static configuration of one SM. */
struct SmConfig
{
    int warpsPerSm = 48;    ///< concurrent warp contexts (Table III)
    int warpsPerBlock = 48; ///< barrier scope (blocks of warps)
    /**
     * Kernel instances (blocks) run per warp slot. GPUs launch more
     * blocks than fit; finished warps are refilled, which keeps SMs
     * occupied and rotates scheduler age priorities.
     */
    int jobsPerWarp = 4;
    /**
     * Prefetches are dropped while L1 MSHR occupancy is at or above
     * this fraction: when the memory system is saturated, a prefetch
     * can only displace demand bandwidth (the adaptive issue policy
     * Section V-E credits for keeping traffic flat).
     */
    double prefetchMshrGate = 0.85;
    CacheConfig l1;         ///< L1 data cache geometry
    LsuConfig lsu;          ///< LSU sizing and hit latency
    SharedMemConfig sharedMem; ///< scratchpad timing
};

/** Per-SM counters. */
struct SmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t issuedInstructions = 0;
    std::uint64_t issuedLoads = 0;
    std::uint64_t issuedStores = 0;
    std::uint64_t idleCycles = 0;      ///< no warp could issue
    std::uint64_t prefetchesRequested = 0;
    std::uint64_t prefetchesIssued = 0;///< accepted into the memory system
    std::uint64_t sharedAccesses = 0;  ///< scratchpad warp accesses
    std::uint64_t sharedConflictCycles = 0; ///< bank-conflict stalls

    /** Instructions per cycle of this SM. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(issuedInstructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Read-only view of SM state offered to schedulers and prefetchers.
 */
class SmContext
{
  public:
    virtual ~SmContext() = default;

    /** This SM's ID. */
    virtual SmId id() const = 0;

    /** Number of warp contexts. */
    virtual int numWarps() const = 0;

    /** Runtime state of warp @p warp. */
    virtual const WarpRuntime& warpState(WarpId warp) const = 0;

    /** The kernel all warps execute. */
    virtual const Kernel& kernel() const = 0;

    /** This SM's L1 data cache (for saturation heuristics). */
    virtual const Cache& l1() const = 0;

    /** Depth of the LSU's op queue. */
    virtual std::size_t lsuQueueDepth() const = 0;

    /** True when @p warp's next instruction is a load or store. */
    virtual bool nextIsMemory(WarpId warp) const = 0;

    /**
     * Mutable L1, for schedulers that install cache observers (CCWS
     * hooks the eviction stream to feed its victim tag arrays).
     */
    virtual Cache& l1Mutable() = 0;
};

/**
 * The SM model.
 */
class Sm final : public SmContext,
                 public LsuOwner,
                 public MemClient,
                 public PrefetchIssuer
{
  public:
    /**
     * @param sm_id      this SM's ID (also its MemClient slot)
     * @param config     SM sizing
     * @param kernel     kernel executed by all warps (outlives the SM)
     * @param scheduler  warp scheduler (owned by caller, outlives SM)
     * @param prefetcher optional prefetcher, may be nullptr
     * @param memsys     shared memory side (outlives the SM)
     */
    Sm(SmId sm_id, const SmConfig& config, const Kernel& kernel,
       Scheduler& scheduler, Prefetcher* prefetcher, MemorySystem& memsys);

    /** Advance one cycle. @return true when an instruction issued. */
    bool tick(Cycle now);

    /**
     * Credit @p cycles provably issue-free cycles in bulk — the
     * fast-forward path's stand-in for that many idle tick() calls.
     * Statistics advance exactly as the skipped ticks would have.
     *
     * @pre nextWakeup() returned a cycle past the skipped range (the
     *      SM could not have issued, nor the LSU progressed, in it).
     */
    void skipIdle(Cycle cycles);

    /**
     * Earliest cycle >= @p next at which this SM might do any work:
     * @p next itself while the LSU is busy or warp state changed since
     * the last empty ready scan, otherwise the minimum of the stalled
     * warps' register-ready cycles and the LSU's pending hit events
     * (kNoPendingEvent when it can only be woken externally, i.e. by a
     * memory response). Cycles before the returned one are provably
     * issue-free, which is the invariant Gpu::run's fast-forward skip
     * relies on.
     */
    Cycle nextWakeup(Cycle next) const;

    /**
     * Enable the fast-forward support machinery (the incremental
     * ready-scan cache consulted by tick() and nextWakeup()). Off by
     * default so a directly-driven Sm behaves like the naive oracle;
     * Gpu enables it according to GpuConfig::fastForward.
     */
    void setFastForward(bool on) { fastForward_ = on; }

    /**
     * Install observation sinks (either may be null = off) on this SM
     * and forward them to its LSU and L1. Pure observation: emitting
     * events/samples never changes simulation state.
     */
    void setObservability(Tracer* tracer, MetricsRegistry* metrics);

    /**
     * True when all warps finished and no memory op is in flight.
     * Monotone: once an SM drained it never becomes busy again (no
     * issue source remains), which Gpu::done() exploits.
     */
    bool done() const;

    // SmContext
    SmId id() const override { return smId; }
    int numWarps() const override { return cfg.warpsPerSm; }
    const WarpRuntime& warpState(WarpId warp) const override;
    const Kernel& kernel() const override { return kernel_; }
    const Cache& l1() const override { return l1_; }
    std::size_t lsuQueueDepth() const override { return lsu_.queueDepth(); }
    bool nextIsMemory(WarpId warp) const override;
    Cache& l1Mutable() override { return l1_; }

    // LsuOwner
    void onAccessResult(const LoadAccessInfo& info) override;
    void onLoadComplete(WarpId warp, int dst_reg, Cycle now) override;

    // MemClient
    void memResponse(const MemRequest& req, Cycle now) override;

    // PrefetchIssuer
    bool issuePrefetch(Addr addr, Pc pc, WarpId target_warp) override;

    /** LSU counters. */
    const LsuStats& lsuStats() const { return lsu_.stats(); }

    /** SM counters. */
    const SmStats& stats() const { return stats_; }

    /**
     * Check this SM's structural invariants at cycle @p now; returns a
     * human-readable violation description, empty when everything
     * holds. Checked: the scoreboard (count of registers pinned at
     * kNeverReady must equal outstandingLoads per warp), barrier
     * bookkeeping (arrival counters must match the parked warps and a
     * complete barrier must have released), the L1-MSHR/memory-system
     * pairing (each L1 MSHR corresponds to one in-flight read; with
     * adaptive bypass off the counts are equal), and — under
     * fast-forward — the ready-scan cache (a "clean, asleep until
     * readyWakeAt_" claim is re-derived from scratch).
     */
    std::string auditInvariants(Cycle now) const;

    /**
     * Verify the fast-forward precondition over the just-skipped
     * window [@p begin, @p end): recompute from scratch that no warp
     * could have issued and no LSU event matured strictly before
     * @p end. Returns a violation description, empty when the skip
     * was sound.
     */
    std::string auditSkippedWindow(Cycle begin, Cycle end) const;

    /**
     * Multi-line stall report for deadlock diagnostics: per-warp
     * state (pc, opcode, stall reason), barrier arrival counts per
     * block, and LSU/MSHR occupancy.
     */
    std::string stallReport(Cycle now) const;

    /**
     * TEST HOOK: corrupt the ready-scan cache so the SM claims to be
     * asleep until @p fake_wake regardless of actual warp state. Used
     * by fault-injection tests to prove the auditor catches a
     * skipped-issueable-cycle bug; never call outside tests.
     */
    void debugForceReadyClean(Cycle fake_wake)
    {
        readyClean_ = true;
        readyCanAccept_ = lsu_.canAccept();
        readyWakeAt_ = fake_wake;
    }

  private:
    void collectReady(Cycle now, std::vector<WarpId>& out);
    bool warpReady(const WarpRuntime& warp, Cycle now) const;
    void issue(WarpId warp, Cycle now);
    void arriveBarrier(WarpId warp);
    void releaseBarrierIfComplete(std::size_t block);

    SmId smId;
    SmConfig cfg;
    const Kernel& kernel_;
    Scheduler& scheduler;
    Prefetcher* prefetcher;
    MemorySystem& memsys;
    Cache l1_;
    Lsu lsu_;
    std::vector<WarpRuntime> warps;
    std::vector<int> barrierArrivals; // per block
    std::vector<WarpId> readyScratch;
    std::uint64_t jobSeq = 0;
    Cycle now_ = 0;
    SmStats stats_;

    /** Warps not yet finished (makes done() O(1)). */
    int unfinishedWarps_ = 0;

    /** Fast-forward machinery enabled (Gpu sets from config). */
    bool fastForward_ = false;

    /** Observation sinks (null = off); lane = this SM's ID. */
    Tracer* tracer_ = nullptr;
    MetricsRegistry* metrics_ = nullptr;

    /**
     * Incremental ready-scan cache: when the last collectReady() came
     * back empty and no warp/scoreboard state changed since (no issue,
     * no load completion, no LSU-acceptance flip), the set stays empty
     * until readyWakeAt_, so tick() can skip the per-warp re-scan and
     * nextWakeup() can answer from the cached bound. Any mutation
     * clears readyClean_.
     */
    bool readyClean_ = false;
    bool readyCanAccept_ = true; ///< lsu_.canAccept() at scan time
    Cycle readyWakeAt_ = 0;      ///< earliest finite reg-ready cycle

    /**
     * Per-warp readiness memo. A warp's readiness between state
     * changes is a pure function of (pcIndex, the instruction's
     * registers' regReadyAt, lsu.canAccept, now); everything except
     * canAccept/now is frozen between the warp's own mutations, so
     * collectReady() caches the expensive part — the kernel fetch and
     * register scan — per warp and invalidates only at the mutation
     * sites (issue, load completion, barrier release, finish).
     * `inactive` mirrors finished/atBarrier so the hot scan never
     * dereferences the fat WarpRuntime for parked or finished warps.
     */
    struct WarpReadyMemo
    {
        Cycle regsReady = 0;      ///< max reg maturity (valid w/o load wait)
        bool valid = false;       ///< regsReady/waitsOnLoad/isMemory usable
        bool waitsOnLoad = false; ///< some register pinned at kNeverReady
        bool isMemory = false;    ///< instruction needs lsu.canAccept()
        bool inactive = false;    ///< finished or parked at a barrier
    };
    std::vector<WarpReadyMemo> readyMemo_;

    /**
     * Scan mask over readyMemo_: bit w set = warp w must be visited by
     * collectReady(). A clear bit is a *proof* that the warp cannot
     * become issueable through time alone — it is finished, parked at
     * a barrier, or waiting on a load — so the scan walks set bits
     * only (ctz iteration). Cleared lazily when a refreshed memo shows
     * waitsOnLoad; re-set at every event that could wake the warp
     * (issue, load completion, barrier release).
     */
    std::vector<std::uint64_t> scanMask_;

    void setScanBit(int w)
    {
        scanMask_[static_cast<std::size_t>(w) >> 6] |=
            std::uint64_t{1} << (w & 63);
    }
    void clearScanBit(int w)
    {
        scanMask_[static_cast<std::size_t>(w) >> 6] &=
            ~(std::uint64_t{1} << (w & 63));
    }
    bool scanBit(int w) const
    {
        return scanMask_[static_cast<std::size_t>(w) >> 6] >>
                   (w & 63) & 1;
    }

    void refreshReadyMemo(const WarpRuntime& warp, WarpReadyMemo& memo) const;
};

} // namespace apres

#endif // APRES_CORE_SM_HPP
