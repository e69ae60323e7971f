/**
 * @file
 * Top-level GPU simulator: N SMs over a shared memory system.
 *
 * A Gpu instance is built from a GpuConfig and a Kernel, runs the
 * kernel to completion (or to the cycle cap) and returns a RunResult
 * with every statistic the paper's evaluation plots: IPC, the L1
 * hit/miss breakdown, prefetch effectiveness and early evictions,
 * memory latency, interconnect traffic and dynamic energy.
 */

#ifndef APRES_SIM_GPU_HPP
#define APRES_SIM_GPU_HPP

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"
#include "core/sm.hpp"
#include "energy/energy_model.hpp"
#include "isa/kernel.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace apres {

class Auditor;

/** Everything a finished simulation reports. */
struct RunResult
{
    bool completed = false;      ///< false when maxCycles hit first

    /**
     * Job outcome under fault-isolated sweeps: "ok", "error" (the
     * simulation threw), "timeout" (the per-job wall-clock deadline
     * expired) or "skipped" (the sweep aborted before this job ran). A
     * directly-run Gpu always reports "ok" — failures propagate as
     * exceptions; the sweep runner converts them into these rows.
     */
    std::string status = "ok";
    std::string errorKind;   ///< SimError kind name, empty when ok
    std::string errorDetail; ///< error message, empty when ok
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;            ///< GPU-wide instructions per cycle

    CacheStats l1;               ///< summed over SMs
    CacheStats l2;               ///< summed over partitions
    TrafficStats traffic;

    double avgLoadLatency = 0.0; ///< per warp-load completion latency
    double avgMissLatency = 0.0; ///< per line miss round trip

    std::uint64_t prefetchesRequested = 0;
    std::uint64_t prefetchesIssued = 0;

    std::uint64_t idleCycles = 0;   ///< summed over SMs
    std::uint64_t mshrReplays = 0;  ///< LSU replays on MSHR-full

    std::uint64_t dramRequests = 0;  ///< summed over partitions
    std::uint64_t dramRowHits = 0;   ///< row-buffer hits (row model only)
    std::uint64_t dramRowMisses = 0; ///< row-buffer misses

    /**
     * Policy statistics, reported by the scheduler/prefetcher
     * instances themselves (Scheduler::reportStats /
     * Prefetcher::reportStats) and summed over SMs. Keys are dotted
     * ("ccws.events", "laws.groupsFormed", "sap.strideMatches");
     * empty for policies that report nothing.
     */
    StatSet policy;

    /**
     * Per-SM breakdowns under "sm<i>."-prefixed keys
     * ("sm0.instructions", "sm3.l1.missRate", ...); lets results
     * expose load imbalance without a side channel.
     */
    StatSet perSm;

    /**
     * The semantic configuration that produced this result, serialized
     * through ConfigRegistry::semanticSnapshot() (dotted key -> value
     * string). Makes every result self-describing; the observation
     * keys are left out so that runs sharing a cache key echo the same.
     */
    std::map<std::string, std::string> config;

    EnergyBreakdown energy;

    /** L1 demand hit rate. */
    double l1HitRate() const;

    /** Early eviction ratio (Fig. 4 / Fig. 12 definition). */
    double earlyEvictionRatio() const { return l1.earlyEvictionRatio(); }

    /** Flatten everything into dotted-name scalars. */
    StatSet toStatSet() const;
};

/**
 * The simulator.
 */
class Gpu
{
  public:
    /**
     * @param config simulation configuration (copied)
     * @param kernel kernel run by every SM (must outlive the Gpu)
     */
    Gpu(const GpuConfig& config, const Kernel& kernel);
    ~Gpu();

    Gpu(const Gpu&) = delete;
    Gpu& operator=(const Gpu&) = delete;

    /**
     * Run to completion (or the cycle cap), then finish().
     *
     * The engine is one epoch loop. Each epoch starts by delivering
     * the matured memory responses and ends at the next delivery, the
     * next deadline (audit, interrupt poll, watchdog) or the cycle
     * cap; in between, the SMs tick cycle by cycle.
     *
     * With GpuConfig::fastForward (default on) a stretch in which no
     * SM can issue is jumped in one step, crediting the skipped idle
     * cycles in bulk. Every statistic is bitwise identical to ticking
     * through it, which remains available as the oracle via
     * fastForward=false.
     *
     * With GpuConfig::shards > 1 (or 0 = one per hardware core) the
     * SMs are split across worker threads. Inside an epoch SMs only
     * stage their memory requests, and the staged traffic is drained
     * in canonical (cycle, SM, program) order at the epoch barrier —
     * the order one shard would have submitted it in. Statistics stay
     * bitwise identical for every shard count (the equivalence suite
     * pins this).
     *
     * Throws SimError(kDeadlock) once GpuConfig::watchdogCycles whole
     * cycles pass with zero instructions issued and zero memory
     * responses delivered, and SimError(kInvariant) when auditing is
     * on and a structural invariant breaks.
     */
    RunResult run();

    /**
     * The end of a run: a final audit, collect(), the completed flag,
     * a warning when the cycle cap cut the kernel short, and the trace
     * file. run() returns this; step()-driven callers call it once
     * they stop stepping.
     */
    RunResult finish();

    /**
     * Install a hook called every ~16K simulated cycles. The sweep
     * runner uses it for cooperative per-job wall-clock deadlines: the
     * hook throws to abort the run. Pass nullptr to clear.
     */
    void setInterruptCheck(std::function<void()> hook)
    {
        interruptCheck_ = std::move(hook);
    }

    /**
     * Run one invariant audit at the current cycle (no-op unless
     * GpuConfig::audit built an auditor). Throws SimError(kInvariant)
     * on violation; fault-injection tests corrupt a structure and call
     * this.
     */
    void auditNow();

    /** Audit passes completed without a violation (0 when audit off). */
    std::uint64_t auditPasses() const;

    /** Per-warp stall report over all SMs (deadlock diagnostics). */
    std::string stallReport() const;

    /**
     * Advance at most @p cycles, never past the cycle cap, through the
     * same engine as run() — fast-forward, shards, audits, interrupt
     * polls and the watchdog included, their cadence carried across
     * calls. Stops early when the kernel drains, so now() after the
     * final step is the finish cycle run() would report. Used by the
     * timeline recorder and incremental-driving tests.
     */
    void step(Cycle cycles);

    /** True when all SMs drained. */
    bool done() const;

    /** Current cycle. */
    Cycle now() const { return cycle; }

    /** The configured cycle cap. */
    Cycle maxCycles() const { return cfg.maxCycles; }

    /** Collect results at the current point in time. */
    RunResult collect() const;

    /** SM @p index (for white-box tests). */
    const Sm& sm(int index) const { return *sms.at(static_cast<std::size_t>(index)); }

    /** TEST HOOK: mutable SM @p index for fault-injection tests. */
    Sm& smForTest(int index)
    {
        return *sms.at(static_cast<std::size_t>(index));
    }

    /** TEST HOOK: mutable scheduler of SM @p index. */
    Scheduler& schedulerForTest(int index)
    {
        return *schedulers.at(static_cast<std::size_t>(index));
    }

    /** TEST HOOK: mutable memory system (L2 partitions, DRAM). */
    MemorySystem& memsysForTest() { return *memsys; }

    /** TEST HOOK: prefetcher of SM @p index (null when "none"). */
    Prefetcher* prefetcherForTest(int index)
    {
        return prefetchers.at(static_cast<std::size_t>(index)).get();
    }

    /** The event tracer (null unless GpuConfig::trace). */
    const Tracer* tracer() const { return tracer_.get(); }

    /**
     * The metrics registry (null unless GpuConfig::metrics): a freshly
     * merged snapshot of the per-SM registries, rebuilt per call and
     * owned by the Gpu.
     */
    const MetricsRegistry* metrics() const;

    /** Emit the Chrome trace JSON; no-op when tracing is off. */
    void writeTrace(std::ostream& os) const;

  private:
    /** Simulated cycles between interrupt-hook polls (job deadlines). */
    static constexpr Cycle kInterruptCheckInterval = 16'384;

    /**
     * The engine: advance in epochs until @p cap (<= maxCycles) or
     * until the kernel drains. See run().
     */
    void advanceTo(Cycle cap);

    /** Earliest cycle a deadline (watchdog, audit, interrupt) is due. */
    Cycle nextDeadline() const;

    /** Run every deadline due at the current cycle. */
    void fireDeadlines();

    [[noreturn]] void reportDeadlock() const;

    /**
     * Write the trace to GpuConfig::traceFile (finish() calls this);
     * no-op when tracing is off or no file is configured. Throws
     * SimError(kConfig) when the file cannot be opened.
     */
    void writeTraceFile() const;

    /**
     * GpuConfig::shards with 0 resolved to the hardware thread count,
     * clamped to [1, numSms].
     */
    int resolveShardCount() const;

    GpuConfig cfg;
    const Kernel& kernel;
    std::unique_ptr<MemorySystem> memsys;
    std::vector<std::unique_ptr<Scheduler>> schedulers;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    std::vector<std::unique_ptr<Sm>> sms;
    std::unique_ptr<Auditor> auditor_; ///< built when cfg.audit
    std::unique_ptr<Tracer> tracer_;   ///< built when cfg.trace

    /**
     * Per-SM metrics registries (cfg.metrics on): each SM samples into
     * its own registry so shard workers never contend; merged on
     * demand by metrics(). Sample values are integral, so the merged
     * double sums are exact whatever the shard count.
     */
    std::vector<std::unique_ptr<MetricsRegistry>> smMetrics_;

    /** Scratch for metrics(): the last merged per-SM snapshot. */
    mutable std::unique_ptr<MetricsRegistry> mergedMetrics_;
    std::function<void()> interruptCheck_;
    Cycle cycle = 0;

    // Deadline state, carried across step() calls. "Progress" is an
    // instruction issuing or a memory response arriving: anything else
    // (throttling, barriers, MSHR pressure) resolves only through one
    // of those two, so their joint absence is a deadlock or livelock.
    Cycle lastProgress_ = 0;           ///< latest cycle with progress
    std::uint64_t lastResponses_ = 0;  ///< responsesDelivered() last seen
    Cycle nextAudit_ = cfg.auditInterval;
    Cycle nextInterrupt_ = kInterruptCheckInterval;

    /**
     * done() cache: SMs [0, firstActiveSm_) have drained. Sm::done()
     * is monotone, so this only ever advances (mutable: done() is a
     * const query whose cost the cache amortizes to O(1)).
     */
    mutable std::size_t firstActiveSm_ = 0;
};

/** Convenience: configure, run, return results. */
RunResult simulate(const GpuConfig& config, const Kernel& kernel);

} // namespace apres

#endif // APRES_SIM_GPU_HPP
