/**
 * @file
 * Top-level GPU configuration (Table III defaults).
 *
 * Scheduler and prefetcher are selected by *name* — the string keys
 * of the PolicyRegistry (policy_registry.hpp) — so adding a policy
 * never touches the Gpu, the CLI or the bench drivers: it registers a
 * factory and is immediately reachable from every sweep axis. Every
 * field (including the nested per-policy configs) is also reachable
 * under a dotted string key through the ConfigRegistry
 * (config_registry.hpp), which is the single override path shared by
 * `apres_sim --set`, config files and programmatic sweeps.
 */

#ifndef APRES_SIM_CONFIG_HPP
#define APRES_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "apres/laws.hpp"
#include "apres/sap.hpp"
#include "core/sm.hpp"
#include "energy/energy_model.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/sld.hpp"
#include "prefetch/str.hpp"
#include "sched/ccws.hpp"
#include "sched/mascar.hpp"
#include "sched/pa_twolevel.hpp"

namespace apres {

/**
 * Complete configuration of one simulation.
 *
 * Defaults reproduce the paper's Table III: 15 SMs, 48 warps per SM,
 * 32 KB 8-way L1 with 128 B lines and 64 MSHRs, 768 KB 8-way L2 over
 * 6 partitions at 200 cycles, 440-cycle DRAM.
 */
struct GpuConfig
{
    int numSms = 15;
    SmConfig sm;                 ///< includes the L1 geometry
    MemSystemConfig mem;

    /** Scheduler name: a PolicyRegistry key ("lrr", "gto", ...). */
    std::string scheduler = "lrr";

    /** Prefetcher name: a PolicyRegistry key ("none", "str", ...). */
    std::string prefetcher = "none";

    CcwsConfig ccws;
    LawsConfig laws;
    MascarConfig mascar;
    PaConfig pa;
    StrConfig str;
    SldConfig sld;
    SapConfig sap;
    EnergyParams energy;

    /** Hard stop for non-terminating configurations. */
    std::uint64_t maxCycles = 50'000'000;

    /**
     * Event-driven fast-forward ("sim.fastForward"): Gpu::run() and
     * Gpu::step() jump over stretches in which no SM can issue —
     * straight to the next memory response, L1-hit completion or
     * scoreboard maturity — crediting idle statistics in bulk. Results
     * are bitwise identical to ticking every SM every cycle (the
     * equivalence suite pins this down); turn off to run that naive
     * loop as the oracle.
     */
    bool fastForward = true;

    /**
     * Shards for one run ("sim.shards"): the engine splits the SMs
     * into this many contiguous shards. Shard 0 runs on the calling
     * thread, each other shard on a worker thread. With more than one
     * shard, memory traffic is staged per epoch and drained in
     * canonical (cycle, SM, program) order at the epoch barrier, and
     * epochs end before any staged request could be answered. With
     * one (the default) there are no workers, no barrier and no
     * staging. Statistics are bitwise identical for every shard count
     * (the equivalence suite pins this), so the key is classified as
     * observation — it never enters a result-cache key. 0 picks one
     * shard per hardware core; counts above numSms clamp.
     */
    int shards = 1;

    /**
     * Runtime invariant auditing ("sim.audit", off by default): every
     * auditInterval cycles — and after every fast-forward skip — the
     * Auditor walks the live structures (WGT/LLT, SAP PT/WQ/DRQ
     * budgets, MSHR <-> outstanding-request matching, scoreboard
     * consistency, skip-window soundness) and throws
     * SimError(kInvariant) with a state dump on violation. Off, the
     * run loop only tests one null pointer per iteration.
     */
    bool audit = false;

    /** Cycles between audit walks ("sim.auditInterval"). */
    std::uint64_t auditInterval = 16'384;

    /**
     * Forward-progress watchdog ("sim.watchdogCycles"): once this many
     * whole cycles pass with zero instructions issued and zero memory
     * responses delivered, Gpu::run() (or step()) throws
     * SimError(kDeadlock) with a per-warp stall report instead of
     * spinning to maxCycles. With the last progress at cycle P, it
     * fires at cycle P + watchdogCycles + 1, under every engine. 0
     * disables the watchdog.
     */
    std::uint64_t watchdogCycles = 10'000'000;

    /**
     * Structured event tracing ("sim.trace", off by default): the Gpu
     * owns a Tracer (common/trace.hpp) and every component emits typed
     * events into per-lane ring buffers. Like the auditor, tracing is
     * pure observation — all statistics are bitwise identical on/off
     * (the ff_equivalence suite pins this). Off, every emit site costs
     * one null-pointer test.
     */
    bool trace = false;

    /**
     * File the Chrome trace_event JSON is written to when the run
     * finishes ("sim.traceFile"). Empty keeps the trace in memory only
     * (tests read it through Gpu::tracer()).
     */
    std::string traceFile;

    /**
     * Ring capacity per trace lane in events
     * ("sim.traceBufferEvents"). A full lane overwrites its oldest
     * events, so long runs keep the most recent window.
     */
    std::uint64_t traceBufferEvents = 1 << 16;

    /**
     * Metrics histograms and counters ("sim.metrics", off by
     * default): load-to-use latency, MSHR occupancy, WGT group
     * lifetime and prefetch timeliness, reported under "metrics.*"
     * keys in RunResult::policy. Pure observation, same contract as
     * tracing.
     */
    bool metrics = false;

    /**
     * Result-cache identity salt ("seed"): a semantic registry key, so
     * it enters the serve cache key, but no model component reads it
     * and every statistic is independent of it (pinned by
     * Determinism.SeedChangesNoStatistic). Callers set it to force a
     * cold request for an otherwise cached configuration. The
     * simulator has no randomness to seed: the irregular/zipf address
     * generators carry their own `seed=` attribute in the kernel.
     */
    std::uint64_t seed = 0x9E3779B97F4A7C15ull;

    /** Shorthand: "APRES" = LAWS scheduling + SAP prefetching. */
    void
    useApres()
    {
        scheduler = "laws";
        prefetcher = "sap";
    }

    /** "SCHED+PF" label for reports ("APRES" for laws+sap). */
    std::string label() const;
};

} // namespace apres

#endif // APRES_SIM_CONFIG_HPP
