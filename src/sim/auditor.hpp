/**
 * @file
 * Invariant auditor: cross-layer consistency checks over the live
 * simulation structures.
 *
 * When GpuConfig::audit is on, the Gpu calls checkInvariants() every
 * GpuConfig::auditInterval cycles and checkSkipWindow() after every
 * bulk fast-forward jump. A violated invariant throws
 * SimError(kInvariant) carrying a structured state dump (the failing
 * checks plus a per-SM stall report), so a corrupted run dies loudly
 * at the corruption site instead of producing silently-wrong numbers.
 *
 * Checked invariants (paper references in parentheses):
 *  - scoreboard: per warp, registers pinned at kNeverReady == loads
 *    in flight;
 *  - barriers: arrival counters match the parked warps, and a
 *    complete barrier has released;
 *  - L1 MSHRs pair one-to-one with in-flight MemorySystem reads;
 *  - caches (every L1 and every L2 partition): the slot index gives
 *    each filled set a distinct slot of the tag/payload pools, and
 *    the filled sets' tags index to their set without duplicates or
 *    a concurrent MSHR;
 *  - LAWS (Section IV-A, Table II): the scheduling queue holds each
 *    unfinished warp exactly once, and each warp's rank equals its
 *    position; WGT holds at most 3 entries whose owner and member bits
 *    fall inside the configured warp range; LLT has one entry per
 *    warp, each kInvalidPc or a static load PC;
 *  - CCWS: the age order equals the unfinished warps sorted by
 *    ageStamp, with every rank equal to its position;
 *  - SAP (Section IV-B, Table IV): PT holds at most ptEntries (10)
 *    valid entries keyed by static load PCs; WQ/DRQ peak occupancies
 *    stay within wqEntries (48) / drqEntries (32);
 *  - fast-forward: the ready-scan cache's "asleep until X" claim is
 *    re-derived from scratch, and every skipped window is re-verified
 *    to contain no issueable cycle.
 */

#ifndef APRES_SIM_AUDITOR_HPP
#define APRES_SIM_AUDITOR_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/prefetcher.hpp"
#include "core/scheduler.hpp"
#include "core/sm.hpp"
#include "isa/kernel.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace apres {

/**
 * The invariant auditor. Holds references into one Gpu's innards and
 * must not outlive it.
 */
class Auditor
{
  public:
    Auditor(const GpuConfig& config, const Kernel& kernel,
            const std::vector<std::unique_ptr<Sm>>& sms,
            const std::vector<std::unique_ptr<Scheduler>>& schedulers,
            const std::vector<std::unique_ptr<Prefetcher>>& prefetchers,
            const MemorySystem& memsys);

    /**
     * Walk every live structure at cycle @p now; throws
     * SimError(kInvariant) with a state dump on the first audit tick
     * that finds a violation.
     */
    void checkInvariants(Cycle now) const;

    /**
     * Re-verify a window [@p begin, @p end) that @p skipped (one
     * shard's SMs) just jumped: none of them could have issued inside
     * it, and no memory event matured inside it. Throws
     * SimError(kInvariant) on violation. Shards call this concurrently
     * over disjoint SM sets, while the memory system is quiescent.
     */
    void checkSkipWindow(const std::vector<Sm*>& skipped, Cycle begin,
                         Cycle end) const;

    /** Audit passes completed without a violation. */
    std::uint64_t passes() const { return passes_; }

  private:
    std::string checkPolicyStructures() const;

    const GpuConfig& cfg;
    const Kernel& kernel;
    const std::vector<std::unique_ptr<Sm>>& sms;
    const std::vector<std::unique_ptr<Scheduler>>& schedulers;
    const std::vector<std::unique_ptr<Prefetcher>>& prefetchers;
    const MemorySystem& memsys;
    mutable std::atomic<std::uint64_t> passes_{0}; ///< shared by shards
};

} // namespace apres

#endif // APRES_SIM_AUDITOR_HPP
