/**
 * @file
 * LAWS: Locality-Aware Warp Scheduler (Section IV-A).
 *
 * LAWS keeps a scheduling queue of warp IDs in priority order and
 * issues from the first ready warp scanning from the head — an
 * "advanced greedy" scheduler that concentrates execution in a small
 * set of leading warps.
 *
 * Group formation: when warp W issues a global load, every warp whose
 * LLT entry matches W's *previous* load PC (LLPC) is grouped with W
 * and the group is remembered in the WGT. When the LSU reports the
 * load's L1 outcome:
 *  - hit  -> the load has locality; the whole group moves to the queue
 *            head so the shared lines are re-referenced before
 *            eviction;
 *  - miss -> the load is streaming; the group moves to the tail — and
 *            is handed to SAP, which may prefetch for the member warps
 *            and ask LAWS to re-prioritize exactly those warps so
 *            their demands merge into the prefetch MSHRs.
 */

#ifndef APRES_APRES_LAWS_HPP
#define APRES_APRES_LAWS_HPP

#include <cstdint>
#include <vector>

#include "apres/llt.hpp"
#include "apres/wgt.hpp"
#include "common/warp_mask.hpp"
#include "core/scheduler.hpp"
#include "core/sm.hpp"
#include "core/warp_order.hpp"

namespace apres {

/** LAWS policy knobs (defaults = the paper's design; ablations flip). */
struct LawsConfig
{
    bool promoteOnHit = true;   ///< hit group -> queue head
    bool demoteOnMiss = true;   ///< miss group -> queue tail
    bool promotePrefetchTargets = true; ///< SAP targets -> queue head
    int groupCap = 48;          ///< max warps grouped per load
};

/** LAWS counters (for reports and tests). */
struct LawsStats
{
    std::uint64_t groupsFormed = 0;
    std::uint64_t groupHits = 0;        ///< groups prioritized to head
    std::uint64_t groupMisses = 0;      ///< groups demoted to tail
    std::uint64_t warpsPrioritized = 0; ///< moved to head in total
    std::uint64_t prefetchTargetPromotions = 0;
};

/**
 * The LAWS scheduler.
 */
class LawsScheduler final : public Scheduler
{
  public:
    explicit LawsScheduler(const LawsConfig& config = {}) : cfg(config) {}

    /** A group whose head warp missed, awaiting SAP's attention. */
    struct PendingGroupMiss
    {
        bool valid = false;
        WarpId owner = kInvalidWarp;
        Pc pc = kInvalidPc;
        WarpMask members; ///< excluding the owner
    };

    void attach(SmContext& sm) override;

    WarpId pick(Cycle now, const std::vector<WarpId>& ready) override;

    void notifyLoadIssued(WarpId warp, Pc pc, Cycle now) override;

    void notifyAccessResult(const LoadAccessInfo& info) override;

    void notifyWarpFinished(WarpId warp) override;

    void notifyWarpRelaunched(WarpId warp) override;

    const char* name() const override { return "LAWS"; }

    void reportStats(StatSet& out) const override;

    /**
     * SAP side-channel: consume the group stashed by the most recent
     * miss, if it belongs to (warp, pc). Invalidates the stash.
     */
    PendingGroupMiss takePendingGroupMiss(WarpId warp, Pc pc);

    /**
     * SAP feedback: the given warps are prefetch targets; move them to
     * the head of the scheduling queue (Section IV-B).
     */
    void prioritizeWarps(const std::vector<WarpId>& warps);

    /** Current queue order, head first (for tests). */
    const std::vector<WarpId>& queueOrder() const { return queue.warps(); }

    /** Ranked queue for the invariant auditor. */
    const WarpOrder& queueForAudit() const { return queue; }

    /** Counters. */
    const LawsStats& stats() const { return stats_; }

    /** WGT view for the invariant auditor. */
    const WarpGroupTable& wgtForAudit() const { return wgt; }

    /** LLT view for the invariant auditor. */
    const LastLoadTable& lltForAudit() const { return llt; }

    /**
     * TEST HOOK: mutable WGT for fault-injection tests. Never call
     * outside tests.
     */
    WarpGroupTable& wgtForTest() { return wgt; }

    /**
     * TEST HOOK: mutable queue for fault-injection tests. Never call
     * outside tests.
     */
    WarpOrder& queueForTest() { return queue; }

  private:
    void moveToHead(const WarpMask& member_mask);

    LawsConfig cfg;
    SmContext* sm = nullptr;
    WarpOrder queue;               ///< unfinished warps, head = highest
    LastLoadTable llt{0};
    WarpGroupTable wgt;
    PendingGroupMiss pendingMiss;
    LawsStats stats_;
    /**
     * Cycle each warp's current WGT group was formed (indexed by owner
     * warp). Only sampled into the wgtGroupLifetime histogram when a
     * metrics sink is installed; never read by scheduling decisions.
     */
    std::vector<Cycle> groupFormedAt_;
};

} // namespace apres

#endif // APRES_APRES_LAWS_HPP
