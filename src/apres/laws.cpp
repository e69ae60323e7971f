/**
 * @file
 * LAWS implementation.
 */

#include "laws.hpp"

#include <cassert>
#include <utility>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"

namespace apres {

void
LawsScheduler::attach(SmContext& sm_ref)
{
    sm = &sm_ref;
    llt = LastLoadTable(sm->numWarps());
    queue.reset(sm->numWarps());
    for (int w = 0; w < sm->numWarps(); ++w)
        queue.pushBack(w);
    groupFormedAt_.assign(static_cast<std::size_t>(sm->numWarps()), 0);
}

WarpId
LawsScheduler::pick(Cycle now, const std::vector<WarpId>& ready)
{
    (void)now;
    // Greedy: the first ready warp in queue priority order.
    return queue.first(ready);
}

void
LawsScheduler::notifyLoadIssued(WarpId warp, Pc pc, Cycle now)
{
    // Group every warp whose LLPC matches the issuing warp's previous
    // load (Section IV-A / Fig. 8); then advance the warp's LLPC.
    const Pc llpc = llt.get(warp);
    WarpMask members = llt.matchMask(llpc);
    members.set(warp); // the issuing warp belongs too
    // Optional group-size cap (Section IV argues ~8 leading warps
    // bound the working set; the default keeps the paper's uncapped
    // grouping).
    const int num_warps = sm != nullptr ? sm->numWarps() : 64;
    if (cfg.groupCap < num_warps && members.count() > cfg.groupCap) {
        WarpMask trimmed;
        int kept = 0;
        members.forEachSet([&](WarpId w) {
            if (kept < cfg.groupCap) {
                trimmed.set(w);
                ++kept;
            }
        });
        members = std::move(trimmed);
    }
    wgt.insert(warp, pc, members);
    ++stats_.groupsFormed;
    if (static_cast<std::size_t>(warp) < groupFormedAt_.size())
        groupFormedAt_[static_cast<std::size_t>(warp)] = now;
    llt.set(warp, pc);
}

void
LawsScheduler::moveToHead(const WarpMask& member_mask)
{
    if (member_mask.none())
        return;
    // Skip the reshuffle when the group already leads: for loads that
    // hit on every execution the same group would otherwise be
    // re-promoted at every access, and the constant reordering only
    // perturbs the pipeline without changing which warps lead.
    // The count includes finished members, which are no longer queued:
    // such a group never counts as leading.
    const int member_count = member_mask.count();
    int found_in_head = 0;
    member_mask.forEachSet([&](WarpId w) {
        if (queue.rank(w) < 2 * member_count)
            ++found_in_head;
    });
    if (found_in_head == member_count)
        return;
    stats_.warpsPrioritized +=
        static_cast<std::uint64_t>(queue.moveToHead(member_mask));
}

void
LawsScheduler::notifyAccessResult(const LoadAccessInfo& info)
{
    const WarpMask members = wgt.take(info.warp, info.pc);
    if (members.none())
        return; // group replaced before the outcome arrived

    // Lifetime of the group: formation (owner's load issue) to the
    // outcome that retires it from the WGT.
    if (metrics_ &&
        static_cast<std::size_t>(info.warp) < groupFormedAt_.size()) {
        metrics_->wgtGroupLifetime.add(
            info.now - groupFormedAt_[static_cast<std::size_t>(info.warp)]);
    }

    if (info.hit) {
        // High-locality load: the whole group is expected to hit; run
        // it immediately so the shared lines stay resident.
        ++stats_.groupHits;
        if (tracer_) {
            tracer_->record(info.sm, TraceEventType::kLawsGroupPromote,
                            info.now, info.pc, info.warp,
                            static_cast<std::uint64_t>(members.count()));
        }
        if (cfg.promoteOnHit)
            moveToHead(members);
        pendingMiss.valid = false;
        return;
    }

    // Streaming load: demote the group, and stage it for SAP, which
    // may promote the prefetch targets right back (Section IV-B).
    ++stats_.groupMisses;
    if (tracer_) {
        tracer_->record(info.sm, TraceEventType::kLawsGroupDemote, info.now,
                        info.pc, info.warp,
                        static_cast<std::uint64_t>(members.count()));
    }
    if (cfg.demoteOnMiss)
        queue.moveToTail(members);
    pendingMiss.valid = true;
    pendingMiss.owner = info.warp;
    pendingMiss.pc = info.pc;
    pendingMiss.members = members;
    pendingMiss.members.reset(info.warp);
}

LawsScheduler::PendingGroupMiss
LawsScheduler::takePendingGroupMiss(WarpId warp, Pc pc)
{
    PendingGroupMiss result;
    if (pendingMiss.valid && pendingMiss.owner == warp &&
        pendingMiss.pc == pc) {
        result = pendingMiss;
        pendingMiss.valid = false;
    }
    return result;
}

void
LawsScheduler::prioritizeWarps(const std::vector<WarpId>& warps)
{
    if (!cfg.promotePrefetchTargets)
        return;
    WarpMask mask;
    for (const WarpId w : warps)
        mask.set(w);
    stats_.prefetchTargetPromotions += warps.size();
    moveToHead(mask);
}

void
LawsScheduler::notifyWarpFinished(WarpId warp)
{
    queue.remove(warp);
}

void
LawsScheduler::notifyWarpRelaunched(WarpId warp)
{
    // A refilled slot carries a fresh block: it rejoins at the tail,
    // like a newly launched warp.
    queue.pushBack(warp);
}

void
LawsScheduler::reportStats(StatSet& out) const
{
    out.accumulate("laws.groupsFormed",
                   static_cast<double>(stats_.groupsFormed));
    out.accumulate("laws.groupHits", static_cast<double>(stats_.groupHits));
    out.accumulate("laws.groupMisses",
                   static_cast<double>(stats_.groupMisses));
    out.accumulate("laws.warpsPrioritized",
                   static_cast<double>(stats_.warpsPrioritized));
    out.accumulate("laws.prefetchTargetPromotions",
                   static_cast<double>(stats_.prefetchTargetPromotions));
}

} // namespace apres
