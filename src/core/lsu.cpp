/**
 * @file
 * LSU implementation.
 */

#include "lsu.hpp"

#include <cassert>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace apres {

Lsu::Lsu(SmId sm, const LsuConfig& config, LsuOwner& owner_ref, Cache& l1_ref,
         MemorySystem& memsys_ref)
    : smId(sm), cfg(config), owner(owner_ref), l1(l1_ref),
      memsys(memsys_ref), coalescer(l1_ref.config().lineSize)
{
    assert(cfg.queueCapacity >= 1);
    assert(cfg.linesPerCycle >= 1);
}

void
Lsu::pushLoad(WarpId warp, Pc pc, Addr base_addr, int lane_stride,
              int dst_reg, Cycle now, int active_lanes)
{
    assert(canAccept());
    Op op;
    op.warp = warp;
    op.pc = pc;
    op.isWrite = false;
    op.baseAddr = base_addr;
    op.lines = coalescer.coalesce(base_addr, lane_stride, active_lanes);
    op.accepted = now;
    ++stats_.loadsAccepted;

    Track track;
    track.warp = warp;
    track.dstReg = dst_reg;
    track.remaining = static_cast<int>(op.lines.size());
    track.accepted = now;
    op.token = tracks.insert(track);

    ops.push_back(std::move(op));
}

void
Lsu::pushStore(WarpId warp, Pc pc, Addr base_addr, int lane_stride,
               Cycle now, int active_lanes)
{
    assert(canAccept());
    Op op;
    op.token = 0; // stores are not tracked
    op.warp = warp;
    op.pc = pc;
    op.isWrite = true;
    op.baseAddr = base_addr;
    op.lines = coalescer.coalesce(base_addr, lane_stride, active_lanes);
    op.accepted = now;
    ++stats_.storesAccepted;
    ops.push_back(std::move(op));
}

void
Lsu::completeOne(std::uint64_t token, Cycle now)
{
    Track& track = tracks.at(token);
    assert(track.remaining > 0);
    if (--track.remaining == 0) {
        stats_.loadLatency.add(static_cast<double>(now - track.accepted));
        if (metrics_)
            metrics_->loadToUse.add(now - track.accepted);
        owner.onLoadComplete(track.warp, track.dstReg, now);
        tracks.erase(token);
    }
}

bool
Lsu::processLine(Op& op, Cycle now)
{
    const Addr line = op.lines[op.next];
    ++stats_.lineAccesses;

    if (op.isWrite) {
        MemRequest req;
        req.lineAddr = line;
        req.sm = smId;
        req.warp = op.warp;
        req.pc = op.pc;
        req.isWrite = true;
        req.issued = now;
        l1.storeAccess(req);
        memsys.submitWrite(req, now);
        ++op.next;
        return true;
    }

    MemRequest req;
    req.lineAddr = line;
    req.sm = smId;
    req.warp = op.warp;
    req.pc = op.pc;
    req.issued = now;
    req.token = op.token;

    // One perPc lookup per line access: the bypass check and the
    // first-line stat update share it. The first line of an op is
    // processed first, so the entry always exists by the time later
    // lines consult it.
    PcLoadStats* pc_stat = nullptr;
    if (cfg.adaptiveBypass || op.next == 0)
        pc_stat = &stats_.perPc[op.pc];

    // Adaptive bypass: proven pure streams skip the L1 entirely.
    if (cfg.adaptiveBypass && pc_stat->accesses >= cfg.bypassMinAccesses &&
        pc_stat->missRate() >= cfg.bypassMissRate) {
        req.bypassL1 = true;
        ++stats_.bypassedLines;
        if (tracer_) {
            tracer_->record(smId, TraceEventType::kL1Bypass, now, op.pc,
                            op.warp, line);
        }
        if (op.next == 0) {
            LoadAccessInfo info;
            info.sm = smId;
            info.warp = op.warp;
            info.pc = op.pc;
            info.baseAddr = op.baseAddr;
            info.baseLineAddr = line;
            info.hit = false;
            info.now = now;
            owner.onAccessResult(info);
        }
        memsys.submitRead(req, now);
        ++op.next;
        return true;
    }

    // Sample MSHR occupancy as seen by the access about to probe the
    // L1 (one sample per warp load, on its first line).
    if (metrics_ && op.next == 0)
        metrics_->mshrOccupancy.add(l1.mshrsInUse());

    const AccessOutcome outcome = l1.access(req);
    if (outcome == AccessOutcome::kMshrFull) {
        ++stats_.mshrReplays;
        return false; // replay this line next cycle
    }

    if (tracer_) {
        if (op.next == 0) {
            tracer_->record(smId,
                            outcome == AccessOutcome::kHit
                                ? TraceEventType::kL1Hit
                                : TraceEventType::kL1Miss,
                            now, op.pc, op.warp, line);
        }
        if (outcome == AccessOutcome::kMergedMshr) {
            tracer_->record(smId, TraceEventType::kMshrMerge, now, op.pc,
                            op.warp, line);
        }
    }

    // The first (lowest-lane) line's outcome is the load's result as
    // seen by schedulers and prefetchers.
    if (op.next == 0) {
        ++pc_stat->accesses;
        if (outcome == AccessOutcome::kHit)
            ++pc_stat->hits;

        LoadAccessInfo info;
        info.sm = smId;
        info.warp = op.warp;
        info.pc = op.pc;
        info.baseAddr = op.baseAddr;
        info.baseLineAddr = line;
        info.hit = outcome == AccessOutcome::kHit;
        info.now = now;
        owner.onAccessResult(info);
    }

    switch (outcome) {
      case AccessOutcome::kHit:
        hitEvents.push(now + cfg.l1HitLatency, op.token);
        break;
      case AccessOutcome::kMiss:
        memsys.submitRead(req, now);
        break;
      case AccessOutcome::kMergedMshr:
        break; // completes with the pending fill
      case AccessOutcome::kMshrFull:
        break; // handled above
    }

    ++op.next;
    return true;
}

void
Lsu::tick(Cycle now)
{
    // Deliver matured L1-hit completions (FIFO order == ready order).
    while (hitEvents.nextReady() <= now) {
        const std::uint64_t token = hitEvents.front().token;
        hitEvents.pop();
        completeOne(token, now);
    }

    // Walk the front op's remaining lines at the configured rate.
    int budget = cfg.linesPerCycle;
    while (budget > 0 && !ops.empty()) {
        Op& op = ops.front();
        if (op.next >= op.lines.size()) {
            ops.pop_front();
            continue;
        }
        if (!processLine(op, now))
            break; // MSHR full: retry next cycle
        --budget;
        if (op.next >= op.lines.size())
            ops.pop_front();
    }
}

void
Lsu::memResponse(const MemRequest& req, Cycle now)
{
    if (!req.isPrefetch)
        stats_.missLatency.add(static_cast<double>(now - req.issued));
    if (req.bypassL1) {
        // Bypassed lines never touch the L1: complete directly.
        completeOne(req.token, now);
        return;
    }
    Cache::FillResult fill = l1.fill(req.lineAddr);
    for (const MemRequest& waiter : fill.waiters) {
        assert(!waiter.isWrite);
        completeOne(waiter.token, now);
    }
    // prefetchOnly fills have no waiters: the line is now resident and
    // flagged prefetched; nothing to complete.
}

} // namespace apres
