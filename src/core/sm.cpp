/**
 * @file
 * SM implementation.
 */

#include "sm.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string>

#include "common/bitutils.hpp"
#include "common/trace.hpp"
#include "core/shared_memory.hpp"

namespace apres {

namespace {

const char*
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::kAlu: return "alu";
      case Opcode::kSfu: return "sfu";
      case Opcode::kLoad: return "load";
      case Opcode::kStore: return "store";
      case Opcode::kSharedLoad: return "sload";
      case Opcode::kBranch: return "branch";
      case Opcode::kBarrier: return "barrier";
      case Opcode::kExit: return "exit";
    }
    return "?";
}

} // namespace

Sm::Sm(SmId sm_id, const SmConfig& config, const Kernel& kernel,
       Scheduler& scheduler_ref, Prefetcher* prefetcher_ptr,
       MemorySystem& memsys_ref)
    : smId(sm_id), cfg(config), kernel_(kernel), scheduler(scheduler_ref),
      prefetcher(prefetcher_ptr), memsys(memsys_ref),
      l1_("sm" + std::to_string(sm_id) + ".l1", config.l1),
      lsu_(sm_id, config.lsu, *this, l1_, memsys_ref)
{
    assert(cfg.warpsPerSm >= 1);
    assert(cfg.warpsPerBlock >= 1);
    assert(cfg.jobsPerWarp >= 1);
    warps.resize(static_cast<std::size_t>(cfg.warpsPerSm));
    for (int w = 0; w < cfg.warpsPerSm; ++w) {
        WarpRuntime& warp = warps[static_cast<std::size_t>(w)];
        warp.id = w;
        warp.regReadyAt.assign(static_cast<std::size_t>(kernel.numRegs()),
                               0);
        warp.iterEnd = kernel.tripCount();
        warp.jobsRemaining = cfg.jobsPerWarp;
        warp.ageStamp = ++jobSeq;
    }
    readyMemo_.assign(static_cast<std::size_t>(cfg.warpsPerSm),
                      WarpReadyMemo{});
    scanMask_.assign((static_cast<std::size_t>(cfg.warpsPerSm) + 63) / 64,
                     0);
    for (int w = 0; w < cfg.warpsPerSm; ++w)
        setScanBit(w);
    unfinishedWarps_ = cfg.warpsPerSm;
    barrierArrivals.assign(
        static_cast<std::size_t>(divCeil(cfg.warpsPerSm, cfg.warpsPerBlock)),
        0);
    memsys.registerClient(smId, this);
    scheduler.attach(*this);
    if (prefetcher)
        prefetcher->attach(*this);
}

const WarpRuntime&
Sm::warpState(WarpId warp) const
{
    return warps.at(static_cast<std::size_t>(warp));
}

bool
Sm::nextIsMemory(WarpId warp) const
{
    const WarpRuntime& w = warpState(warp);
    if (w.finished)
        return false;
    return kernel_.at(static_cast<std::size_t>(w.pcIndex)).isMemory();
}

bool
Sm::warpReady(const WarpRuntime& warp, Cycle now) const
{
    if (warp.finished || warp.atBarrier)
        return false;
    const Instruction& instr =
        kernel_.at(static_cast<std::size_t>(warp.pcIndex));
    if (instr.isMemory() && !lsu_.canAccept())
        return false;
    for (const int src : instr.src) {
        if (!warp.regReady(src, now))
            return false;
    }
    // WAW: a destination still owed by an outstanding producer blocks
    // re-issue (loads in a loop reuse their destination register).
    if (!warp.regReady(instr.dst, now))
        return false;
    return true;
}

void
Sm::refreshReadyMemo(const WarpRuntime& warp, WarpReadyMemo& memo) const
{
    const Instruction& instr =
        kernel_.at(static_cast<std::size_t>(warp.pcIndex));
    Cycle regs_ready = 0;
    bool waits_on_load = false;
    const auto consider = [&](int reg) {
        if (reg < 0)
            return;
        const Cycle r = warp.regReadyAt[static_cast<std::size_t>(reg)];
        if (r == kNeverReady)
            waits_on_load = true;
        else if (r > regs_ready)
            regs_ready = r;
    };
    for (const int src : instr.src)
        consider(src);
    consider(instr.dst); // WAW: outstanding producer blocks re-issue
    memo.regsReady = regs_ready;
    memo.waitsOnLoad = waits_on_load;
    memo.isMemory = instr.isMemory();
    memo.valid = true;
}

void
Sm::collectReady(Cycle now, std::vector<WarpId>& out)
{
    out.clear();
    // One walk computes both the ready set and — for the empty case —
    // the earliest cycle a stalled warp's registers mature, which
    // seeds the ready-scan cache and the fast-forward wakeup. The walk
    // reads the 16-byte per-warp memo (see WarpReadyMemo) and only
    // falls back to the kernel-and-scoreboard scan for warps whose
    // state changed since their last refresh — readiness is a pure
    // function of that state, so the memo cannot drift from the
    // from-scratch scan this replaces.
    Cycle wake = kNeverReady;
    const bool can_accept = lsu_.canAccept();
    for (std::size_t word = 0; word < scanMask_.size(); ++word) {
        std::uint64_t bits = scanMask_[word];
        while (bits != 0) {
            const int w = static_cast<int>(word * 64) +
                std::countr_zero(bits);
            bits &= bits - 1;
            WarpReadyMemo& memo = readyMemo_[static_cast<std::size_t>(w)];
            if (!memo.valid)
                refreshReadyMemo(warps[static_cast<std::size_t>(w)], memo);
            if (memo.waitsOnLoad) {
                // Only a load completion can wake this warp, and that
                // re-sets the bit: drop it from future scans.
                clearScanBit(w);
                continue;
            }
            if (memo.regsReady <= now) {
                if (memo.isMemory && !can_accept)
                    continue; // woken by the LSU draining below capacity
                out.push_back(w);
            } else if (memo.regsReady < wake) {
                wake = memo.regsReady;
            }
        }
    }
    readyWakeAt_ = wake;
}

void
Sm::arriveBarrier(WarpId warp)
{
    const std::size_t block =
        static_cast<std::size_t>(warp) / cfg.warpsPerBlock;
    ++barrierArrivals[block];
    releaseBarrierIfComplete(block);
}

void
Sm::releaseBarrierIfComplete(std::size_t block)
{
    // Finished warps never arrive: the release threshold is the block's
    // live-warp count, recomputed here. Called both on arrival and when
    // a warp finishes (kExit): a warp exiting early while its siblings
    // wait lowers the threshold, and the barrier must release the
    // moment the remaining live warps have all arrived — counting live
    // warps only at arrival time deadlocks that block.
    const int first = static_cast<int>(block) * cfg.warpsPerBlock;
    const int last = std::min(first + cfg.warpsPerBlock, cfg.warpsPerSm);
    int live = 0;
    for (int w = first; w < last; ++w) {
        if (!warps[static_cast<std::size_t>(w)].finished)
            ++live;
    }
    if (barrierArrivals[block] > 0 && barrierArrivals[block] >= live) {
        barrierArrivals[block] = 0;
        for (int w = first; w < last; ++w) {
            WarpRuntime& warp = warps[static_cast<std::size_t>(w)];
            warp.atBarrier = false;
            WarpReadyMemo& memo = readyMemo_[static_cast<std::size_t>(w)];
            memo.inactive = warp.finished;
            memo.valid = false;
            if (memo.inactive)
                clearScanBit(w);
            else
                setScanBit(w);
        }
        readyClean_ = false; // released warps are issueable again
    }
}

void
Sm::issue(WarpId warp_id, Cycle now)
{
    WarpRuntime& warp = warps[static_cast<std::size_t>(warp_id)];
    const Instruction& instr =
        kernel_.at(static_cast<std::size_t>(warp.pcIndex));

    ++stats_.issuedInstructions;
    ++warp.instructionsIssued;
    warp.lastIssueCycle = now;
    if (tracer_) {
        tracer_->record(smId, TraceEventType::kWarpIssue, now, instr.pc,
                        warp_id, static_cast<std::uint64_t>(instr.op));
    }
    scheduler.notifyIssue(warp_id, instr, now);

    switch (instr.op) {
      case Opcode::kAlu:
      case Opcode::kSfu:
        warp.regReadyAt[static_cast<std::size_t>(instr.dst)] =
            now + static_cast<Cycle>(instr.latency);
        ++warp.pcIndex;
        break;

      case Opcode::kLoad: {
        const AddrCtx ctx{smId, warp_id, warp.iter};
        const Addr base = kernel_.addrGen(instr.addrGenId).base(ctx);
        warp.regReadyAt[static_cast<std::size_t>(instr.dst)] = kNeverReady;
        ++warp.outstandingLoads;
        lsu_.pushLoad(warp_id, instr.pc, base, instr.laneStride, instr.dst,
                      now, instr.activeLanes);
        ++stats_.issuedLoads;
        scheduler.notifyLoadIssued(warp_id, instr.pc, now);
        ++warp.pcIndex;
        break;
      }

      case Opcode::kStore: {
        const AddrCtx ctx{smId, warp_id, warp.iter};
        const Addr base = kernel_.addrGen(instr.addrGenId).base(ctx);
        lsu_.pushStore(warp_id, instr.pc, base, instr.laneStride, now,
                       instr.activeLanes);
        ++stats_.issuedStores;
        ++warp.pcIndex;
        break;
      }

      case Opcode::kSharedLoad: {
        const AddrCtx ctx{smId, warp_id, warp.iter};
        const Addr base = kernel_.addrGen(instr.addrGenId).base(ctx);
        const Cycle latency = sharedAccessLatency(
            base, instr.laneStride, instr.activeLanes, cfg.sharedMem);
        warp.regReadyAt[static_cast<std::size_t>(instr.dst)] =
            now + latency;
        ++stats_.sharedAccesses;
        stats_.sharedConflictCycles +=
            latency - cfg.sharedMem.baseLatency;
        ++warp.pcIndex;
        break;
      }

      case Opcode::kBranch:
        ++warp.iter;
        if (warp.iter < warp.iterEnd) {
            warp.pcIndex = instr.branchTarget;
        } else {
            ++warp.pcIndex;
        }
        break;

      case Opcode::kBarrier: {
        // Non-participants (divergent exit paths, partial-block tails)
        // step over the barrier without arriving.
        const int lane = static_cast<int>(warp_id) % cfg.warpsPerBlock;
        ++warp.pcIndex;
        if (instr.participantMask >> lane & 1) {
            warp.atBarrier = true;
            arriveBarrier(warp_id);
        }
        break;
      }

      case Opcode::kExit:
        if (--warp.jobsRemaining > 0) {
            // Refill the slot with the next block: restart the kernel
            // with iterations continuing, rejoining as the youngest.
            warp.pcIndex = 0;
            warp.iterEnd = warp.iter + kernel_.tripCount();
            warp.ageStamp = ++jobSeq;
            scheduler.notifyWarpRelaunched(warp_id);
        } else {
            warp.finished = true;
            --unfinishedWarps_;
            scheduler.notifyWarpFinished(warp_id);
            // A sibling barrier may now be complete: this warp's
            // arrival is no longer owed.
            releaseBarrierIfComplete(static_cast<std::size_t>(warp_id) /
                                     cfg.warpsPerBlock);
        }
        break;
    }

    // The issue changed this warp's pc and possibly its scoreboard:
    // its readiness memo must be re-derived on the next scan.
    // `inactive` reads the post-issue state — a kBarrier issue parks
    // the warp (unless its own arrival completed the barrier), a final
    // kExit retires it.
    WarpReadyMemo& memo = readyMemo_[static_cast<std::size_t>(warp_id)];
    memo.valid = false;
    memo.inactive = warp.finished || warp.atBarrier;
    if (memo.inactive)
        clearScanBit(warp_id);
    else
        setScanBit(warp_id);
}

bool
Sm::tick(Cycle now)
{
    now_ = now;

    lsu_.tick(now); // load completions here clear readyClean_

    // Ready-scan cache: the last scan found nothing, nothing mutated
    // since, and no stalled register matures this cycle — the scan
    // would provably come back empty again, so skip it. Readiness
    // depends on the LSU only through the canAccept() boolean, hence
    // the flip check.
    if (fastForward_ && readyClean_ &&
        lsu_.canAccept() == readyCanAccept_ && now < readyWakeAt_) {
        ++stats_.idleCycles;
        return false;
    }

    collectReady(now, readyScratch);
    if (readyScratch.empty()) {
        readyClean_ = true;
        readyCanAccept_ = lsu_.canAccept();
        ++stats_.idleCycles;
        return false;
    }
    readyClean_ = false;
    const WarpId picked = scheduler.pick(now, readyScratch);
    if (picked == kInvalidWarp) {
        // The scheduler idled deliberately (e.g. CCWS throttling); its
        // decision can change with bare time, so never cache or skip
        // past this state.
        if (tracer_) {
            tracer_->record(smId, TraceEventType::kSchedulerIdle, now,
                            kInvalidPc, kInvalidWarp,
                            readyScratch.size());
        }
        ++stats_.idleCycles;
        return false;
    }
    issue(picked, now);
    return true;
}

void
Sm::setObservability(Tracer* tracer, MetricsRegistry* metrics)
{
    tracer_ = tracer;
    metrics_ = metrics;
    lsu_.setObservability(tracer, metrics);
    l1_.setMetrics(metrics);
}

void
Sm::skipIdle(Cycle cycles)
{
    // Exactly what `cycles` idle tick() calls would have recorded.
    stats_.idleCycles += cycles;
}

Cycle
Sm::nextWakeup(Cycle next) const
{
    if (!readyClean_)
        return next; // issued or mutated this cycle: state unknown
    if (lsu_.busy() || lsu_.canAccept() != readyCanAccept_)
        return next; // queued ops make progress every cycle
    const Cycle wake = std::min(readyWakeAt_, lsu_.nextHitReady());
    return std::max(wake, next);
}

bool
Sm::done() const
{
    return unfinishedWarps_ == 0 && lsu_.idle();
}

void
Sm::onAccessResult(const LoadAccessInfo& info)
{
    scheduler.notifyAccessResult(info);
    if (prefetcher)
        prefetcher->onAccess(info, *this);
}

void
Sm::onLoadComplete(WarpId warp_id, int dst_reg, Cycle now)
{
    WarpRuntime& warp = warps[static_cast<std::size_t>(warp_id)];
    warp.regReadyAt[static_cast<std::size_t>(dst_reg)] = now;
    assert(warp.outstandingLoads > 0);
    --warp.outstandingLoads;
    WarpReadyMemo& memo = readyMemo_[static_cast<std::size_t>(warp_id)];
    memo.valid = false;
    // A finished or barrier-parked warp stays out of the scan: a load
    // it never consumed may complete after kExit or while it waits.
    if (memo.inactive)
        return;
    setScanBit(warp_id); // the load wait (if any) just resolved
    readyClean_ = false; // the warp may be issueable again
}

void
Sm::memResponse(const MemRequest& req, Cycle now)
{
    lsu_.memResponse(req, now);
}

bool
Sm::issuePrefetch(Addr addr, Pc pc, WarpId target_warp)
{
    ++stats_.prefetchesRequested;
    // Saturation gate: do not displace demand bandwidth.
    if (static_cast<double>(l1_.mshrsInUse()) >=
        cfg.prefetchMshrGate * l1_.config().numMshrs) {
        return false;
    }
    MemRequest req;
    req.lineAddr = alignDown(addr, l1_.config().lineSize);
    req.sm = smId;
    req.warp = target_warp;
    req.pc = pc;
    req.isPrefetch = true;
    req.issued = now_;
    if (l1_.prefetch(req) != PrefetchOutcome::kIssued)
        return false;
    memsys.submitRead(req, now_);
    ++stats_.prefetchesIssued;
    return true;
}

std::string
Sm::auditInvariants(Cycle now) const
{
    std::ostringstream out;

    // Scoreboard: registers pinned at kNeverReady are exactly the
    // destinations of loads in flight.
    for (const WarpRuntime& warp : warps) {
        int pinned = 0;
        for (const Cycle r : warp.regReadyAt)
            pinned += r == kNeverReady ? 1 : 0;
        if (pinned != warp.outstandingLoads) {
            out << "sm" << smId << " warp " << warp.id << ": " << pinned
                << " register(s) pinned at kNeverReady but outstandingLoads="
                << warp.outstandingLoads << "\n";
        }
    }

    // Barriers: the arrival counter of each block equals its parked
    // warps, and a complete barrier must already have released.
    for (std::size_t b = 0; b < barrierArrivals.size(); ++b) {
        const int first = static_cast<int>(b) * cfg.warpsPerBlock;
        const int last = std::min(first + cfg.warpsPerBlock, cfg.warpsPerSm);
        int parked = 0;
        int live = 0;
        for (int w = first; w < last; ++w) {
            const WarpRuntime& warp = warps[static_cast<std::size_t>(w)];
            parked += warp.atBarrier ? 1 : 0;
            live += warp.finished ? 0 : 1;
        }
        if (barrierArrivals[b] != parked) {
            out << "sm" << smId << " block " << b << ": barrier arrivals="
                << barrierArrivals[b] << " but " << parked
                << " warp(s) parked atBarrier\n";
        }
        if (barrierArrivals[b] > 0 && barrierArrivals[b] >= live) {
            out << "sm" << smId << " block " << b << ": barrier complete ("
                << barrierArrivals[b] << " arrived, " << live
                << " live) but not released\n";
        }
    }

    // Per-warp readiness memo: every valid entry must re-derive to the
    // same value from the kernel and scoreboard, and `inactive` must
    // mirror finished/atBarrier exactly (an over-eager inactive flag
    // would silently stop a live warp from ever issuing).
    for (int w = 0; w < cfg.warpsPerSm; ++w) {
        const WarpRuntime& warp = warps[static_cast<std::size_t>(w)];
        const WarpReadyMemo& memo = readyMemo_[static_cast<std::size_t>(w)];
        if (memo.inactive != (warp.finished || warp.atBarrier)) {
            out << "sm" << smId << " warp " << w << ": memo inactive="
                << memo.inactive << " but finished=" << warp.finished
                << " atBarrier=" << warp.atBarrier << "\n";
        }
        if (!scanBit(w) && !memo.inactive &&
            !(memo.valid && memo.waitsOnLoad)) {
            out << "sm" << smId << " warp " << w << ": dropped from the "
                << "ready scan without a proof it cannot issue (valid="
                << memo.valid << " waitsOnLoad=" << memo.waitsOnLoad
                << ")\n";
        }
        if (memo.valid && !memo.inactive) {
            WarpReadyMemo fresh;
            refreshReadyMemo(warp, fresh);
            if (fresh.regsReady != memo.regsReady ||
                fresh.waitsOnLoad != memo.waitsOnLoad ||
                fresh.isMemory != memo.isMemory) {
                out << "sm" << smId << " warp " << w
                    << ": stale readiness memo (regsReady "
                    << memo.regsReady << " vs " << fresh.regsReady
                    << ", waitsOnLoad " << memo.waitsOnLoad << " vs "
                    << fresh.waitsOnLoad << ", isMemory " << memo.isMemory
                    << " vs " << fresh.isMemory << ")\n";
            }
        }
    }

    // L1 storage: slot-index ownership, set-index consistency,
    // duplicate tags, and resident-while-pending violations.
    out << l1_.auditTags();

    // L1 MSHRs pair one-to-one with in-flight memory-system reads;
    // adaptive-bypass requests skip the L1, so with bypass on the MSHR
    // count may only run below the in-flight count, never above.
    const std::uint64_t mshrs = l1_.mshrsInUse();
    const std::uint64_t inflight = memsys.outstandingReads(smId);
    const bool paired = cfg.lsu.adaptiveBypass ? mshrs <= inflight
                                               : mshrs == inflight;
    if (!paired) {
        out << "sm" << smId << ": l1 mshrsInUse=" << mshrs
            << " vs memory-system outstandingReads=" << inflight
            << (cfg.lsu.adaptiveBypass ? " (bypass on: expected <=)"
                                       : " (expected ==)")
            << "\n";
    }

    // Ready-scan cache: when it claims "asleep until readyWakeAt_",
    // re-derive readiness from scratch and cross-check the claim.
    if (fastForward_ && readyClean_ &&
        lsu_.canAccept() == readyCanAccept_ && now < readyWakeAt_) {
        const bool can_accept = lsu_.canAccept();
        Cycle true_wake = kNeverReady;
        for (const WarpRuntime& warp : warps) {
            if (warp.finished || warp.atBarrier)
                continue;
            WarpReadyMemo fresh;
            refreshReadyMemo(warp, fresh);
            if (fresh.waitsOnLoad)
                continue;
            if (fresh.regsReady <= now) {
                if (fresh.isMemory && !can_accept)
                    continue;
                out << "sm" << smId << " warp " << warp.id
                    << ": issueable at cycle " << now
                    << " but the ready-scan cache claims the SM sleeps "
                       "until cycle " << readyWakeAt_ << "\n";
            } else if (fresh.regsReady < true_wake) {
                true_wake = fresh.regsReady;
            }
        }
        if (true_wake < readyWakeAt_) {
            out << "sm" << smId << ": ready-scan cache wake bound "
                << readyWakeAt_ << " is later than the true earliest "
                   "register maturity " << true_wake
                << " (issueable cycles would be skipped)\n";
        }
    }

    return out.str();
}

std::string
Sm::auditSkippedWindow(Cycle begin, Cycle end) const
{
    std::ostringstream out;
    if (lsu_.busy()) {
        out << "sm" << smId << ": window [" << begin << ", " << end
            << ") skipped with " << lsu_.queueDepth()
            << " op(s) queued in the LSU\n";
    }
    if (lsu_.nextHitReady() < end) {
        out << "sm" << smId << ": window [" << begin << ", " << end
            << ") skipped over an L1-hit completion at cycle "
            << lsu_.nextHitReady() << "\n";
    }
    // The LSU was idle across the window (no queued op, no response
    // before `end`), so canAccept() could not flip: any live warp whose
    // registers mature strictly before `end` could have issued.
    const bool can_accept = lsu_.canAccept();
    for (const WarpRuntime& warp : warps) {
        if (warp.finished || warp.atBarrier)
            continue;
        WarpReadyMemo fresh;
        refreshReadyMemo(warp, fresh);
        if ((fresh.isMemory && !can_accept) || fresh.waitsOnLoad)
            continue;
        if (fresh.regsReady < end) {
            out << "sm" << smId << " warp " << warp.id
                << ": could have issued at cycle "
                << std::max(begin, fresh.regsReady)
                << " inside the skipped window [" << begin << ", " << end
                << ")\n";
        }
    }
    return out.str();
}

std::string
Sm::stallReport(Cycle now) const
{
    std::ostringstream out;
    out << "sm" << smId << ": lsuQueue=" << lsu_.queueDepth() << "/"
        << cfg.lsu.queueCapacity << " l1MshrsInUse=" << l1_.mshrsInUse()
        << " outstandingReads=" << memsys.outstandingReads(smId)
        << " unfinishedWarps=" << unfinishedWarps_ << "\n";
    for (std::size_t b = 0; b < barrierArrivals.size(); ++b) {
        if (barrierArrivals[b] > 0) {
            out << "  block " << b << ": " << barrierArrivals[b]
                << " warp(s) arrived at the barrier\n";
        }
    }
    const bool can_accept = lsu_.canAccept();
    for (const WarpRuntime& warp : warps) {
        if (warp.finished)
            continue;
        const Instruction& instr =
            kernel_.at(static_cast<std::size_t>(warp.pcIndex));
        out << "  warp " << warp.id << ": pcIndex=" << warp.pcIndex
            << " op=" << opcodeName(instr.op) << " ";
        if (warp.atBarrier) {
            const std::size_t b =
                static_cast<std::size_t>(warp.id) / cfg.warpsPerBlock;
            out << "at barrier (block " << b << ", "
                << barrierArrivals[b] << " arrived)";
        } else if (warp.outstandingLoads > 0 &&
                   !warpReady(warp, now)) {
            out << "waiting on " << warp.outstandingLoads
                << " outstanding load(s)";
        } else if (instr.isMemory() && !can_accept) {
            out << "blocked on a full LSU queue";
        } else if (!warpReady(warp, now)) {
            Cycle regs_ready = 0;
            for (const int src : instr.src) {
                if (src >= 0)
                    regs_ready = std::max(
                        regs_ready,
                        warp.regReadyAt[static_cast<std::size_t>(src)]);
            }
            if (instr.dst >= 0)
                regs_ready = std::max(
                    regs_ready,
                    warp.regReadyAt[static_cast<std::size_t>(instr.dst)]);
            out << "registers mature at cycle " << regs_ready;
        } else {
            out << "ready but never picked by the scheduler";
        }
        out << "\n";
    }
    return out.str();
}

} // namespace apres
