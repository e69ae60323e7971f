/**
 * @file
 * Warp scheduler interface.
 *
 * An SM owns exactly one Scheduler. Every cycle the SM computes the
 * set of *ready* warps (scoreboard-clean, not finished, not at a
 * barrier, structural resources available) and asks the scheduler to
 * pick one. Schedulers additionally receive the event stream they need
 * to maintain internal state: instruction issues, load issues (LAWS
 * group formation), and L1 access results (CCWS locality scoring, LAWS
 * hit/miss group prioritization).
 *
 * Warp lifecycle contract: the SM calls notifyWarpFinished() for every
 * warp that finishes and notifyWarpRelaunched() for every change of a
 * warp's ageStamp (a relaunch gives the newest stamp), right after the
 * change. Schedulers may keep incremental state between picks that
 * relies on this (the LAWS queue and the CCWS age order do), instead
 * of re-deriving it from warpState() on every pick. A test that edits
 * a warp's `finished` flag or `ageStamp` directly after attach() must
 * make the same calls.
 */

#ifndef APRES_CORE_SCHEDULER_HPP
#define APRES_CORE_SCHEDULER_HPP

#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace apres {

class MetricsRegistry;
class SmContext;
class StatSet;
class Tracer;

/** L1 access result of one warp load, reported by the LSU. */
struct LoadAccessInfo
{
    SmId sm = 0;
    WarpId warp = kInvalidWarp;
    Pc pc = kInvalidPc;
    Addr baseAddr = kInvalidAddr;     ///< exact lowest-lane byte address
    Addr baseLineAddr = kInvalidAddr; ///< lowest-lane line address
    bool hit = false;
    Cycle now = 0;
};

/**
 * Abstract warp scheduler.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Bind to the SM that owns this scheduler. Called once before the
     * first cycle; schedulers size their per-warp state here.
     */
    virtual void attach(SmContext& sm) = 0;

    /**
     * Choose the next warp to issue.
     *
     * @param now   current cycle
     * @param ready warps eligible to issue this cycle (ascending IDs)
     * @return one element of @p ready, or kInvalidWarp to idle
     */
    virtual WarpId pick(Cycle now, const std::vector<WarpId>& ready) = 0;

    /** Called after every successful instruction issue. */
    virtual void notifyIssue(WarpId warp, const Instruction& instr,
                             Cycle now)
    {
        (void)warp;
        (void)instr;
        (void)now;
    }

    /**
     * Called when a global load is issued (before its L1 access). LAWS
     * forms warp groups here.
     */
    virtual void notifyLoadIssued(WarpId warp, Pc pc, Cycle now)
    {
        (void)warp;
        (void)pc;
        (void)now;
    }

    /** Called with the L1 hit/miss result of a warp load. */
    virtual void notifyAccessResult(const LoadAccessInfo& info)
    {
        (void)info;
    }

    /**
     * Called once when a warp executes kExit with no jobs left, after
     * its `finished` flag is set.
     */
    virtual void notifyWarpFinished(WarpId warp) { (void)warp; }

    /**
     * Called when a finished warp's slot is refilled with a new block
     * (job), after it received the newest ageStamp. The warp rejoins
     * as the youngest.
     */
    virtual void notifyWarpRelaunched(WarpId warp) { (void)warp; }

    /** Scheduler name for reports. */
    virtual const char* name() const = 0;

    /**
     * Accumulate this scheduler's policy statistics into @p out under
     * dotted keys (e.g. "ccws.events"). Called once per SM instance
     * when a run is collected; implementations must *accumulate*
     * (StatSet::accumulate) so per-SM instances sum GPU-wide. The
     * default reports nothing — stateless schedulers need no code.
     */
    virtual void reportStats(StatSet& out) const { (void)out; }

    /**
     * Install observation sinks (either may be null = off). Sinks are
     * strictly write-only from the scheduler's side: emitting an event
     * or a sample must never influence a scheduling decision, so
     * statistics stay bitwise identical with observation on or off.
     */
    void
    setObservability(Tracer* tracer, MetricsRegistry* metrics)
    {
        tracer_ = tracer;
        metrics_ = metrics;
    }

  protected:
    Tracer* tracer_ = nullptr;
    MetricsRegistry* metrics_ = nullptr;
};

} // namespace apres

#endif // APRES_CORE_SCHEDULER_HPP
