/**
 * @file
 * Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO 2012).
 *
 * CCWS detects *lost intra-warp locality*: when a warp misses on a
 * line that was recently evicted while tagged as touched by that same
 * warp, the L1 is too small for the concurrently active working sets.
 * Each such event raises the warp's lost-locality score; the scheduler
 * throttles the number of schedulable warps as the total score grows,
 * effectively enlarging the per-warp cache share until the scores
 * decay.
 *
 * Implementation here: the L1's eviction stream (victim line address +
 * toucher-warp mask) feeds per-warp victim tag arrays (VTAs). A demand
 * miss probing its warp's VTA successfully is a lost-locality event.
 */

#ifndef APRES_SCHED_CCWS_HPP
#define APRES_SCHED_CCWS_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "common/warp_mask.hpp"
#include "core/scheduler.hpp"
#include "core/sm.hpp"
#include "core/warp_order.hpp"

namespace apres {

/** CCWS tuning knobs. */
struct CcwsConfig
{
    int vtaEntries = 32;      ///< victim tags per warp
    int scoreBonus = 96;      ///< score added per lost-locality event
    int scoreCap = 288;       ///< per-warp score ceiling (anti-windup)
    int decayPeriod = 32;     ///< cycles per unit of linear score decay
    int throttleScale = 48;   ///< score needed to retire one warp slot
    int minActiveWarps = 12;  ///< never throttle below this
};

/**
 * CCWS scheduler.
 */
class CcwsScheduler final : public Scheduler
{
  public:
    explicit CcwsScheduler(const CcwsConfig& config = {});

    void attach(SmContext& sm) override;

    WarpId pick(Cycle now, const std::vector<WarpId>& ready) override;

    void notifyAccessResult(const LoadAccessInfo& info) override;

    void notifyWarpFinished(WarpId warp) override;

    void notifyWarpRelaunched(WarpId warp) override;

    const char* name() const override { return "CCWS"; }

    void reportStats(StatSet& out) const override;

    /** Current number of schedulable warps (for tests/reports). */
    int activeLimit() const;

    /** Total lost-locality score (for tests). */
    std::int64_t totalScore() const;

    /** Lifetime count of lost-locality detections (for tests). */
    std::uint64_t lostLocalityEvents() const { return events; }

    /** Age order for the invariant auditor. */
    const WarpOrder& ageOrderForAudit() const { return ages; }

    /**
     * TEST HOOK: mutable age order for fault-injection tests. Never
     * call outside tests.
     */
    WarpOrder& ageOrderForTest() { return ages; }

  private:
    void onEviction(Addr line_addr, const WarpMask& toucher_mask);
    void bump(WarpId warp);
    void decay(Cycle now);

    CcwsConfig cfg;
    SmContext* sm = nullptr;
    std::vector<std::deque<Addr>> vtas;      // per-warp victim tags
    std::vector<std::int64_t> scores;        // per-warp lost locality
    WarpOrder ages; ///< unfinished warps, oldest ageStamp first
    WarpId greedyWarp = kInvalidWarp;
    Cycle lastDecay = 0;
    std::uint64_t events = 0;
};

} // namespace apres

#endif // APRES_SCHED_CCWS_HPP
