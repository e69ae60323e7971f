/**
 * @file
 * CCWS implementation.
 */

#include "ccws.hpp"

#include <algorithm>
#include <cassert>

#include "common/stats.hpp"

namespace apres {

CcwsScheduler::CcwsScheduler(const CcwsConfig& config) : cfg(config)
{
    assert(cfg.vtaEntries >= 1);
    assert(cfg.throttleScale >= 1);
    assert(cfg.minActiveWarps >= 1);
}

void
CcwsScheduler::attach(SmContext& sm_ref)
{
    sm = &sm_ref;
    vtas.assign(static_cast<std::size_t>(sm->numWarps()), {});
    scores.assign(static_cast<std::size_t>(sm->numWarps()), 0);
    // The age order is sorted once here; afterwards it changes only
    // when a warp finishes or is relaunched with the newest stamp.
    std::vector<WarpId> unfinished;
    for (int w = 0; w < sm->numWarps(); ++w) {
        if (!sm->warpState(w).finished)
            unfinished.push_back(w);
    }
    std::stable_sort(unfinished.begin(), unfinished.end(),
                     [this](WarpId a, WarpId b) {
                         return sm->warpState(a).ageStamp <
                             sm->warpState(b).ageStamp;
                     });
    ages.reset(sm->numWarps());
    for (const WarpId w : unfinished)
        ages.pushBack(w);
    sm->l1Mutable().setEvictionListener(
        [this](Addr line, const WarpMask& mask) { onEviction(line, mask); });
}

void
CcwsScheduler::notifyWarpFinished(WarpId warp)
{
    ages.remove(warp);
    if (warp == greedyWarp)
        greedyWarp = kInvalidWarp;
}

void
CcwsScheduler::notifyWarpRelaunched(WarpId warp)
{
    // The refilled slot has just received the newest age stamp.
    ages.pushBack(warp);
}

void
CcwsScheduler::onEviction(Addr line_addr, const WarpMask& toucher_mask)
{
    // Record the victim tag in the VTA of every warp that touched the
    // line: if that warp re-references it soon, locality was lost.
    toucher_mask.forEachSet([&](WarpId w) {
        if (static_cast<std::size_t>(w) >= vtas.size())
            return;
        std::deque<Addr>& vta = vtas[static_cast<std::size_t>(w)];
        vta.push_back(line_addr);
        if (static_cast<int>(vta.size()) > cfg.vtaEntries)
            vta.pop_front();
    });
}

void
CcwsScheduler::notifyAccessResult(const LoadAccessInfo& info)
{
    if (info.hit)
        return;
    std::deque<Addr>& vta = vtas[static_cast<std::size_t>(info.warp)];
    const auto it = std::find(vta.begin(), vta.end(), info.baseLineAddr);
    if (it != vta.end()) {
        vta.erase(it);
        bump(info.warp);
    }
}

void
CcwsScheduler::bump(WarpId warp)
{
    std::int64_t& s = scores[static_cast<std::size_t>(warp)];
    s = std::min<std::int64_t>(s + cfg.scoreBonus, cfg.scoreCap);
    ++events;
}

void
CcwsScheduler::decay(Cycle now)
{
    if (now < lastDecay + static_cast<Cycle>(cfg.decayPeriod))
        return;
    // Integral controller with anti-windup: slow linear decay makes
    // the throttle hover exactly at the level where lost-locality
    // events just keep occurring (the fit/thrash boundary), while the
    // per-warp score cap bounds how long recovery takes once the
    // working set fits.
    const auto delta = static_cast<std::int64_t>(
        (now - lastDecay) / static_cast<Cycle>(cfg.decayPeriod));
    lastDecay = now;
    for (std::int64_t& s : scores)
        s = std::max<std::int64_t>(0, s - delta);
}

std::int64_t
CcwsScheduler::totalScore() const
{
    std::int64_t total = 0;
    for (const std::int64_t s : scores)
        total += s;
    return total;
}

int
CcwsScheduler::activeLimit() const
{
    const int num_warps = static_cast<int>(scores.size());
    const auto throttled =
        static_cast<int>(totalScore() / cfg.throttleScale);
    const int floor_warps = std::min(cfg.minActiveWarps, num_warps);
    return std::max(floor_warps, num_warps - throttled);
}

WarpId
CcwsScheduler::pick(Cycle now, const std::vector<WarpId>& ready)
{
    decay(now);
    if (ready.empty())
        return kInvalidWarp;

    // Eligible warps: the `activeLimit()` oldest running warps by
    // block launch order, i.e. those ranked below the limit in the age
    // order. Throttling suspends the youngest warps first, shrinking
    // the combined working set.
    const int limit = activeLimit();

    // Greedy-then-oldest among eligible warps.
    if (ages.rank(greedyWarp) < limit) {
        for (const WarpId w : ready) {
            if (w == greedyWarp)
                return w;
        }
    }
    const WarpId oldest = ages.first(ready, limit);
    // kInvalidWarp: all ready warps are throttled, an intentional stall.
    if (oldest != kInvalidWarp)
        greedyWarp = oldest;
    return oldest;
}

void
CcwsScheduler::reportStats(StatSet& out) const
{
    out.accumulate("ccws.activeLimitSum",
                   static_cast<double>(activeLimit()));
    out.accumulate("ccws.scoreSum", static_cast<double>(totalScore()));
    out.accumulate("ccws.events", static_cast<double>(events));
}

} // namespace apres
