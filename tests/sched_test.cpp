/**
 * @file
 * Unit tests for the baseline warp schedulers: LRR, GTO, CCWS, MASCAR
 * and the PA two-level scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fake_sm.hpp"
#include "sched/ccws.hpp"
#include "sched/gto.hpp"
#include "sched/lrr.hpp"
#include "sched/mascar.hpp"
#include "sched/pa_twolevel.hpp"

namespace apres {
namespace {

TEST(Lrr, RoundRobinOrder)
{
    FakeSm sm(4);
    LrrScheduler lrr;
    lrr.attach(sm);
    const std::vector<WarpId> ready = {0, 1, 2, 3};
    EXPECT_EQ(lrr.pick(0, ready), 0);
    EXPECT_EQ(lrr.pick(1, ready), 1);
    EXPECT_EQ(lrr.pick(2, ready), 2);
    EXPECT_EQ(lrr.pick(3, ready), 3);
    EXPECT_EQ(lrr.pick(4, ready), 0); // wraps
}

TEST(Lrr, SkipsUnreadyWarps)
{
    FakeSm sm(4);
    LrrScheduler lrr;
    lrr.attach(sm);
    EXPECT_EQ(lrr.pick(0, {0, 2}), 0);
    EXPECT_EQ(lrr.pick(1, {0, 2}), 2);
    EXPECT_EQ(lrr.pick(2, {1, 3}), 3);
}

TEST(Lrr, EmptyReadyReturnsInvalid)
{
    FakeSm sm(4);
    LrrScheduler lrr;
    lrr.attach(sm);
    EXPECT_EQ(lrr.pick(0, {}), kInvalidWarp);
}

TEST(Gto, GreedyUntilStall)
{
    FakeSm sm(4);
    GtoScheduler gto;
    gto.attach(sm);
    EXPECT_EQ(gto.pick(0, {0, 1, 2, 3}), 0);
    EXPECT_EQ(gto.pick(1, {0, 1, 2, 3}), 0); // stays greedy
    EXPECT_EQ(gto.pick(2, {1, 3}), 1);       // 0 stalled: oldest ready
    EXPECT_EQ(gto.pick(3, {1, 3}), 1);       // new greedy warp
}

TEST(Gto, OldestByAgeStampNotId)
{
    FakeSm sm(4);
    // Warp 3 is the oldest block (smallest age stamp).
    sm.warp(0).ageStamp = 10;
    sm.warp(1).ageStamp = 9;
    sm.warp(2).ageStamp = 8;
    sm.warp(3).ageStamp = 1;
    GtoScheduler gto;
    gto.attach(sm);
    EXPECT_EQ(gto.pick(0, {0, 1, 2, 3}), 3);
}

TEST(Gto, ForgetsFinishedGreedyWarp)
{
    FakeSm sm(4);
    GtoScheduler gto;
    gto.attach(sm);
    EXPECT_EQ(gto.pick(0, {2, 3}), 2);
    gto.notifyWarpFinished(2);
    EXPECT_EQ(gto.pick(1, {3}), 3);
}

LoadAccessInfo
missAt(WarpId warp, Addr line)
{
    LoadAccessInfo info;
    info.warp = warp;
    info.baseLineAddr = line;
    info.hit = false;
    return info;
}

/** Evict @p line after @p warp touched it, then let @p warp miss on it. */
void
loseLocality(FakeSm& sm, CcwsScheduler& ccws, WarpId warp, Addr line)
{
    Cache& l1 = sm.l1Mutable();
    MemRequest req;
    req.lineAddr = line;
    req.warp = warp;
    l1.access(req);
    l1.fill(line);
    // Overflow the set so the line is evicted (2 sets, 8 ways).
    for (int i = 1; i <= 8; ++i) {
        MemRequest r2;
        r2.lineAddr = line + static_cast<Addr>(i) * 2 * 128;
        l1.access(r2);
        l1.fill(r2.lineAddr);
    }
    ccws.notifyAccessResult(missAt(warp, line));
}

TEST(Ccws, NoThrottleWithoutLostLocality)
{
    FakeSm sm(8);
    CcwsScheduler ccws;
    ccws.attach(sm);
    EXPECT_EQ(ccws.activeLimit(), 8);
    EXPECT_EQ(ccws.pick(0, {0, 1, 2}), 0);
}

TEST(Ccws, VtaHitRaisesScoreAndThrottles)
{
    FakeSm sm(48);
    CcwsConfig cfg;
    cfg.scoreBonus = 96;
    cfg.scoreCap = 288;
    cfg.throttleScale = 48;
    CcwsScheduler ccws(cfg);
    ccws.attach(sm);

    // Evict a line touched by warp 5, then let warp 5 miss on it.
    Cache& l1 = sm.l1Mutable();
    MemRequest req;
    req.lineAddr = 0x1000;
    req.warp = 5;
    l1.access(req);
    l1.fill(0x1000);
    // Overflow the set so 0x1000 is evicted (2 sets, 8 ways).
    for (int i = 1; i <= 8; ++i) {
        MemRequest r2;
        r2.lineAddr = 0x1000 + static_cast<Addr>(i) * 2 * 128;
        r2.warp = 0;
        l1.access(r2);
        l1.fill(r2.lineAddr);
    }
    EXPECT_FALSE(l1.contains(0x1000));

    ccws.notifyAccessResult(missAt(5, 0x1000));
    EXPECT_GT(ccws.totalScore(), 0);
    EXPECT_EQ(ccws.lostLocalityEvents(), 1u);
    EXPECT_LT(ccws.activeLimit(), 48);
}

TEST(Ccws, ScoresDecayOverTime)
{
    FakeSm sm(48);
    CcwsConfig cfg;
    cfg.decayPeriod = 4;
    CcwsScheduler ccws(cfg);
    ccws.attach(sm);

    Cache& l1 = sm.l1Mutable();
    MemRequest req;
    req.lineAddr = 0x1000;
    req.warp = 3;
    l1.access(req);
    l1.fill(0x1000);
    for (int i = 1; i <= 8; ++i) {
        MemRequest r2;
        r2.lineAddr = 0x1000 + static_cast<Addr>(i) * 2 * 128;
        l1.access(r2);
        l1.fill(r2.lineAddr);
    }
    ccws.notifyAccessResult(missAt(3, 0x1000));
    const auto before = ccws.totalScore();
    ASSERT_GT(before, 0);
    // Decay happens inside pick().
    ccws.pick(100000, {0});
    EXPECT_LT(ccws.totalScore(), before);
}

TEST(Ccws, ThrottledWarpsAreNotPicked)
{
    FakeSm sm(8);
    CcwsConfig cfg;
    cfg.minActiveWarps = 2;
    cfg.scoreBonus = 1000;
    cfg.scoreCap = 100000;
    cfg.throttleScale = 100; // one event throttles 10 slots
    CcwsScheduler ccws(cfg);
    ccws.attach(sm);

    loseLocality(sm, ccws, 0, 0x2000);
    EXPECT_EQ(ccws.activeLimit(), 2);
    // Only the two oldest warps (age stamps 1 and 2 = warps 0, 1) are
    // eligible.
    EXPECT_EQ(ccws.pick(0, {2, 3, 4}), kInvalidWarp);
    EXPECT_EQ(ccws.pick(1, {1, 2, 3}), 1);
}

TEST(Ccws, RelaunchedWarpBecomesYoungest)
{
    FakeSm sm(8);
    CcwsConfig cfg;
    cfg.minActiveWarps = 2;
    cfg.scoreBonus = 1000;
    cfg.scoreCap = 100000;
    cfg.throttleScale = 100;
    CcwsScheduler ccws(cfg);
    ccws.attach(sm);
    loseLocality(sm, ccws, 0, 0x2000);
    ASSERT_EQ(ccws.activeLimit(), 2);
    EXPECT_EQ(ccws.pick(0, {0, 1, 2}), 0);

    // Warp 0's slot takes its next block, as Sm::issue does on kExit:
    // the newest stamp, then the notification.
    sm.warp(0).ageStamp = 9;
    ccws.notifyWarpRelaunched(0);
    // Warps 1 and 2 are now the eligible pair; the greedy warp 0 is
    // throttled.
    EXPECT_EQ(ccws.pick(1, {0, 2, 3}), 2);
    EXPECT_EQ(ccws.pick(2, {0, 3}), kInvalidWarp);
    EXPECT_EQ(ccws.pick(3, {0, 1}), 1);
}

/**
 * CCWS as it picked before the incremental age order: every pick
 * re-finds the unfinished warps and sorts them by ageStamp. Scoring,
 * decay and the VTAs are copied unchanged, so the ccws.* stats are
 * compared as well.
 */
class SortingCcws final : public Scheduler
{
  public:
    explicit SortingCcws(const CcwsConfig& config) : cfg(config) {}

    void
    attach(SmContext& sm_ref) override
    {
        sm = &sm_ref;
        vtas.assign(static_cast<std::size_t>(sm->numWarps()), {});
        scores.assign(static_cast<std::size_t>(sm->numWarps()), 0);
        sm->l1Mutable().setEvictionListener(
            [this](Addr line, const WarpMask& mask) {
                mask.forEachSet([&](WarpId w) {
                    std::deque<Addr>& vta = vtas[static_cast<std::size_t>(w)];
                    vta.push_back(line);
                    if (static_cast<int>(vta.size()) > cfg.vtaEntries)
                        vta.pop_front();
                });
            });
    }

    WarpId
    pick(Cycle now, const std::vector<WarpId>& ready) override
    {
        decay(now);
        if (ready.empty())
            return kInvalidWarp;
        std::vector<WarpId> eligible;
        for (int w = 0; w < sm->numWarps(); ++w) {
            if (!sm->warpState(w).finished)
                eligible.push_back(w);
        }
        std::sort(eligible.begin(), eligible.end(), [this](WarpId a, WarpId b) {
            return sm->warpState(a).ageStamp < sm->warpState(b).ageStamp;
        });
        if (static_cast<int>(eligible.size()) > activeLimit())
            eligible.resize(static_cast<std::size_t>(activeLimit()));
        const auto contains = [](const std::vector<WarpId>& v, WarpId w) {
            return std::find(v.begin(), v.end(), w) != v.end();
        };
        if (greedyWarp != kInvalidWarp && contains(eligible, greedyWarp) &&
            contains(ready, greedyWarp))
            return greedyWarp;
        for (const WarpId candidate : eligible) {
            if (contains(ready, candidate)) {
                greedyWarp = candidate;
                return candidate;
            }
        }
        return kInvalidWarp;
    }

    void
    notifyAccessResult(const LoadAccessInfo& info) override
    {
        if (info.hit)
            return;
        std::deque<Addr>& vta = vtas[static_cast<std::size_t>(info.warp)];
        const auto it = std::find(vta.begin(), vta.end(), info.baseLineAddr);
        if (it != vta.end()) {
            vta.erase(it);
            std::int64_t& s = scores[static_cast<std::size_t>(info.warp)];
            s = std::min<std::int64_t>(s + cfg.scoreBonus, cfg.scoreCap);
            ++events;
        }
    }

    void
    notifyWarpFinished(WarpId warp) override
    {
        if (warp == greedyWarp)
            greedyWarp = kInvalidWarp;
    }

    const char* name() const override { return "CCWS-sorting"; }

    void
    reportStats(StatSet& out) const override
    {
        out.accumulate("ccws.activeLimitSum",
                       static_cast<double>(activeLimit()));
        out.accumulate("ccws.scoreSum", static_cast<double>(totalScore()));
        out.accumulate("ccws.events", static_cast<double>(events));
    }

    int
    activeLimit() const
    {
        const int num_warps = static_cast<int>(scores.size());
        const auto throttled =
            static_cast<int>(totalScore() / cfg.throttleScale);
        return std::max(std::min(cfg.minActiveWarps, num_warps),
                        num_warps - throttled);
    }

  private:
    std::int64_t
    totalScore() const
    {
        std::int64_t total = 0;
        for (const std::int64_t s : scores)
            total += s;
        return total;
    }

    void
    decay(Cycle now)
    {
        if (now < lastDecay + static_cast<Cycle>(cfg.decayPeriod))
            return;
        const auto delta = static_cast<std::int64_t>(
            (now - lastDecay) / static_cast<Cycle>(cfg.decayPeriod));
        lastDecay = now;
        for (std::int64_t& s : scores)
            s = std::max<std::int64_t>(0, s - delta);
    }

    CcwsConfig cfg;
    SmContext* sm = nullptr;
    std::vector<std::deque<Addr>> vtas;
    std::vector<std::int64_t> scores;
    WarpId greedyWarp = kInvalidWarp;
    Cycle lastDecay = 0;
    std::uint64_t events = 0;
};

TEST(Ccws, AgeOrderMatchesSortingReference)
{
    constexpr int kWarps = 16;
    CcwsConfig cfg;
    cfg.vtaEntries = 4;
    cfg.decayPeriod = 4;
    cfg.minActiveWarps = 2;
    // Two simulated SMs receive identical L1 traffic, so both
    // schedulers see the same eviction stream.
    FakeSm sm(kWarps);
    FakeSm ref_sm(kWarps);
    CcwsScheduler ccws(cfg);
    ccws.attach(sm);
    SortingCcws ref(cfg);
    ref.attach(ref_sm);

    Rng rng(16);
    std::uint64_t stamp = kWarps; // FakeSm stamps warps 1..kWarps
    Cycle now = 0;
    int throttled_stalls = 0;
    int relaunches = 0;
    for (int step = 0; step < 4000; ++step) {
        std::vector<WarpId> live;
        for (int w = 0; w < kWarps; ++w) {
            if (!sm.warp(w).finished)
                live.push_back(w);
        }
        const WarpId warp = live[rng.nextBounded(live.size())];
        const Addr line = 128 * rng.nextBounded(48);
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 35) {
            MemRequest req;
            req.lineAddr = line;
            req.warp = warp;
            for (FakeSm* s : {&sm, &ref_sm}) {
                if (s->l1Mutable().access(req) == AccessOutcome::kMiss)
                    s->l1Mutable().fill(line);
            }
        } else if (op < 55) {
            ccws.notifyAccessResult(missAt(warp, line));
            ref.notifyAccessResult(missAt(warp, line));
        } else if (op < 57 && live.size() > 3) {
            for (FakeSm* s : {&sm, &ref_sm})
                s->warp(warp).finished = true;
            ccws.notifyWarpFinished(warp);
            ref.notifyWarpFinished(warp);
        } else if (op < 62) {
            ++stamp;
            for (FakeSm* s : {&sm, &ref_sm})
                s->warp(warp).ageStamp = stamp;
            ccws.notifyWarpRelaunched(warp);
            ref.notifyWarpRelaunched(warp);
            ++relaunches;
        } else {
            std::vector<WarpId> ready;
            for (const WarpId w : live) {
                if (rng.nextBounded(3) == 0)
                    ready.push_back(w);
            }
            now += rng.nextBounded(8);
            const WarpId got = ccws.pick(now, ready);
            ASSERT_EQ(got, ref.pick(now, ready)) << "step " << step;
            ASSERT_EQ(ccws.activeLimit(), ref.activeLimit())
                << "step " << step;
            if (got == kInvalidWarp && !ready.empty())
                ++throttled_stalls;
        }
    }

    StatSet got;
    StatSet want;
    ccws.reportStats(got);
    ref.reportStats(want);
    EXPECT_EQ(got.entries(), want.entries());
    // The drive reached throttling, relaunches and finishes.
    EXPECT_GT(ccws.lostLocalityEvents(), 20u);
    EXPECT_GT(throttled_stalls, 20);
    EXPECT_GT(relaunches, 100);
    EXPECT_LT(ccws.ageOrderForAudit().warps().size(),
              static_cast<std::size_t>(kWarps));
}

TEST(Mascar, GtoLikeWhenUnsaturated)
{
    FakeSm sm(8);
    MascarScheduler mascar;
    mascar.attach(sm);
    EXPECT_FALSE(mascar.saturated());
    EXPECT_EQ(mascar.pick(0, {0, 1, 2}), 0);
    EXPECT_EQ(mascar.pick(1, {0, 1, 2}), 0);
}

TEST(Mascar, SaturationRestrictsMemoryIssue)
{
    FakeSm sm(8);
    MascarScheduler mascar;
    mascar.attach(sm);
    // Saturate the L1 MSHRs (8 entries in the fake config).
    Cache& l1 = sm.l1Mutable();
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.lineAddr = static_cast<Addr>(i) * 128;
        l1.access(req);
    }
    sm.setNextIsMemory(0, true);
    sm.setNextIsMemory(1, true);
    sm.setNextIsMemory(2, false);

    // Warp 0 becomes the owner (oldest with memory next).
    EXPECT_EQ(mascar.pick(0, {0, 1, 2}), 0);
    EXPECT_TRUE(mascar.saturated());
    // Without the owner ready, compute-only warps may issue.
    EXPECT_EQ(mascar.pick(1, {1, 2}), 2);
    // Only memory warps ready, none the owner: stall.
    EXPECT_EQ(mascar.pick(2, {1}), kInvalidWarp);
}

TEST(Mascar, HysteresisExitsSaturation)
{
    FakeSm sm(8);
    MascarScheduler mascar;
    mascar.attach(sm);
    Cache& l1 = sm.l1Mutable();
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.lineAddr = static_cast<Addr>(i) * 128;
        l1.access(req);
    }
    mascar.pick(0, {0});
    EXPECT_TRUE(mascar.saturated());
    // Drain the MSHRs below the low watermark.
    for (int i = 0; i < 8; ++i)
        l1.fill(static_cast<Addr>(i) * 128);
    mascar.pick(1, {0});
    EXPECT_FALSE(mascar.saturated());
}

TEST(PaTwoLevel, PrefersActiveGroup)
{
    FakeSm sm(16);
    PaScheduler pa({.groupSize = 8});
    pa.attach(sm);
    // Warps 0-7 are group 0; 8-15 group 1.
    EXPECT_EQ(pa.pick(0, {0, 1, 8, 9}), 0);
    EXPECT_EQ(pa.pick(1, {0, 1, 8, 9}), 1);
    EXPECT_EQ(pa.activeGroup(), 0);
}

TEST(PaTwoLevel, SwitchesGroupWhenActiveStalls)
{
    FakeSm sm(16);
    PaScheduler pa({.groupSize = 8});
    pa.attach(sm);
    EXPECT_EQ(pa.pick(0, {0, 8}), 0);
    // Group 0 fully stalled: switch to group 1.
    EXPECT_EQ(pa.pick(1, {8, 9}), 8);
    EXPECT_EQ(pa.activeGroup(), 1);
    // Round-robin continues inside the new group.
    EXPECT_EQ(pa.pick(2, {8, 9}), 9);
}

TEST(PaTwoLevel, RoundRobinWrapsInGroup)
{
    FakeSm sm(16);
    PaScheduler pa({.groupSize = 8});
    pa.attach(sm);
    EXPECT_EQ(pa.pick(0, {5, 6}), 5);
    EXPECT_EQ(pa.pick(1, {5, 6}), 6);
    EXPECT_EQ(pa.pick(2, {5, 6}), 5);
}

} // namespace
} // namespace apres
