/**
 * @file
 * Unit tests for the APRES core: LLT, WGT, the LAWS scheduler and the
 * SAP prefetcher, including the paper's own worked examples (Fig. 8,
 * Fig. 9) and the Table II hardware cost.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>

#include "apres/hardware_cost.hpp"
#include "apres/laws.hpp"
#include "apres/sap.hpp"
#include "common/rng.hpp"
#include "fake_sm.hpp"

namespace apres {
namespace {

TEST(Llt, TracksLastLoadPc)
{
    LastLoadTable llt(4);
    EXPECT_EQ(llt.get(2), kInvalidPc);
    llt.set(2, 0x10);
    EXPECT_EQ(llt.get(2), 0x10u);
    llt.set(2, 0x20);
    EXPECT_EQ(llt.get(2), 0x20u);
}

TEST(Llt, MatchMaskFindsPeers)
{
    // The Fig. 8 example: warps 0, 2 and 3 share LLPC 0x10.
    LastLoadTable llt(4);
    llt.set(0, 0x10);
    llt.set(1, 0x20);
    llt.set(2, 0x10);
    llt.set(3, 0x10);
    EXPECT_EQ(llt.matchMask(0x10), WarpMask::ofWord(0b1101));
    EXPECT_EQ(llt.matchMask(0x20), WarpMask::ofWord(0b0010));
    EXPECT_TRUE(llt.matchMask(0x30).none());
    EXPECT_TRUE(llt.matchMask(kInvalidPc).none());
}

TEST(Llt, MatchMaskCoversWarpsBeyond64)
{
    // Regression: the raw-uint64 mask silently dropped warps 64+ (the
    // loop bound was `w < 64`); the WarpMask migration must find peers
    // across the whole table.
    LastLoadTable llt(80);
    llt.set(3, 0x10);
    llt.set(63, 0x10);
    llt.set(64, 0x10);
    llt.set(79, 0x10);
    const WarpMask mask = llt.matchMask(0x10);
    EXPECT_EQ(mask.count(), 4);
    EXPECT_TRUE(mask.test(3));
    EXPECT_TRUE(mask.test(63));
    EXPECT_TRUE(mask.test(64));
    EXPECT_TRUE(mask.test(79));
    EXPECT_FALSE(mask.test(65));
}

TEST(Wgt, InsertAndTake)
{
    WarpGroupTable wgt;
    wgt.insert(0, 0x20, WarpMask::ofWord(0b1101));
    EXPECT_EQ(wgt.validCount(), 1);
    EXPECT_EQ(wgt.take(0, 0x20), WarpMask::ofWord(0b1101));
    // Taking invalidates.
    EXPECT_TRUE(wgt.take(0, 0x20).none());
    EXPECT_EQ(wgt.validCount(), 0);
}

TEST(Wgt, ReplacesOldestWhenFull)
{
    WarpGroupTable wgt; // 3 entries (pipeline depth, Table II)
    wgt.insert(0, 0x10, WarpMask::ofWord(0b0001));
    wgt.insert(1, 0x10, WarpMask::ofWord(0b0010));
    wgt.insert(2, 0x10, WarpMask::ofWord(0b0100));
    wgt.insert(3, 0x10, WarpMask::ofWord(0b1000)); // evicts (0, 0x10)
    EXPECT_TRUE(wgt.take(0, 0x10).none());
    EXPECT_EQ(wgt.take(3, 0x10), WarpMask::ofWord(0b1000));
}

TEST(Wgt, SameKeyOverwritesInPlace)
{
    WarpGroupTable wgt;
    wgt.insert(0, 0x10, WarpMask::ofWord(0b0001));
    wgt.insert(0, 0x10, WarpMask::ofWord(0b0011));
    EXPECT_EQ(wgt.validCount(), 1);
    EXPECT_EQ(wgt.take(0, 0x10), WarpMask::ofWord(0b0011));
}

LoadAccessInfo
result(WarpId warp, Pc pc, Addr addr, bool hit)
{
    LoadAccessInfo info;
    info.warp = warp;
    info.pc = pc;
    info.baseAddr = addr;
    info.baseLineAddr = addr & ~Addr{127};
    info.hit = hit;
    return info;
}

TEST(Laws, GroupsByLlpcAndPromotesOnHit)
{
    FakeSm sm(12);
    LawsScheduler laws;
    laws.attach(sm);

    // Warps 8..11 execute load X (0x10): they share LLPC 0x10 and sit
    // at the back of the queue.
    for (int w = 8; w < 12; ++w)
        laws.notifyLoadIssued(w, 0x10, 0);
    // Warp 8 issues load Y (0x20): group = {8..11}.
    laws.notifyLoadIssued(8, 0x20, 10);
    EXPECT_EQ(laws.stats().groupsFormed, 5u);

    // Y hits: the group moves to the queue head.
    laws.notifyAccessResult(result(8, 0x20, 0x1000, true));
    EXPECT_EQ(laws.stats().groupHits, 1u);
    EXPECT_GT(laws.stats().warpsPrioritized, 0u);
    const auto order = laws.queueOrder();
    EXPECT_GE(order[0], 8);
    EXPECT_GE(order[1], 8);
    EXPECT_GE(order[2], 8);
    EXPECT_GE(order[3], 8);
}

TEST(Laws, DemotesGroupOnMiss)
{
    FakeSm sm(6);
    LawsScheduler laws;
    laws.attach(sm);
    for (int w = 0; w < 6; ++w)
        laws.notifyLoadIssued(w, 0x10, 0);

    // Make warps 0..2 a distinct group: they advance to load 0x20.
    for (int w = 0; w < 3; ++w)
        laws.notifyLoadIssued(w, 0x20, 5);

    // Warp 3 issues 0x20; its group = warps still at LLPC 0x10 (3,4,5).
    laws.notifyLoadIssued(3, 0x20, 10);
    laws.notifyAccessResult(result(3, 0x20, 0x5000, false));
    EXPECT_EQ(laws.stats().groupMisses, 1u);
    // The demoted warps sit at the queue tail.
    const auto order = laws.queueOrder();
    ASSERT_EQ(order.size(), 6u);
    // Warps 3,4,5 (the group) must occupy the last three positions.
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_GE(order[i], 3);
}

TEST(Laws, PickFollowsQueueOrder)
{
    FakeSm sm(4);
    LawsScheduler laws;
    laws.attach(sm);
    EXPECT_EQ(laws.pick(0, {1, 2, 3}), 1); // 0 not ready -> next in queue
    EXPECT_EQ(laws.pick(1, {0, 3}), 0);
}

TEST(Laws, PendingGroupMissConsumedOnce)
{
    FakeSm sm(6);
    LawsScheduler laws;
    laws.attach(sm);
    for (int w = 0; w < 6; ++w)
        laws.notifyLoadIssued(w, 0x10, 0);
    laws.notifyLoadIssued(0, 0x20, 10);
    laws.notifyAccessResult(result(0, 0x20, 0x5000, false));

    const auto group = laws.takePendingGroupMiss(0, 0x20);
    EXPECT_TRUE(group.valid);
    EXPECT_TRUE(group.members.any());
    EXPECT_FALSE(group.members.test(0)); // owner excluded
    // Second take returns nothing.
    EXPECT_FALSE(laws.takePendingGroupMiss(0, 0x20).valid);
}

TEST(Laws, RelaunchedWarpJoinsTail)
{
    FakeSm sm(4);
    LawsScheduler laws;
    laws.attach(sm);
    laws.notifyWarpRelaunched(0);
    EXPECT_EQ(laws.queueOrder().back(), 0);
}

TEST(Laws, FinishedWarpLeavesQueue)
{
    FakeSm sm(4);
    LawsScheduler laws;
    laws.attach(sm);
    laws.notifyWarpFinished(2);
    const auto order = laws.queueOrder();
    EXPECT_EQ(order.size(), 3u);
    for (const WarpId w : order)
        EXPECT_NE(w, 2);
}

TEST(Laws, GroupCapLimitsMembership)
{
    FakeSm sm(16);
    LawsConfig cfg;
    cfg.groupCap = 4;
    LawsScheduler laws(cfg);
    laws.attach(sm);
    for (int w = 0; w < 16; ++w)
        laws.notifyLoadIssued(w, 0x10, 0);
    laws.notifyLoadIssued(0, 0x20, 10);
    laws.notifyAccessResult(result(0, 0x20, 0x5000, false));
    const auto group = laws.takePendingGroupMiss(0, 0x20);
    ASSERT_TRUE(group.valid);
    EXPECT_LE(group.members.count(), 4);
}

/**
 * The LAWS queue as it was kept before the ranked order: a deque whose
 * group moves erase members one at a time and whose pick scans the
 * queue for the first ready warp. Group formation uses the same LLT
 * and WGT as the scheduler, with the default policy knobs.
 */
class DequeLaws
{
  public:
    DequeLaws(int num_warps, int group_cap)
        : numWarps(num_warps), groupCap(group_cap), llt(num_warps)
    {
        for (int w = 0; w < num_warps; ++w)
            queue.push_back(w);
    }

    WarpId
    pick(const std::vector<WarpId>& ready) const
    {
        for (const WarpId w : queue) {
            if (std::find(ready.begin(), ready.end(), w) != ready.end())
                return w;
        }
        return kInvalidWarp;
    }

    void
    notifyLoadIssued(WarpId warp, Pc pc)
    {
        WarpMask members = llt.matchMask(llt.get(warp));
        members.set(warp);
        if (groupCap < numWarps && members.count() > groupCap) {
            WarpMask trimmed;
            int kept = 0;
            members.forEachSet([&](WarpId w) {
                if (kept < groupCap) {
                    trimmed.set(w);
                    ++kept;
                }
            });
            members = trimmed;
        }
        wgt.insert(warp, pc, members);
        ++stats.groupsFormed;
        llt.set(warp, pc);
    }

    void
    notifyAccessResult(WarpId warp, Pc pc, bool hit)
    {
        const WarpMask members = wgt.take(warp, pc);
        if (members.none())
            return;
        if (hit) {
            ++stats.groupHits;
            moveToHead(members);
        } else {
            ++stats.groupMisses;
            moveToTail(members);
        }
    }

    void
    prioritizeWarps(const std::vector<WarpId>& warps)
    {
        WarpMask mask;
        for (const WarpId w : warps)
            mask.set(w);
        stats.prefetchTargetPromotions += warps.size();
        moveToHead(mask);
    }

    void
    notifyWarpFinished(WarpId warp)
    {
        const auto it = std::find(queue.begin(), queue.end(), warp);
        if (it != queue.end())
            queue.erase(it);
    }

    void
    notifyWarpRelaunched(WarpId warp)
    {
        notifyWarpFinished(warp);
        queue.push_back(warp);
    }

    std::vector<WarpId> order() const { return {queue.begin(), queue.end()}; }

    LawsStats stats;
    int leadingGroupSkips = 0; ///< promotions skipped by the early exit

  private:
    void
    moveToHead(const WarpMask& member_mask)
    {
        if (member_mask.none())
            return;
        const int member_count = member_mask.count();
        int position = 0;
        int found_in_head = 0;
        for (const WarpId w : queue) {
            if (position >= 2 * member_count)
                break;
            if (member_mask.test(w))
                ++found_in_head;
            ++position;
        }
        if (found_in_head == member_count) {
            ++leadingGroupSkips;
            return;
        }
        std::vector<WarpId> promoted;
        for (auto it = queue.begin(); it != queue.end();) {
            if (member_mask.test(*it)) {
                promoted.push_back(*it);
                it = queue.erase(it);
            } else {
                ++it;
            }
        }
        stats.warpsPrioritized += promoted.size();
        queue.insert(queue.begin(), promoted.begin(), promoted.end());
    }

    void
    moveToTail(const WarpMask& member_mask)
    {
        std::vector<WarpId> demoted;
        for (auto it = queue.begin(); it != queue.end();) {
            if (member_mask.test(*it)) {
                demoted.push_back(*it);
                it = queue.erase(it);
            } else {
                ++it;
            }
        }
        queue.insert(queue.end(), demoted.begin(), demoted.end());
    }

    int numWarps;
    int groupCap;
    LastLoadTable llt;
    WarpGroupTable wgt;
    std::deque<WarpId> queue;
};

TEST(Laws, RankedQueueMatchesDequeReference)
{
    constexpr int kWarps = 24;
    LawsConfig cfg;
    cfg.groupCap = 10; // exercises group trimming too
    FakeSm sm(kWarps);
    LawsScheduler laws(cfg);
    laws.attach(sm);
    DequeLaws ref(kWarps, cfg.groupCap);

    Rng rng(16);
    const Pc pcs[] = {0x10, 0x20, 0x30, 0x40};
    std::deque<std::pair<WarpId, Pc>> recent_loads;
    std::uint64_t stamp = kWarps; // FakeSm stamps warps 1..kWarps
    int picks = 0;
    for (int step = 0; step < 4000; ++step) {
        std::vector<WarpId> live;
        for (int w = 0; w < kWarps; ++w) {
            if (!sm.warp(w).finished)
                live.push_back(w);
        }
        const WarpId warp = live[rng.nextBounded(live.size())];
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 30) {
            const Pc pc = pcs[rng.nextBounded(4)];
            laws.notifyLoadIssued(warp, pc, static_cast<Cycle>(step));
            ref.notifyLoadIssued(warp, pc);
            recent_loads.emplace_back(warp, pc);
            if (recent_loads.size() > 6)
                recent_loads.pop_front();
        } else if (op < 55 && !recent_loads.empty()) {
            const auto [owner, pc] =
                recent_loads[rng.nextBounded(recent_loads.size())];
            const bool hit = rng.nextBounded(2) == 0;
            laws.notifyAccessResult(result(owner, pc, 0x1000, hit));
            ref.notifyAccessResult(owner, pc, hit);
        } else if (op < 65) {
            // SAP targets may name finished warps: their LLT entries
            // outlive them.
            std::vector<WarpId> targets;
            for (int w = 0; w < kWarps; ++w) {
                if (rng.nextBounded(4) == 0)
                    targets.push_back(w);
            }
            laws.prioritizeWarps(targets);
            ref.prioritizeWarps(targets);
        } else if (op < 67 && live.size() > 2) {
            sm.warp(warp).finished = true;
            laws.notifyWarpFinished(warp);
            ref.notifyWarpFinished(warp);
        } else if (op < 71) {
            sm.warp(warp).ageStamp = ++stamp;
            laws.notifyWarpRelaunched(warp);
            ref.notifyWarpRelaunched(warp);
        } else {
            std::vector<WarpId> ready;
            for (const WarpId w : live) {
                if (rng.nextBounded(3) == 0)
                    ready.push_back(w);
            }
            ASSERT_EQ(laws.pick(static_cast<Cycle>(step), ready),
                      ref.pick(ready))
                << "step " << step;
            ++picks;
        }
        ASSERT_EQ(laws.queueOrder(), ref.order()) << "step " << step;
    }

    const LawsStats& got = laws.stats();
    EXPECT_EQ(got.groupsFormed, ref.stats.groupsFormed);
    EXPECT_EQ(got.groupHits, ref.stats.groupHits);
    EXPECT_EQ(got.groupMisses, ref.stats.groupMisses);
    EXPECT_EQ(got.warpsPrioritized, ref.stats.warpsPrioritized);
    EXPECT_EQ(got.prefetchTargetPromotions,
              ref.stats.prefetchTargetPromotions);
    // The drive reached every path it is meant to compare.
    EXPECT_GT(picks, 500);
    EXPECT_GT(ref.stats.groupHits, 100u);
    EXPECT_GT(ref.stats.groupMisses, 100u);
    EXPECT_GT(ref.leadingGroupSkips, 0);
    EXPECT_LT(laws.queueOrder().size(), static_cast<std::size_t>(kWarps));
}

/**
 * The paper's Fig. 9 walk-through: PT holds (PC 200, warp 10, addr
 * 2800, stride 100); warp 2 misses at 2000. Calculated stride
 * (2000-2800)/(2-10) = 100 matches, so every group warp w gets a
 * prefetch at 2000 + (w-2)*100 — warp 1's target is 1900.
 */
TEST(Sap, Figure9WorkedExample)
{
    FakeSm sm(16);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    // Train the PT: warp 10 executed PC 200 at address 2800 after an
    // earlier execution established stride 100 (warp 5 at 2300).
    sap.onAccess(result(5, 200, 2300, false), issuer);
    sap.onAccess(result(10, 200, 2800, false), issuer);
    ASSERT_TRUE(issuer.requests.empty()); // no group miss staged yet

    // Group {1, 3} is staged by LAWS for warp 2's miss at PC 200.
    for (const int w : {1, 3})
        laws.notifyLoadIssued(w, 0x10, 0);
    laws.notifyLoadIssued(2, 0x10, 0);
    laws.notifyLoadIssued(2, 200, 5);
    laws.notifyAccessResult(result(2, 200, 2000, false));

    sap.onAccess(result(2, 200, 2000, false), issuer);
    ASSERT_EQ(issuer.requests.size(), 2u);
    EXPECT_EQ(issuer.requests[0].addr, 1900u); // warp 1: 2000 + (1-2)*100
    EXPECT_EQ(issuer.requests[0].warp, 1);
    EXPECT_EQ(issuer.requests[1].addr, 2100u); // warp 3: 2000 + (3-2)*100
    EXPECT_EQ(issuer.requests[1].warp, 3);
    EXPECT_EQ(sap.stats().strideMatches, 1u);
}

TEST(Sap, MismatchedStrideSuppressesPrefetch)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    sap.onAccess(result(0, 200, 1000, false), issuer);
    sap.onAccess(result(1, 200, 1100, false), issuer); // stride 100

    laws.notifyLoadIssued(3, 0x10, 0);
    laws.notifyLoadIssued(2, 0x10, 0);
    laws.notifyLoadIssued(2, 200, 5);
    laws.notifyAccessResult(result(2, 200, 9999, false));
    sap.onAccess(result(2, 200, 9999, false), issuer); // stride mismatch
    EXPECT_TRUE(issuer.requests.empty());
    EXPECT_EQ(sap.stats().strideMismatches, 1u);
}

TEST(Sap, InexactDivisionIgnored)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    // Warp delta 3, address delta 100: not an integral per-warp
    // stride; the trained stride must survive.
    sap.onAccess(result(0, 200, 1000, false), issuer);
    sap.onAccess(result(1, 200, 1100, false), issuer);
    sap.onAccess(result(4, 200, 1200, false), issuer); // (100)/(3): inexact
    sap.onAccess(result(5, 200, 1300, false), issuer); // stride 100 again
    EXPECT_EQ(sap.stats().prefetchesGenerated, 0u); // no group miss yet
}

TEST(Sap, PrefetchTargetsPromotedInLaws)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    sap.onAccess(result(0, 200, 1000, false), issuer);
    sap.onAccess(result(1, 200, 1100, false), issuer);

    for (const int w : {6, 7})
        laws.notifyLoadIssued(w, 0x10, 0);
    laws.notifyLoadIssued(2, 0x10, 0);
    laws.notifyLoadIssued(2, 200, 5);
    laws.notifyAccessResult(result(2, 200, 1200, false));
    sap.onAccess(result(2, 200, 1200, false), issuer);

    EXPECT_EQ(issuer.requests.size(), 2u);
    EXPECT_GT(laws.stats().prefetchTargetPromotions, 0u);
    // The prefetch-target warps (6, 7) lead the queue.
    const auto order = laws.queueOrder();
    EXPECT_TRUE((order[0] == 6 && order[1] == 7) ||
                (order[0] == 7 && order[1] == 6));
}

TEST(Sap, ZeroStrideNeverPrefetches)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    sap.onAccess(result(0, 200, 1000, false), issuer);
    sap.onAccess(result(1, 200, 1000, false), issuer); // stride 0

    laws.notifyLoadIssued(3, 0x10, 0);
    laws.notifyLoadIssued(2, 0x10, 0);
    laws.notifyLoadIssued(2, 200, 5);
    laws.notifyAccessResult(result(2, 200, 1000, false));
    sap.onAccess(result(2, 200, 1000, false), issuer);
    EXPECT_TRUE(issuer.requests.empty());
}

TEST(Sap, PtEvictsTrueLruEntryNotSlotZero)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    // Fill all 10 PT entries with distinct PCs, oldest first.
    for (Pc pc = 100; pc < 110; ++pc)
        sap.onAccess(result(0, pc, 1000, false), issuer);

    // Re-touch PC 100: it becomes the most recently used, so slot 0
    // no longer holds the LRU entry — PC 101 does.
    sap.onAccess(result(1, 100, 1100, false), issuer);

    // One more PC forces an eviction, which must hit PC 101 (true
    // LRU), not PC 100 in slot 0.
    sap.onAccess(result(0, 110, 2000, false), issuer);

    const std::vector<Pc> resident = sap.ptResidentPcs();
    ASSERT_EQ(resident.size(), 10u);
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 100u), 1);
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 110u), 1);
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 101u), 0);
    // LRU order: 102 is now the oldest, the fresh 110 the newest.
    EXPECT_EQ(resident.front(), 102u);
    EXPECT_EQ(resident.back(), 110u);
}

TEST(Sap, LookupRefreshesRecencyBeforeEviction)
{
    FakeSm sm(8);
    LawsScheduler laws;
    laws.attach(sm);
    SapPrefetcher sap(laws);
    RecordingIssuer issuer;

    for (Pc pc = 100; pc < 110; ++pc)
        sap.onAccess(result(0, pc, 1000, false), issuer);

    // An access to the oldest entry (PC 100) and an insert arriving in
    // the same cycle: the lookup must stamp recency first so the
    // insert's victim scan never evicts the just-touched entry.
    sap.onAccess(result(1, 100, 1100, false), issuer);
    sap.onAccess(result(0, 200, 5000, false), issuer);

    const std::vector<Pc> resident = sap.ptResidentPcs();
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 100u), 1);
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 200u), 1);
}

TEST(Sap, GroupWalkCoversWarpsBeyond64)
{
    // Wide machines used to be rejected at attach because group masks
    // were 64-bit words; with WarpMask the whole LAWS->SAP pipeline
    // must group, demote and hand over warps 64+.
    FakeSm sm(80);
    LawsConfig cfg;
    cfg.groupCap = 80; // default 48 would trim the wide group
    LawsScheduler laws(cfg);
    SapPrefetcher sap(laws);
    laws.attach(sm);
    sap.attach(sm);

    for (int w = 0; w < 80; ++w)
        laws.notifyLoadIssued(w, 0x10, 0);
    laws.notifyLoadIssued(70, 0x20, 10);
    laws.notifyAccessResult(result(70, 0x20, 0x5000, false));
    const auto group = laws.takePendingGroupMiss(70, 0x20);
    ASSERT_TRUE(group.valid);
    // Every other warp still has LLPC 0x10... except the 0x20 issuer.
    EXPECT_EQ(group.members.count(), 79);
    EXPECT_TRUE(group.members.test(79));
    EXPECT_FALSE(group.members.test(70)); // owner excluded
}

TEST(HardwareCost, Table2Reproduced)
{
    const HardwareCost cost = computeHardwareCost();
    // Table II: LLT 4Bx48 = 192, WGT 48bx3 = 18, DRQ 8Bx32 = 256,
    // WQ 1Bx48 = 48, PT (4+1+8+8)Bx10 = 210. Total 724 bytes.
    EXPECT_EQ(cost.lltBytes, 192u);
    EXPECT_EQ(cost.wgtBytes, 18u);
    EXPECT_EQ(cost.drqBytes, 256u);
    EXPECT_EQ(cost.wqBytes, 48u);
    EXPECT_EQ(cost.ptBytes, 210u);
    EXPECT_EQ(cost.lawsBytes(), 210u);
    EXPECT_EQ(cost.sapBytes(), 514u);
    EXPECT_EQ(cost.totalBytes(), 724u);
}

TEST(HardwareCost, FractionOfL1Near2Percent)
{
    const HardwareCost cost = computeHardwareCost();
    // The paper reports ~2.06% of the 32 KB L1 (their CACTI-based
    // figure includes peripheral overhead; raw storage is ~2.2%).
    const double fraction = cost.fractionOfL1(32 * 1024);
    EXPECT_GT(fraction, 0.015);
    EXPECT_LT(fraction, 0.03);
}

TEST(HardwareCost, ScalesWithParameters)
{
    HardwareCostParams params;
    params.warpsPerSm = 64;
    const HardwareCost cost = computeHardwareCost(params);
    EXPECT_EQ(cost.lltBytes, 256u);
    EXPECT_EQ(cost.wgtBytes, 24u);
}

} // namespace
} // namespace apres
