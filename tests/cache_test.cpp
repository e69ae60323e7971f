/**
 * @file
 * Unit tests for the cache model: hit/miss behaviour, LRU, miss
 * taxonomy, MSHR merging, prefetch bookkeeping and early evictions.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace apres {
namespace {

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.sizeBytes = 2 * 1024; // 2 sets x 8 ways x 128 B
    cfg.ways = 8;
    cfg.lineSize = 128;
    cfg.numMshrs = 4;
    cfg.maxMergesPerMshr = 3;
    cfg.hashSetIndex = false; // deterministic set mapping for tests
    return cfg;
}

MemRequest
read(Addr line, WarpId warp = 0)
{
    MemRequest req;
    req.lineAddr = line;
    req.warp = warp;
    return req;
}

MemRequest
prefetchReq(Addr line, WarpId warp = 0)
{
    MemRequest req;
    req.lineAddr = line;
    req.warp = warp;
    req.isPrefetch = true;
    return req;
}

TEST(Cache, MissThenFillThenHit)
{
    Cache cache("t", tinyConfig());
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kMiss);
    EXPECT_TRUE(cache.isPending(0));
    const auto fill = cache.fill(0);
    EXPECT_EQ(fill.waiters.size(), 1u);
    EXPECT_FALSE(fill.prefetchOnly);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kHit);
    EXPECT_EQ(cache.stats().demandHits, 1u);
    EXPECT_EQ(cache.stats().demandMisses, 1u);
}

TEST(Cache, MergesIntoOutstandingMiss)
{
    Cache cache("t", tinyConfig());
    EXPECT_EQ(cache.access(read(0, 0)), AccessOutcome::kMiss);
    EXPECT_EQ(cache.access(read(0, 1)), AccessOutcome::kMergedMshr);
    EXPECT_EQ(cache.access(read(0, 2)), AccessOutcome::kMergedMshr);
    EXPECT_EQ(cache.stats().mshrMerges, 2u);
    const auto fill = cache.fill(0);
    EXPECT_EQ(fill.waiters.size(), 3u);
}

TEST(Cache, MergeCapacityBounded)
{
    Cache cache("t", tinyConfig()); // 3 merges per entry
    EXPECT_EQ(cache.access(read(0, 0)), AccessOutcome::kMiss);
    EXPECT_EQ(cache.access(read(0, 1)), AccessOutcome::kMergedMshr);
    EXPECT_EQ(cache.access(read(0, 2)), AccessOutcome::kMergedMshr);
    EXPECT_EQ(cache.access(read(0, 3)), AccessOutcome::kMshrFull);
}

TEST(Cache, MshrExhaustion)
{
    Cache cache("t", tinyConfig()); // 4 MSHRs
    for (Addr line = 0; line < 4; ++line)
        EXPECT_EQ(cache.access(read(line * 128)), AccessOutcome::kMiss);
    EXPECT_TRUE(cache.mshrsFull());
    EXPECT_EQ(cache.access(read(4 * 128)), AccessOutcome::kMshrFull);
    // The rejected access will be replayed: it must not count.
    EXPECT_EQ(cache.stats().demandAccesses, 4u);
    cache.fill(0);
    EXPECT_FALSE(cache.mshrsFull());
    EXPECT_EQ(cache.access(read(4 * 128)), AccessOutcome::kMiss);
}

TEST(Cache, ColdVersusCapacityClassification)
{
    Cache cache("t", tinyConfig());
    // Fill set 0 beyond capacity: lines 0, 2*128... map to set 0 when
    // the set index is line % 2 (2 sets).
    for (int i = 0; i < 9; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128; // all set 0
        EXPECT_EQ(cache.access(read(line)), AccessOutcome::kMiss);
        cache.fill(line);
    }
    EXPECT_EQ(cache.stats().coldMisses, 9u);
    // Line 0 was evicted by the 9th fill (LRU): re-access = capacity.
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kMiss);
    EXPECT_EQ(cache.stats().capacityConflictMisses, 1u);
}

TEST(Cache, LruVictimSelection)
{
    Cache cache("t", tinyConfig());
    // Fill all 8 ways of set 0.
    for (int i = 0; i < 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line));
        cache.fill(line);
    }
    // Touch line 0 so line 1*256 becomes LRU.
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kHit);
    // Insert a 9th line: victim must be line 256 (LRU), not 0.
    const Addr newcomer = 8 * 2 * 128;
    cache.access(read(newcomer));
    cache.fill(newcomer);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(256));
}

TEST(Cache, HitAfterHitAndHitAfterMiss)
{
    Cache cache("t", tinyConfig());
    cache.access(read(0));
    cache.fill(0);
    cache.access(read(128));
    cache.fill(128);
    // Sequence: miss, miss, hit(after miss), hit(after hit).
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kHit);
    EXPECT_EQ(cache.access(read(128)), AccessOutcome::kHit);
    EXPECT_EQ(cache.stats().hitAfterMiss, 1u);
    EXPECT_EQ(cache.stats().hitAfterHit, 1u);
    EXPECT_EQ(cache.stats().demandHits,
              cache.stats().hitAfterHit + cache.stats().hitAfterMiss);
}

TEST(Cache, PrefetchDroppedOnHitOrPending)
{
    Cache cache("t", tinyConfig());
    cache.access(read(0));
    EXPECT_EQ(cache.prefetch(prefetchReq(0)),
              PrefetchOutcome::kDroppedPending);
    cache.fill(0);
    EXPECT_EQ(cache.prefetch(prefetchReq(0)), PrefetchOutcome::kDroppedHit);
    EXPECT_EQ(cache.prefetch(prefetchReq(128)), PrefetchOutcome::kIssued);
    EXPECT_EQ(cache.stats().prefetchesAccepted, 1u);
}

TEST(Cache, PrefetchDroppedWhenMshrsFull)
{
    Cache cache("t", tinyConfig());
    for (Addr line = 0; line < 4; ++line)
        cache.access(read(line * 128));
    EXPECT_EQ(cache.prefetch(prefetchReq(4 * 128)),
              PrefetchOutcome::kDroppedMshrFull);
}

TEST(Cache, UsefulPrefetchCountedOnFirstDemandHit)
{
    Cache cache("t", tinyConfig());
    cache.prefetch(prefetchReq(0));
    const auto fill = cache.fill(0);
    EXPECT_TRUE(fill.prefetchOnly);
    EXPECT_EQ(cache.stats().prefetchFills, 1u);
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kHit);
    EXPECT_EQ(cache.stats().usefulPrefetches, 1u);
    // Second hit must not double count.
    cache.access(read(0));
    EXPECT_EQ(cache.stats().usefulPrefetches, 1u);
}

TEST(Cache, DemandMergedIntoPrefetchCounted)
{
    Cache cache("t", tinyConfig());
    cache.prefetch(prefetchReq(0));
    EXPECT_EQ(cache.access(read(0)), AccessOutcome::kMergedMshr);
    EXPECT_EQ(cache.stats().demandMergedIntoPrefetch, 1u);
    const auto fill = cache.fill(0);
    EXPECT_FALSE(fill.prefetchOnly); // demand joined the fetch
    EXPECT_EQ(fill.waiters.size(), 1u);
}

TEST(Cache, EarlyEvictionDetection)
{
    Cache cache("t", tinyConfig());
    // Prefetch line 0 into set 0 and fill it.
    cache.prefetch(prefetchReq(0));
    cache.fill(0);
    // Push 8 demand lines through set 0 to evict the prefetched line
    // before any demand touched it.
    for (int i = 1; i <= 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line));
        cache.fill(line);
    }
    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(cache.stats().uselessPrefetchEvictions, 1u);
    // The demand for line 0 arrives late: the prefetch was correct but
    // evicted early.
    cache.access(read(0));
    EXPECT_EQ(cache.stats().earlyEvictions, 1u);
    EXPECT_EQ(cache.stats().uselessPrefetchEvictions, 0u);
    EXPECT_GT(cache.stats().earlyEvictionRatio(), 0.0);
}

TEST(Cache, CorrectPrefetchAccounting)
{
    CacheStats stats;
    stats.usefulPrefetches = 3;
    stats.demandMergedIntoPrefetch = 2;
    stats.earlyEvictions = 1;
    EXPECT_EQ(stats.correctPrefetches(), 6u);
    EXPECT_DOUBLE_EQ(stats.earlyEvictionRatio(), 1.0 / 6.0);
}

TEST(Cache, StoreWriteThroughNoAllocate)
{
    Cache cache("t", tinyConfig());
    MemRequest store;
    store.lineAddr = 0;
    store.isWrite = true;
    EXPECT_FALSE(cache.storeAccess(store));
    EXPECT_FALSE(cache.contains(0));
    // After the line is resident, stores hit and refresh it.
    cache.access(read(0));
    cache.fill(0);
    EXPECT_TRUE(cache.storeAccess(store));
    EXPECT_EQ(cache.stats().storeHits, 1u);
}

TEST(Cache, EvictionListenerReceivesToucherMask)
{
    Cache cache("t", tinyConfig());
    Addr evicted = kInvalidAddr;
    WarpMask mask;
    cache.setEvictionListener([&](Addr line, const WarpMask& m) {
        evicted = line;
        mask = m;
    });
    cache.access(read(0, 3));
    cache.fill(0);
    cache.access(read(0, 5)); // hit adds warp 5 to the toucher mask
    for (int i = 1; i <= 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line, 0));
        cache.fill(line);
    }
    EXPECT_EQ(evicted, 0u);
    EXPECT_EQ(mask, WarpMask::ofWord((1ull << 3) | (1ull << 5)));
}

TEST(Cache, ToucherMaskTracksWarpsBeyond64)
{
    // The per-line toucher mask used to be a raw uint64 that silently
    // dropped warps 64+; the WarpMask migration must deliver them to
    // the eviction listener (CCWS victim-tag feeding on wide SMs).
    Cache cache("t", tinyConfig());
    WarpMask mask;
    cache.setEvictionListener(
        [&](Addr, const WarpMask& m) { mask = m; });
    cache.access(read(0, 3));
    cache.fill(0);
    cache.access(read(0, 100)); // warp 100 touches the resident line
    for (int i = 1; i <= 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line, 0));
        cache.fill(line);
    }
    EXPECT_TRUE(mask.test(3));
    EXPECT_TRUE(mask.test(100));
    EXPECT_EQ(mask.count(), 2);
}

TEST(Cache, SetHashSpreadsAlignedStrides)
{
    CacheConfig plain = tinyConfig();
    CacheConfig hashed = tinyConfig();
    hashed.hashSetIndex = true;
    Cache cache_plain("p", plain);
    Cache cache_hashed("h", hashed);
    // 16 lines exactly one set-period apart: all land in set 0 without
    // hashing and thrash its 8 ways.
    const Addr period = 2 * 128;
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 16; ++i) {
            const Addr line = static_cast<Addr>(i) * period;
            if (cache_plain.access(read(line)) != AccessOutcome::kHit)
                cache_plain.fill(line);
            if (cache_hashed.access(read(line)) != AccessOutcome::kHit)
                cache_hashed.fill(line);
        }
    }
    // The hashed cache holds all 16 lines (capacity 16): round 2 hits.
    EXPECT_GT(cache_hashed.stats().demandHits,
              cache_plain.stats().demandHits);
}

TEST(Cache, StatsSumOperator)
{
    CacheStats a;
    a.demandAccesses = 10;
    a.demandHits = 4;
    CacheStats b;
    b.demandAccesses = 5;
    b.demandHits = 1;
    a += b;
    EXPECT_EQ(a.demandAccesses, 15u);
    EXPECT_EQ(a.demandHits, 5u);
}

TEST(Cache, FifoIgnoresHitRecency)
{
    CacheConfig cfg = tinyConfig();
    cfg.replacement = ReplacementPolicy::kFifo;
    Cache cache("t", cfg);
    // Fill all 8 ways of set 0 (lines i * 256).
    for (int i = 0; i < 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line));
        cache.fill(line);
    }
    // Touch line 0 repeatedly: under FIFO this must NOT protect it.
    cache.access(read(0));
    cache.access(read(0));
    const Addr newcomer = 8 * 2 * 128;
    cache.access(read(newcomer));
    cache.fill(newcomer);
    EXPECT_FALSE(cache.contains(0)); // oldest fill evicted despite hits
    EXPECT_TRUE(cache.contains(256));
}

TEST(Cache, RandomReplacementIsDeterministic)
{
    CacheConfig cfg = tinyConfig();
    cfg.replacement = ReplacementPolicy::kRandom;
    const auto run = [&cfg] {
        Cache cache("t", cfg);
        std::uint64_t hits = 0;
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < 12; ++i) {
                const Addr line = static_cast<Addr>(i) * 2 * 128;
                if (cache.access(read(line)) == AccessOutcome::kHit)
                    ++hits;
                else
                    cache.fill(line);
            }
        }
        return hits;
    };
    EXPECT_EQ(run(), run());
}

TEST(Cache, RandomPrefersInvalidWays)
{
    CacheConfig cfg = tinyConfig();
    cfg.replacement = ReplacementPolicy::kRandom;
    Cache cache("t", cfg);
    // With free ways available, fills never evict.
    for (int i = 0; i < 8; ++i) {
        const Addr line = static_cast<Addr>(i) * 2 * 128;
        cache.access(read(line));
        cache.fill(line);
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cache.contains(static_cast<Addr>(i) * 2 * 128));
}

TEST(Cache, StorageGrowsWithFilledSetsOnly)
{
    CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024 * 1024; // 32,768 sets x 8 ways x 128 B
    cfg.hashSetIndex = false;         // line i maps to set i
    Cache cache("big", cfg);
    EXPECT_EQ(cache.filledSets(), 0u);

    // Probes of never-filled sets miss and give them no storage.
    MemRequest store = read(3 * 128);
    store.isWrite = true;
    EXPECT_EQ(cache.access(read(1 * 128)), AccessOutcome::kMiss);
    EXPECT_EQ(cache.prefetch(prefetchReq(2 * 128)),
              PrefetchOutcome::kIssued);
    EXPECT_FALSE(cache.storeAccess(store));
    EXPECT_FALSE(cache.contains(4 * 128));
    EXPECT_FALSE(cache.isPending(4 * 128));
    EXPECT_EQ(cache.filledSets(), 0u);

    // One set of storage per distinct set filled, spread across the
    // whole index.
    constexpr Addr kSetSpan = 32768 * 128; // next line of the same set
    const std::vector<Addr> sets = {1, 2, 0, 4095, 20000, 32767};
    for (const Addr set : sets)
        cache.fill(set * 128);
    EXPECT_EQ(cache.filledSets(), sets.size());

    // Filling one set past its 8 ways evicts instead of growing.
    for (Addr i = 1; i <= 12; ++i)
        cache.fill(4095 * 128 + i * kSetSpan);
    EXPECT_EQ(cache.filledSets(), sets.size());
    EXPECT_EQ(cache.stats().evictions, 5u);
    EXPECT_TRUE(cache.contains(4095 * 128 + 12 * kSetSpan));
    EXPECT_EQ(cache.auditTags(), "");
}

TEST(Cache, MissRateComputation)
{
    Cache cache("t", tinyConfig());
    cache.access(read(0));
    cache.fill(0);
    cache.access(read(0));
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 0.5);
}

} // namespace
} // namespace apres
