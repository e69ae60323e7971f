/**
 * @file
 * Set-associative cache model with MSHR merging and prefetch
 * bookkeeping.
 *
 * The cache is *functional*: it answers hit/miss/merge immediately and
 * leaves all timing to the caller (LSU for L1, MemorySystem for L2).
 * It implements everything the paper's evaluation measures:
 *
 *  - miss taxonomy (cold vs capacity+conflict, Section III-A: a miss
 *    on a line that was previously resident counts as
 *    capacity+conflict),
 *  - hit-after-hit / hit-after-miss split (Section V-C),
 *  - MSHR merging of demand requests into outstanding (possibly
 *    prefetch-initiated) misses,
 *  - prefetch usefulness: useful (demand touched the prefetched line),
 *    merged-late (demand merged into the prefetch MSHR), early-evicted
 *    (correctly predicted line evicted before its demand arrived,
 *    Section III-C), and useless.
 *
 * Hot-path layout: a set owns storage only once a fill lands in it. A
 * per-set slot index (kNoSlot until the first fill) points into tag
 * and payload pools that grow by one set (`ways` entries) at a time,
 * so host memory follows the sets a run fills, not the modelled
 * capacity. Inside a slot the tags are a structure-of-arrays run
 * (kInvalidAddr = invalid way), so findIdx() probes one contiguous
 * 64-byte run of tags per set instead of striding through the fat
 * per-line payload structs; MSHRs and the miss-taxonomy residency
 * sets are open-addressing tables (mem/addr_table.hpp) instead of
 * node-based std hashes.
 */

#ifndef APRES_MEM_CACHE_HPP
#define APRES_MEM_CACHE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/warp_mask.hpp"
#include "mem/addr_table.hpp"
#include "mem/request.hpp"

namespace apres {

class MetricsRegistry;

/** Victim selection policy. */
enum class ReplacementPolicy {
    kLru,    ///< least-recently-used (the default; GPU L1s approximate it)
    kFifo,   ///< oldest fill evicted first (hits do not refresh)
    kRandom, ///< deterministic pseudo-random way selection
};

/** Geometry and MSHR capacity of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024; ///< total capacity
    std::uint32_t ways = 8;              ///< associativity
    std::uint32_t lineSize = 128;        ///< line size in bytes
    std::uint32_t numMshrs = 64;         ///< outstanding-miss entries
    std::uint32_t maxMergesPerMshr = 16; ///< merged requests per entry
    /** Victim selection policy. */
    ReplacementPolicy replacement = ReplacementPolicy::kLru;

    /**
     * XOR-fold upper line-address bits into the set index. GPUs
     * swizzle cache indexing to spread the power-of-two strides GPU
     * kernels love (row pitches, warp-count multiples) across sets;
     * without it such strides collapse onto one set and thrash its 8
     * ways no matter how the warps are scheduled.
     */
    bool hashSetIndex = true;
};

/** Result of a demand read access. */
enum class AccessOutcome {
    kHit,       ///< data present
    kMiss,      ///< MSHR allocated; caller must fetch from below
    kMergedMshr,///< merged into an outstanding miss; no new fetch
    kMshrFull,  ///< no MSHR available; caller must retry later
};

/** Result of a prefetch probe. */
enum class PrefetchOutcome {
    kIssued,         ///< MSHR allocated; caller must fetch from below
    kDroppedHit,     ///< line already resident
    kDroppedPending, ///< line already being fetched
    kDroppedMshrFull,///< no MSHR available; prefetch abandoned
};

/** Aggregate counters maintained by the cache. */
struct CacheStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;       ///< incl. merged misses
    std::uint64_t hitAfterHit = 0;
    std::uint64_t hitAfterMiss = 0;
    std::uint64_t coldMisses = 0;
    std::uint64_t capacityConflictMisses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t mshrFullEvents = 0;

    std::uint64_t storeAccesses = 0;
    std::uint64_t storeHits = 0;

    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;

    std::uint64_t prefetchesAccepted = 0;
    std::uint64_t prefetchDropHit = 0;
    std::uint64_t prefetchDropPending = 0;
    std::uint64_t prefetchDropMshrFull = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t usefulPrefetches = 0;       ///< demand hit a prefetched line
    std::uint64_t demandMergedIntoPrefetch = 0; ///< late but covered
    std::uint64_t earlyEvictions = 0;         ///< correct prefetch evicted first
    std::uint64_t uselessPrefetchEvictions = 0;

    /** Sum another stat block into this one (per-SM aggregation). */
    CacheStats& operator+=(const CacheStats& other);

    /** Demand miss ratio over demand accesses. */
    double missRate() const;

    /** Correctly predicted prefetches (paper's Fig. 4 denominator). */
    std::uint64_t correctPrefetches() const;

    /** Early evictions over correct prefetches (Fig. 4 / Fig. 12). */
    double earlyEvictionRatio() const;
};

/**
 * The cache model. One instance per L1 (per SM) and one per L2
 * partition.
 */
class Cache
{
  public:
    /** Outcome of a fill: who was waiting on the line. */
    struct FillResult
    {
        /** Demand requests merged while the line was in flight. */
        std::vector<MemRequest> waiters;
        /** True when only a prefetch requested the line. */
        bool prefetchOnly = false;
    };

    /** @param name used in stat dumps; @param config geometry. */
    Cache(std::string name, const CacheConfig& config);

    /**
     * Demand read access.
     *
     * On kMiss the caller owns fetching the line from the next level
     * and calling fill() on arrival. On kMergedMshr the request was
     * appended to the outstanding entry and completes with that fill.
     */
    AccessOutcome access(const MemRequest& req);

    /**
     * Prefetch probe. On kIssued the caller fetches the line and calls
     * fill() on arrival; every other outcome drops the prefetch.
     */
    PrefetchOutcome prefetch(const MemRequest& req);

    /**
     * Write-through, no-allocate store access.
     * @return true when the store hit (line updated in place).
     */
    bool storeAccess(const MemRequest& req);

    /**
     * Deliver a line from the next level: releases the MSHR, inserts
     * the line (evicting the LRU victim) and returns the waiters.
     */
    FillResult fill(Addr line_addr);

    /** True when the line is resident. */
    bool contains(Addr line_addr) const;

    /** True when the line has an outstanding MSHR entry. */
    bool isPending(Addr line_addr) const;

    /** Number of MSHR entries currently allocated. */
    std::size_t mshrsInUse() const { return mshrs.size(); }

    /** True when every MSHR entry is allocated. */
    bool mshrsFull() const { return mshrs.size() >= cfg.numMshrs; }

    /**
     * Observer invoked on every eviction with the victim's line
     * address and the mask of warps (bit w = warp w) that touched the
     * line while resident. CCWS feeds its victim tag arrays from this
     * (lost intra-warp locality detection).
     */
    using EvictionListener = std::function<void(Addr, const WarpMask&)>;

    /** Install (or clear, with nullptr) the eviction observer. */
    void setEvictionListener(EvictionListener listener);

    /**
     * Install a metrics sink (null = off). The cache samples prefetch
     * timeliness — cycles between a prefetch's issue and the first
     * demand touching its line (on residency hit or MSHR merge); pure
     * observation, no outcome changes.
     */
    void setMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

    /** Statistic counters. */
    const CacheStats& stats() const { return stats_; }

    /** Configured geometry. */
    const CacheConfig& config() const { return cfg; }

    /** Name given at construction. */
    const std::string& name() const { return name_; }

    /** Sets that own tag and payload storage (one per set ever filled). */
    std::size_t filledSets() const { return tags_.size() / cfg.ways; }

    /**
     * Audit the slot index and the filled sets' tags: every filled set
     * owns a distinct, in-range slot, the pools hold exactly filled
     * sets x ways entries, every valid tag indexes to its set, a set
     * holds no duplicate tags, and a resident line has no outstanding
     * MSHR entry.
     * @return "" when consistent, else a description of the violation.
     */
    std::string auditTags() const;

    /**
     * TEST HOOK: overwrite the tag of (@p set, @p way) with @p tag,
     * giving the set storage first if it has none, bypassing every
     * fill/evict invariant, so hardening tests can watch the auditor
     * flag the corruption (SimError kInvariant).
     */
    void corruptTagForTest(std::uint32_t set, std::uint32_t way, Addr tag);

    /** TEST HOOK: point @p set's slot index entry at @p slot. */
    void corruptSlotForTest(std::uint32_t set, std::uint32_t slot);

  private:
    /** Per-line payload; the tag itself lives in tags_ (SoA). */
    struct Line
    {
        bool prefetched = false;
        bool demandTouched = false;
        std::uint64_t lastUse = 0;
        WarpMask toucherMask;       ///< warps that touched the line
        Cycle prefetchIssuedAt = 0; ///< issue cycle when prefetched
    };

    struct MshrEntry
    {
        bool prefetchOnly = false;
        Cycle prefetchIssuedAt = 0; ///< issue cycle when prefetch-born
        std::vector<MemRequest> waiters;
    };

    /** "No such line" result of findIdx. */
    static constexpr std::size_t kNoIdx = ~static_cast<std::size_t>(0);
    /** Slot index entry of a set that was never filled. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    std::uint32_t setIndex(Addr line_addr) const;
    std::size_t findIdx(Addr line_addr) const;
    /** Pool index of @p set's way 0; gives the set storage if it has none. */
    std::size_t slotBase(std::uint32_t set);
    std::size_t victimIdx(std::uint32_t set);
    void recordDemandHit(std::size_t idx, const MemRequest& req);
    void classifyMiss(Addr line_addr);
    void evict(std::size_t idx);

    std::string name_;
    CacheConfig cfg;
    std::uint32_t sets_;
    std::vector<std::uint32_t> setSlot_; // sets_ entries; kNoSlot = unfilled
    std::vector<Addr> tags_;  // filled sets * ways, SoA; kInvalidAddr = invalid
    std::vector<Line> lines;  // filled sets * ways, row-major payloads
    AddrMap<MshrEntry> mshrs;
    AddrSet everResident;       // for cold-miss taxonomy
    AddrSet earlyEvictedLines;  // prefetched, never touched
    std::uint64_t useClock = 0;
    std::uint64_t randomState = 0x243F6A8885A308D3ull; // deterministic
    bool lastDemandWasHit = false;
    EvictionListener evictionListener;
    MetricsRegistry* metrics_ = nullptr;
    CacheStats stats_;
};

} // namespace apres

#endif // APRES_MEM_CACHE_HPP
