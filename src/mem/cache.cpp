/**
 * @file
 * Cache model implementation.
 */

#include "cache.hpp"

#include <cassert>
#include <sstream>
#include <utility>

#include "common/bitutils.hpp"
#include "common/metrics.hpp"

namespace apres {

CacheStats&
CacheStats::operator+=(const CacheStats& other)
{
    demandAccesses += other.demandAccesses;
    demandHits += other.demandHits;
    demandMisses += other.demandMisses;
    hitAfterHit += other.hitAfterHit;
    hitAfterMiss += other.hitAfterMiss;
    coldMisses += other.coldMisses;
    capacityConflictMisses += other.capacityConflictMisses;
    mshrMerges += other.mshrMerges;
    mshrFullEvents += other.mshrFullEvents;
    storeAccesses += other.storeAccesses;
    storeHits += other.storeHits;
    fills += other.fills;
    evictions += other.evictions;
    prefetchesAccepted += other.prefetchesAccepted;
    prefetchDropHit += other.prefetchDropHit;
    prefetchDropPending += other.prefetchDropPending;
    prefetchDropMshrFull += other.prefetchDropMshrFull;
    prefetchFills += other.prefetchFills;
    usefulPrefetches += other.usefulPrefetches;
    demandMergedIntoPrefetch += other.demandMergedIntoPrefetch;
    earlyEvictions += other.earlyEvictions;
    uselessPrefetchEvictions += other.uselessPrefetchEvictions;
    return *this;
}

double
CacheStats::missRate() const
{
    return demandAccesses
        ? static_cast<double>(demandMisses) /
              static_cast<double>(demandAccesses)
        : 0.0;
}

std::uint64_t
CacheStats::correctPrefetches() const
{
    return usefulPrefetches + demandMergedIntoPrefetch + earlyEvictions;
}

double
CacheStats::earlyEvictionRatio() const
{
    const std::uint64_t correct = correctPrefetches();
    return correct ? static_cast<double>(earlyEvictions) /
                         static_cast<double>(correct)
                   : 0.0;
}

Cache::Cache(std::string name, const CacheConfig& config)
    : name_(std::move(name)), cfg(config)
{
    assert(isPowerOfTwo(cfg.lineSize));
    assert(cfg.ways >= 1);
    assert(cfg.sizeBytes >= static_cast<std::uint64_t>(cfg.lineSize) * cfg.ways);
    sets_ = static_cast<std::uint32_t>(cfg.sizeBytes /
                                       (static_cast<std::uint64_t>(cfg.lineSize)
                                        * cfg.ways));
    assert(isPowerOfTwo(sets_) && "sets must be a power of two");
    setSlot_.assign(sets_, kNoSlot);
    // The MSHR file is bounded by numMshrs: preallocate so no
    // simulation-path insert ever rehashes.
    mshrs.reserve(cfg.numMshrs);
}

std::uint32_t
Cache::setIndex(Addr line_addr) const
{
    std::uint64_t line = line_addr / cfg.lineSize;
    if (cfg.hashSetIndex) {
        const unsigned shift = log2Exact(sets_);
        // Fold three higher bit-groups onto the index bits.
        line ^= (line >> shift) ^ (line >> (2 * shift)) ^
            (line >> (3 * shift));
    }
    return static_cast<std::uint32_t>(line % sets_);
}

std::size_t
Cache::findIdx(Addr line_addr) const
{
    const std::uint32_t slot = setSlot_[setIndex(line_addr)];
    if (slot == kNoSlot)
        return kNoIdx; // never filled: nothing resident, nothing to touch
    const std::size_t base = static_cast<std::size_t>(slot) * cfg.ways;
    // One contiguous run of 8-byte tags: a whole 8-way set is a single
    // 64-byte cache line of the host.
    const Addr* tags = &tags_[base];
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (tags[w] == line_addr)
            return base + w;
    }
    return kNoIdx;
}

std::size_t
Cache::slotBase(std::uint32_t set)
{
    std::uint32_t& slot = setSlot_[set];
    if (slot == kNoSlot) {
        // First fill of this set: append `ways` invalid entries.
        slot = static_cast<std::uint32_t>(filledSets());
        tags_.resize(tags_.size() + cfg.ways, kInvalidAddr);
        lines.resize(lines.size() + cfg.ways);
    }
    return static_cast<std::size_t>(slot) * cfg.ways;
}

std::size_t
Cache::victimIdx(std::uint32_t set)
{
    const std::size_t base = slotBase(set);
    // Invalid ways are always preferred, for every policy (a newly
    // filled set's are all invalid, so its first fill takes way 0).
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (tags_[base + w] == kInvalidAddr)
            return base + w;
    }
    if (cfg.replacement == ReplacementPolicy::kRandom) {
        // xorshift64: deterministic, seeded per cache.
        randomState ^= randomState << 13;
        randomState ^= randomState >> 7;
        randomState ^= randomState << 17;
        return base + randomState % cfg.ways;
    }
    // kLru and kFifo both evict the smallest timestamp; they differ in
    // whether hits refresh it (see recordDemandHit / fill).
    std::size_t victim = base;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (lines[base + w].lastUse < lines[victim].lastUse)
            victim = base + w;
    }
    return victim;
}

void
Cache::recordDemandHit(std::size_t idx, const MemRequest& req)
{
    Line& line = lines[idx];
    ++stats_.demandHits;
    if (lastDemandWasHit)
        ++stats_.hitAfterHit;
    else
        ++stats_.hitAfterMiss;
    lastDemandWasHit = true;
    if (cfg.replacement != ReplacementPolicy::kFifo)
        line.lastUse = ++useClock;
    line.toucherMask.set(req.warp);
    if (line.prefetched && !line.demandTouched) {
        ++stats_.usefulPrefetches;
        // Timeliness: the prefetch landed this many cycles before its
        // first demand consumer (req.issued = demand access cycle).
        if (metrics_ && req.issued >= line.prefetchIssuedAt) {
            metrics_->prefetchTimeliness.add(req.issued -
                                             line.prefetchIssuedAt);
        }
    }
    line.demandTouched = true;
}

void
Cache::classifyMiss(Addr line_addr)
{
    if (everResident.contains(line_addr))
        ++stats_.capacityConflictMisses;
    else
        ++stats_.coldMisses;
    // A correctly predicted prefetch whose line was evicted before the
    // demand arrived: the paper's "early eviction" (Section III-C).
    if (earlyEvictedLines.erase(line_addr)) {
        ++stats_.earlyEvictions;
        // Reclassify: the eviction was provisionally counted useless.
        --stats_.uselessPrefetchEvictions;
    }
}

void
Cache::evict(std::size_t idx)
{
    if (tags_[idx] == kInvalidAddr)
        return;
    Line& line = lines[idx];
    ++stats_.evictions;
    if (line.prefetched && !line.demandTouched) {
        // Provisionally useless; reclassified as an early eviction if
        // a demand miss for this line shows up later.
        ++stats_.uselessPrefetchEvictions;
        earlyEvictedLines.insert(tags_[idx]);
    }
    if (evictionListener)
        evictionListener(tags_[idx], line.toucherMask);
    tags_[idx] = kInvalidAddr;
}

void
Cache::setEvictionListener(EvictionListener listener)
{
    evictionListener = std::move(listener);
}

AccessOutcome
Cache::access(const MemRequest& req)
{
    assert(!req.isWrite && !req.isPrefetch);
    ++stats_.demandAccesses;

    const std::size_t idx = findIdx(req.lineAddr);
    if (idx != kNoIdx) {
        recordDemandHit(idx, req);
        return AccessOutcome::kHit;
    }

    // Outstanding miss for the same line: merge.
    if (MshrEntry* entry = mshrs.find(req.lineAddr)) {
        if (entry->waiters.size() >= cfg.maxMergesPerMshr) {
            ++stats_.mshrFullEvents;
            --stats_.demandAccesses; // the access will be replayed
            return AccessOutcome::kMshrFull;
        }
        ++stats_.demandMisses;
        lastDemandWasHit = false;
        classifyMiss(req.lineAddr);
        ++stats_.mshrMerges;
        if (entry->prefetchOnly) {
            ++stats_.demandMergedIntoPrefetch;
            // Merged-late coverage still has a timeliness distance:
            // demand arrived while the prefetch was in flight.
            if (metrics_ && req.issued >= entry->prefetchIssuedAt) {
                metrics_->prefetchTimeliness.add(req.issued -
                                                 entry->prefetchIssuedAt);
            }
            entry->prefetchOnly = false;
        }
        entry->waiters.push_back(req);
        return AccessOutcome::kMergedMshr;
    }

    if (mshrsFull()) {
        ++stats_.mshrFullEvents;
        --stats_.demandAccesses; // the access will be replayed
        return AccessOutcome::kMshrFull;
    }

    ++stats_.demandMisses;
    lastDemandWasHit = false;
    classifyMiss(req.lineAddr);
    MshrEntry* entry = mshrs.insert(req.lineAddr).first;
    entry->prefetchOnly = false;
    entry->waiters.push_back(req);
    return AccessOutcome::kMiss;
}

PrefetchOutcome
Cache::prefetch(const MemRequest& req)
{
    assert(req.isPrefetch);
    if (findIdx(req.lineAddr) != kNoIdx) {
        ++stats_.prefetchDropHit;
        return PrefetchOutcome::kDroppedHit;
    }
    if (mshrs.contains(req.lineAddr)) {
        ++stats_.prefetchDropPending;
        return PrefetchOutcome::kDroppedPending;
    }
    if (mshrsFull()) {
        ++stats_.prefetchDropMshrFull;
        return PrefetchOutcome::kDroppedMshrFull;
    }
    ++stats_.prefetchesAccepted;
    MshrEntry* entry = mshrs.insert(req.lineAddr).first;
    entry->prefetchOnly = true;
    entry->prefetchIssuedAt = req.issued;
    return PrefetchOutcome::kIssued;
}

bool
Cache::storeAccess(const MemRequest& req)
{
    assert(req.isWrite);
    ++stats_.storeAccesses;
    const std::size_t idx = findIdx(req.lineAddr);
    if (idx != kNoIdx) {
        // Write-through: update in place, keep resident.
        lines[idx].lastUse = ++useClock;
        lines[idx].demandTouched = true;
        ++stats_.storeHits;
        return true;
    }
    // No-allocate on store miss.
    return false;
}

Cache::FillResult
Cache::fill(Addr line_addr)
{
    FillResult result;
    Cycle pf_issued = 0;
    if (MshrEntry* entry = mshrs.find(line_addr)) {
        result.waiters = std::move(entry->waiters);
        result.prefetchOnly = entry->prefetchOnly;
        pf_issued = entry->prefetchIssuedAt;
        mshrs.erase(line_addr);
    }

    // Allocate-on-fill. The line may already be resident if a fill
    // races a previous one for the same address (possible when a line
    // was filled, evicted and re-fetched); refresh it in place then.
    const std::size_t existing = findIdx(line_addr);
    if (existing != kNoIdx) {
        lines[existing].lastUse = ++useClock;
        return result;
    }

    const std::size_t idx = victimIdx(setIndex(line_addr));
    evict(idx);

    ++stats_.fills;
    Line& victim = lines[idx];
    tags_[idx] = line_addr;
    victim.prefetched = result.prefetchOnly;
    victim.demandTouched = !result.prefetchOnly;
    victim.prefetchIssuedAt = result.prefetchOnly ? pf_issued : 0;
    victim.lastUse = ++useClock;
    victim.toucherMask.clear();
    for (const MemRequest& waiter : result.waiters)
        victim.toucherMask.set(waiter.warp);
    if (result.prefetchOnly)
        ++stats_.prefetchFills;
    everResident.insert(line_addr);
    return result;
}

bool
Cache::contains(Addr line_addr) const
{
    return findIdx(line_addr) != kNoIdx;
}

bool
Cache::isPending(Addr line_addr) const
{
    return mshrs.contains(line_addr);
}

std::string
Cache::auditTags() const
{
    std::ostringstream out;
    const std::size_t slots = filledSets();
    if (tags_.size() != slots * cfg.ways || lines.size() != tags_.size()) {
        out << name_ << ": the pools hold " << tags_.size() << " tags and "
            << lines.size() << " payloads; each must be " << cfg.ways
            << " per filled set\n";
    }
    std::vector<bool> owned(slots, false);
    std::size_t filled = 0;
    for (std::uint32_t set = 0; set < sets_; ++set) {
        const std::uint32_t slot = setSlot_[set];
        if (slot == kNoSlot)
            continue;
        ++filled;
        if (slot >= slots) {
            out << name_ << " set " << set << ": slot " << slot
                << " is outside the " << slots << " filled slots\n";
            continue;
        }
        if (owned[slot]) {
            out << name_ << " set " << set << ": slot " << slot
                << " is owned by another set\n";
            continue;
        }
        owned[slot] = true;
        const std::size_t base = static_cast<std::size_t>(slot) * cfg.ways;
        for (std::uint32_t w = 0; w < cfg.ways; ++w) {
            const Addr tag = tags_[base + w];
            if (tag == kInvalidAddr)
                continue;
            if (setIndex(tag) != set) {
                out << name_ << " set " << set << " way " << w << ": tag 0x"
                    << std::hex << tag << std::dec
                    << " indexes to set " << setIndex(tag) << "\n";
            }
            if (mshrs.contains(tag)) {
                out << name_ << " set " << set << " way " << w << ": tag 0x"
                    << std::hex << tag << std::dec
                    << " is resident and has an outstanding MSHR\n";
            }
            for (std::uint32_t v = w + 1; v < cfg.ways; ++v) {
                if (tags_[base + v] == tag) {
                    out << name_ << " set " << set << ": duplicate tag 0x"
                        << std::hex << tag << std::dec << " in ways " << w
                        << " and " << v << "\n";
                }
            }
        }
    }
    if (filled != slots) {
        out << name_ << ": " << filled << " sets are filled but the pools "
            << "hold " << slots << " sets\n";
    }
    return out.str();
}

void
Cache::corruptTagForTest(std::uint32_t set, std::uint32_t way, Addr tag)
{
    tags_[slotBase(set) + way] = tag;
}

void
Cache::corruptSlotForTest(std::uint32_t set, std::uint32_t slot)
{
    setSlot_[set] = slot;
}

} // namespace apres
