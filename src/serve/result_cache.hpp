/**
 * @file
 * Two-tier content-addressed result cache with bounded, crash-safe
 * persistence.
 *
 * Tier 1 is an in-process map (hot keys answer without touching the
 * filesystem); tier 2 is a directory of "<key>.json" files that
 * survives daemon restarts, so many clients sweeping overlapping
 * design spaces share one warm cache across sessions. Keys are
 * content hashes (protocol.hpp documents their anatomy), values are
 * the canonical serialized RunResult documents — the cache returns
 * the stored bytes verbatim, which is what makes repeated requests
 * bitwise-identical to the run that produced them.
 *
 * Both tiers are bounded, and the disk tier is self-repairing:
 *
 *  - Size/entry caps (CacheLimits) with LRU eviction, per tier. The
 *    memory tier never holds more than the caps, whatever the disk
 *    mode, and an entry evicted from disk also leaves memory — so the
 *    caps bound the daemon's memory, not only its directory. Disk
 *    recency lives in an access-order journal ("journal.lru", one key
 *    per line, oldest first) persisted with the same atomic
 *    temp+rename discipline as the entries, so eviction order
 *    survives restarts.
 *  - A startup scrub walks the directory before serving: orphaned
 *    temp files from a crashed writer are deleted, zero-length and
 *    truncated/corrupt entries are repaired away, and every repair is
 *    counted in stats (scrubOrphanTmps / scrubCorruptEntries).
 *  - Entry writes go through open/write/fsync/rename with every
 *    failure counted (writeFailures / fsyncFailures / renameFailures)
 *    instead of silently losing the entry — the payload always stays
 *    served from the memory tier.
 *  - Resource exhaustion degrades instead of failing requests: the
 *    first ENOSPC/EIO on the write path drops the disk tier to
 *    read-only (existing entries still serve, nothing new persists);
 *    an EIO on the read path drops it to memory-only. The ladder is
 *    one-way per process and counted in stats.degradations.
 *
 * Caching is sound because a simulation is a pure function of its
 * semantic configuration (bitwise determinism pinned by the
 * ff-equivalence and sweep-determinism suites), and stale entries
 * cannot leak across code changes because every key embeds the
 * stats-schema fingerprint.
 *
 * Thread safety: all operations are serialized by one internal mutex;
 * the payloads are immutable once stored.
 */

#ifndef APRES_SERVE_RESULT_CACHE_HPP
#define APRES_SERVE_RESULT_CACHE_HPP

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace apres {

/** Per-tier bounds, enforced by LRU eviction; 0 means unlimited. */
struct CacheLimits
{
    std::uint64_t maxBytes = 0;   ///< total payload bytes in a tier
    std::uint64_t maxEntries = 0; ///< number of entries in a tier
};

/**
 * The degradation ladder, in order. Transitions are one-way: a cache
 * never silently re-arms a tier the environment just proved broken.
 */
enum class CacheDiskMode {
    kReadWrite,  ///< normal: disk tier reads and persists
    kReadOnly,   ///< write path failed (ENOSPC/EIO): serve, don't store
    kMemoryOnly, ///< read path failed (EIO) or no directory configured
};

/** Stable lowercase name ("readWrite", "readOnly", "memoryOnly"). */
const char* cacheDiskModeName(CacheDiskMode mode);

/** Hit/miss counters (one snapshot; monotonically growing). */
struct ResultCacheStats
{
    std::uint64_t memoryHits = 0;
    std::uint64_t diskHits = 0;  ///< found on disk, promoted to memory
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t invalidDiskEntries = 0; ///< corrupt files discarded

    std::uint64_t evictions = 0;     ///< disk entries evicted by caps
    std::uint64_t evictedBytes = 0;  ///< payload bytes reclaimed

    std::uint64_t writeFailures = 0;  ///< open/write/close failures
    std::uint64_t fsyncFailures = 0;  ///< fsync failures before publish
    std::uint64_t renameFailures = 0; ///< atomic-publish rename failures

    std::uint64_t scrubOrphanTmps = 0;     ///< startup: temp files removed
    std::uint64_t scrubCorruptEntries = 0; ///< startup: bad entries removed

    std::uint64_t degradations = 0;          ///< ladder transitions taken
    std::uint64_t storesSkippedDegraded = 0; ///< stores not persisted

    std::uint64_t hits() const { return memoryHits + diskHits; }
};

class ResultCache
{
  public:
    /**
     * @param disk_dir  directory for the persistent tier (created on
     *                  demand); empty string keeps the cache
     *                  memory-only.
     * @param limits    caps on each tier; enforced by LRU eviction.
     * Throws SimError(kConfig) when the directory cannot be created.
     * Construction scrubs the directory (see the file comment).
     */
    explicit ResultCache(std::string disk_dir = "",
                         CacheLimits limits = {});

    /** Persists the access journal when it has unsaved recency. */
    ~ResultCache();

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /**
     * Fetch the payload stored under @p key, consulting memory first,
     * then disk (a disk hit is promoted into memory). A disk entry
     * that fails JSON validation is deleted and counted as
     * invalidDiskEntries, then reported as a miss — a corrupt file
     * must never be spliced into a response. An I/O error reading the
     * disk tier degrades it to memory-only and reports a miss.
     */
    std::optional<std::string> lookup(const std::string& key);

    /**
     * Store @p payload (a complete JSON document) under @p key in
     * both tiers. The disk write is atomic and durable (temp file +
     * fsync + rename), so a crashed daemon never leaves a half-written
     * entry behind; write-path failures are counted and — on
     * ENOSPC/EIO — degrade the disk tier to read-only.
     */
    void store(const std::string& key, const std::string& payload);

    ResultCacheStats stats() const;

    /** Entries currently resident in the memory tier. */
    std::size_t memoryEntries() const;

    /** Entries currently accounted on disk. */
    std::size_t diskEntries() const;

    /** Payload bytes currently accounted on disk. */
    std::uint64_t diskBytes() const;

    /** Current rung of the degradation ladder. */
    CacheDiskMode diskMode() const;

  private:
    std::string diskPath(const std::string& key) const;
    std::string journalPath() const;

    /** Startup: repair the directory and rebuild the LRU index. */
    void scrubLocked();

    /** Insert @p payload into the memory tier and evict to fit. */
    void rememberLocked(const std::string& key, const std::string& payload);

    /** Drop @p key from the memory tier, if resident. */
    void forgetMemoryLocked(const std::string& key);

    /** Evict oldest disk entries until the caps are satisfied. */
    void evictToFitLocked();

    /** Atomically rewrite the access journal when dirty. */
    void persistJournalLocked();

    /** open/write/fsync/rename one entry; false on any failure. */
    bool writeDiskEntryLocked(const std::string& key,
                              const std::string& payload);

    /** Take the ladder down to @p target (one-way; counted). */
    void degradeLocked(CacheDiskMode target, int err, const char* op);

    /**
     * One tier's keys in access order (oldest first) with their
     * payload sizes: what LRU eviction against the caps needs.
     */
    class Recency
    {
      public:
        /** Make @p key the newest entry, inserting it if new. */
        void touch(const std::string& key, std::uint64_t bytes);

        /** Make @p key the newest entry; false when absent. */
        bool refresh(const std::string& key);

        /** Insert @p key (absent) as the oldest entry. */
        void pushOldest(const std::string& key, std::uint64_t bytes);

        /** Drop @p key. @return its bytes; 0 when absent. */
        std::uint64_t forget(const std::string& key);

        /** Is the entry count or byte total over a cap? */
        bool over(const CacheLimits& limits) const;

        const std::string& oldest() const { return order_.front(); }
        std::size_t size() const { return index_.size(); }
        std::uint64_t bytes() const { return bytes_; }
        const std::list<std::string>& order() const { return order_; }

      private:
        struct Slot
        {
            std::list<std::string>::iterator it;
            std::uint64_t bytes = 0;
        };
        std::list<std::string> order_;
        std::unordered_map<std::string, Slot> index_;
        std::uint64_t bytes_ = 0;
    };

    const std::string diskDir_; ///< empty = memory-only
    const CacheLimits limits_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::string> memory_;
    Recency memoryRecency_;
    ResultCacheStats stats_;

    CacheDiskMode mode_ = CacheDiskMode::kReadWrite;

    Recency disk_;
    bool journalDirty_ = false;
};

} // namespace apres

#endif // APRES_SERVE_RESULT_CACHE_HPP
