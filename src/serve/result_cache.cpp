/**
 * @file
 * Result-cache implementation: LRU-bounded memory and disk tiers, a
 * crash-safe journal, startup scrub and a one-way degradation ladder.
 */

#include "result_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json_value.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace fs = std::filesystem;

namespace {

/** Key of an entry file name ("<key>.json"), or empty. */
std::string
entryKey(const std::string& filename)
{
    const std::string suffix = ".json";
    if (filename.size() <= suffix.size() ||
        filename.compare(filename.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
        return "";
    }
    return filename.substr(0, filename.size() - suffix.size());
}

/** A non-empty, well-formed JSON document? */
bool
validPayload(const std::string& payload)
{
    if (payload.empty())
        return false;
    try {
        (void)JsonValue::parse(payload);
        return true;
    } catch (const SimError&) {
        return false;
    }
}

} // namespace

void
ResultCache::Recency::touch(const std::string& key, std::uint64_t bytes)
{
    const auto it = index_.find(key);
    if (it == index_.end()) {
        order_.push_back(key);
        index_[key] = {std::prev(order_.end()), bytes};
        bytes_ += bytes;
    } else {
        order_.splice(order_.end(), order_, it->second.it);
        bytes_ += bytes - it->second.bytes;
        it->second.bytes = bytes;
    }
}

bool
ResultCache::Recency::refresh(const std::string& key)
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    order_.splice(order_.end(), order_, it->second.it);
    return true;
}

void
ResultCache::Recency::pushOldest(const std::string& key,
                                 std::uint64_t bytes)
{
    order_.push_front(key);
    index_[key] = {order_.begin(), bytes};
    bytes_ += bytes;
}

std::uint64_t
ResultCache::Recency::forget(const std::string& key)
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return 0;
    const std::uint64_t bytes = it->second.bytes;
    bytes_ -= bytes;
    order_.erase(it->second.it);
    index_.erase(it);
    return bytes;
}

bool
ResultCache::Recency::over(const CacheLimits& limits) const
{
    return (limits.maxBytes != 0 && bytes_ > limits.maxBytes) ||
           (limits.maxEntries != 0 && index_.size() > limits.maxEntries);
}

const char*
cacheDiskModeName(CacheDiskMode mode)
{
    switch (mode) {
      case CacheDiskMode::kReadWrite: return "readWrite";
      case CacheDiskMode::kReadOnly: return "readOnly";
      case CacheDiskMode::kMemoryOnly: return "memoryOnly";
    }
    return "unknown";
}

ResultCache::ResultCache(std::string disk_dir, CacheLimits limits)
    : diskDir_(std::move(disk_dir)), limits_(limits)
{
    if (diskDir_.empty()) {
        mode_ = CacheDiskMode::kMemoryOnly;
        return;
    }
    std::error_code ec;
    fs::create_directories(diskDir_, ec);
    if (ec) {
        throwConfigError("result cache: cannot create directory \"" +
                         diskDir_ + "\": " + ec.message());
    }
    const std::lock_guard<std::mutex> lock(mu_);
    scrubLocked();
}

ResultCache::~ResultCache()
{
    const std::lock_guard<std::mutex> lock(mu_);
    if (mode_ == CacheDiskMode::kReadWrite)
        persistJournalLocked();
}

std::string
ResultCache::diskPath(const std::string& key) const
{
    return diskDir_ + "/" + key + ".json";
}

std::string
ResultCache::journalPath() const
{
    return diskDir_ + "/journal.lru";
}

void
ResultCache::scrubLocked()
{
    // Pass 1: walk the directory. Crashed writers leave "*.tmp.*"
    // files (the rename never happened) and possibly nothing else;
    // torn filesystems leave zero-length or truncated entries. All of
    // them are repaired away here, before anything can be served.
    std::vector<std::pair<fs::file_time_type, std::string>> unjournaled;
    std::unordered_map<std::string, std::uint64_t> found;
    std::error_code ec;
    for (const auto& dirent : fs::directory_iterator(diskDir_, ec)) {
        if (!dirent.is_regular_file())
            continue;
        const std::string name = dirent.path().filename().string();
        if (name == "journal.lru" || name == "journal.lru.tmp")
            continue;
        if (name.find(".tmp.") != std::string::npos) {
            std::error_code rm;
            fs::remove(dirent.path(), rm);
            ++stats_.scrubOrphanTmps;
            logWarn("result cache: scrub removed orphan temp file ",
                    name);
            continue;
        }
        const std::string key = entryKey(name);
        if (key.empty())
            continue; // not ours; leave unknown files alone
        std::string payload;
        {
            std::ifstream in(dirent.path(), std::ios::binary);
            std::ostringstream buf;
            buf << in.rdbuf();
            payload = buf.str();
        }
        if (!validPayload(payload)) {
            std::error_code rm;
            fs::remove(dirent.path(), rm);
            ++stats_.scrubCorruptEntries;
            // invalidDiskEntries is the total-corruption counter no
            // matter who discovered the entry (scrub or lookup).
            ++stats_.invalidDiskEntries;
            logWarn("result cache: scrub removed corrupt entry ", key);
            continue;
        }
        found.emplace(key, payload.size());
        unjournaled.emplace_back(dirent.last_write_time(ec), key);
    }
    if (ec) {
        logWarn("result cache: scrub could not walk ", diskDir_, ": ",
                ec.message());
    }

    // Pass 2: rebuild recency. Journaled keys keep their recorded
    // order; survivors the journal never saw (a crash before the
    // journal write, or another process's entries) are appended
    // oldest-first by mtime so they evict before journaled entries of
    // the same age class.
    std::unordered_map<std::string, bool> journaled;
    {
        std::ifstream journal(journalPath());
        std::string line;
        while (std::getline(journal, line)) {
            if (line.empty() || journaled.count(line) ||
                found.find(line) == found.end()) {
                continue; // stale or duplicate journal line
            }
            journaled.emplace(line, true);
            disk_.touch(line, found[line]);
        }
    }
    std::sort(unjournaled.begin(), unjournaled.end());
    // Iterate newest-first so pushOldest leaves the oldest unjournaled
    // entry at the very front of the LRU (first victim).
    for (auto it = unjournaled.rbegin(); it != unjournaled.rend();
         ++it) {
        const std::string& key = it->second;
        if (journaled.count(key))
            continue;
        disk_.pushOldest(key, found[key]);
        journalDirty_ = true;
    }

    // Pass 3: a cap may have shrunk since the last run.
    evictToFitLocked();
    persistJournalLocked();
}

void
ResultCache::rememberLocked(const std::string& key,
                            const std::string& payload)
{
    memory_[key] = payload;
    memoryRecency_.touch(key, payload.size());
    while (memoryRecency_.over(limits_)) {
        const std::string victim = memoryRecency_.oldest();
        forgetMemoryLocked(victim);
    }
}

void
ResultCache::forgetMemoryLocked(const std::string& key)
{
    memoryRecency_.forget(key);
    memory_.erase(key);
}

void
ResultCache::evictToFitLocked()
{
    if (mode_ != CacheDiskMode::kReadWrite)
        return; // a degraded tier must not churn the directory
    while (disk_.over(limits_)) {
        const std::string victim = disk_.oldest();
        std::error_code ec;
        fs::remove(diskPath(victim), ec);
        if (ec) {
            logWarn("result cache: cannot evict ", victim, ": ",
                    ec.message());
        }
        // Drop the accounting even when the unlink failed — retrying
        // the same victim forever would wedge the store path, and the
        // scrub of the next start re-adopts any survivor.
        stats_.evictedBytes += disk_.forget(victim);
        ++stats_.evictions;
        journalDirty_ = true;
        forgetMemoryLocked(victim);
    }
}

void
ResultCache::persistJournalLocked()
{
    if (!journalDirty_ || diskDir_.empty() ||
        mode_ != CacheDiskMode::kReadWrite) {
        return;
    }
    const std::string tmp = journalPath() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        for (const std::string& key : disk_.order())
            out << key << '\n';
        out.flush();
        if (!out) {
            logWarn("result cache: cannot write access journal ", tmp);
            std::error_code rm;
            fs::remove(tmp, rm);
            return; // stays dirty; retried on the next store/evict
        }
    }
    std::error_code ec;
    fs::rename(tmp, journalPath(), ec);
    if (ec) {
        logWarn("result cache: cannot publish access journal: ",
                ec.message());
        fs::remove(tmp, ec);
        return;
    }
    journalDirty_ = false;
}

void
ResultCache::degradeLocked(CacheDiskMode target, int err, const char* op)
{
    if (static_cast<int>(target) <= static_cast<int>(mode_))
        return;
    mode_ = target;
    ++stats_.degradations;
    logWarn("result cache: ", op, " failed (", std::strerror(err),
            "); degrading disk tier to ", cacheDiskModeName(target));
}

std::optional<std::string>
ResultCache::lookup(const std::string& key)
{
    const std::lock_guard<std::mutex> lock(mu_);

    const auto it = memory_.find(key);
    if (it != memory_.end()) {
        ++stats_.memoryHits;
        memoryRecency_.refresh(key);
        // Keep disk recency honest even for hot keys: the disk copy
        // of a frequently-hit entry must not be the next LRU victim.
        if (mode_ == CacheDiskMode::kReadWrite && disk_.refresh(key))
            journalDirty_ = true;
        return it->second;
    }

    if (mode_ != CacheDiskMode::kMemoryOnly) {
        const std::string path = diskPath(key);
        int fd = -1;
        int err = faultInjectAt("cache.read");
        if (err == 0) {
            fd = ::open(path.c_str(), O_RDONLY);
            if (fd < 0)
                err = errno;
        }
        if (fd < 0) {
            if (err != ENOENT) {
                if (err == EIO) {
                    degradeLocked(CacheDiskMode::kMemoryOnly, err,
                                  "disk read");
                } else {
                    logWarn("result cache: cannot read ", path, ": ",
                            std::strerror(err));
                }
                ++stats_.misses;
                return std::nullopt;
            }
            // ENOENT: plain miss, falls through.
        } else {
            std::string payload;
            char buf[65536];
            bool read_failed = false;
            for (;;) {
                const ssize_t n = ::read(fd, buf, sizeof buf);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    read_failed = true;
                    if (errno == EIO) {
                        degradeLocked(CacheDiskMode::kMemoryOnly,
                                      errno, "disk read");
                    }
                    break;
                }
                if (n == 0)
                    break;
                payload.append(buf, static_cast<std::size_t>(n));
            }
            ::close(fd);
            if (!read_failed) {
                // Validate before serving: a truncated or corrupted
                // file spliced verbatim into a response would poison
                // the whole batch document.
                if (validPayload(payload)) {
                    ++stats_.diskHits;
                    rememberLocked(key, payload);
                    if (mode_ == CacheDiskMode::kReadWrite) {
                        disk_.touch(key, payload.size());
                        journalDirty_ = true;
                        evictToFitLocked();
                        persistJournalLocked();
                    }
                    return payload;
                }
                ++stats_.invalidDiskEntries;
                logWarn("result cache: discarding corrupt entry ", key);
                std::error_code ec;
                fs::remove(path, ec);
                disk_.forget(key);
                journalDirty_ = true;
            }
        }
    }

    ++stats_.misses;
    return std::nullopt;
}

bool
ResultCache::writeDiskEntryLocked(const std::string& key,
                                  const std::string& payload)
{
    // Atomic, durable publish: write a process-unique temp file, fsync
    // it, then rename. Readers (and the post-crash scrub) either see
    // the complete entry or none at all. Every step consults the
    // fault-injection seam so the chaos harness can script ENOSPC/EIO
    // at exactly this boundary.
    const std::string final_path = diskPath(key);
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid());

    int err = faultInjectAt("cache.write");
    int fd = -1;
    if (err == 0) {
        fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
        if (fd < 0)
            err = errno;
    }
    if (fd < 0) {
        ++stats_.writeFailures;
        degradeLocked(err == ENOSPC || err == EIO
                          ? CacheDiskMode::kReadOnly
                          : mode_,
                      err, "disk write");
        if (mode_ == CacheDiskMode::kReadWrite) {
            logWarn("result cache: cannot write ", tmp_path, ": ",
                    std::strerror(err), "; entry stays memory-only");
        }
        return false;
    }

    const auto fail = [&](const char* op, std::uint64_t* counter) {
        const int saved = errno;
        ++*counter;
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp_path.c_str());
        degradeLocked(saved == ENOSPC || saved == EIO
                          ? CacheDiskMode::kReadOnly
                          : mode_,
                      saved, op);
        if (mode_ == CacheDiskMode::kReadWrite) {
            logWarn("result cache: ", op, " failed for ", key, ": ",
                    std::strerror(saved), "; entry stays memory-only");
        }
        return false;
    };

    std::size_t off = 0;
    while (off < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + off, payload.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail("disk write", &stats_.writeFailures);
        }
        off += static_cast<std::size_t>(n);
    }

    if ((err = faultInjectAt("cache.fsync")) != 0 || ::fsync(fd) != 0) {
        if (err != 0)
            errno = err;
        return fail("disk fsync", &stats_.fsyncFailures);
    }
    if (::close(fd) != 0) {
        fd = -1; // already closed (even on error)
        return fail("disk close", &stats_.writeFailures);
    }
    fd = -1;

    if ((err = faultInjectAt("cache.rename")) != 0 ||
        ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        if (err != 0)
            errno = err;
        return fail("disk rename", &stats_.renameFailures);
    }
    return true;
}

void
ResultCache::store(const std::string& key, const std::string& payload)
{
    const std::lock_guard<std::mutex> lock(mu_);
    rememberLocked(key, payload);
    ++stats_.stores;

    if (diskDir_.empty())
        return;
    if (mode_ != CacheDiskMode::kReadWrite) {
        ++stats_.storesSkippedDegraded;
        return;
    }
    if (!writeDiskEntryLocked(key, payload))
        return;
    disk_.touch(key, payload.size());
    journalDirty_ = true;
    evictToFitLocked();
    persistJournalLocked();
}

ResultCacheStats
ResultCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::size_t
ResultCache::memoryEntries() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return memory_.size();
}

std::size_t
ResultCache::diskEntries() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return disk_.size();
}

std::uint64_t
ResultCache::diskBytes() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return disk_.bytes();
}

CacheDiskMode
ResultCache::diskMode() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return mode_;
}

} // namespace apres
