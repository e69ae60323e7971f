/**
 * @file
 * MemorySystem implementation.
 */

#include "memory_system.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "common/log.hpp"
#include "common/trace.hpp"
#include "isa/address_gen.hpp" // mix64

namespace apres {

namespace {

/** Bytes of a read-request header on the interconnect. */
constexpr std::uint64_t kRequestHeaderBytes = 32;

} // namespace

MemorySystem::MemorySystem(const MemSystemConfig& config) : cfg(config)
{
    assert(cfg.numPartitions >= 1);
    l2s.reserve(static_cast<std::size_t>(cfg.numPartitions));
    for (int p = 0; p < cfg.numPartitions; ++p) {
        l2s.push_back(std::make_unique<Cache>("l2p" + std::to_string(p),
                                              cfg.l2Partition));
        drams.emplace_back(cfg.dram);
    }
}

void
MemorySystem::registerClient(SmId sm, MemClient* client)
{
    assert(sm >= 0);
    if (static_cast<std::size_t>(sm) >= clients.size())
        clients.resize(static_cast<std::size_t>(sm) + 1, nullptr);
    clients[static_cast<std::size_t>(sm)] = client;
    // Presize the staging queues here, before any worker thread runs:
    // each inner vector is then written by exactly one shard and the
    // outer vector never reallocates under concurrent submission.
    if (static_cast<std::size_t>(sm) >= staged_.size())
        staged_.resize(static_cast<std::size_t>(sm) + 1);
}

int
MemorySystem::partitionOf(Addr line_addr) const
{
    // Hash so that strided streams spread across partitions instead of
    // camping on one channel.
    return static_cast<int>(mix64(line_addr / 128) %
                            static_cast<std::uint64_t>(cfg.numPartitions));
}

void
MemorySystem::scheduleEvent(Cycle ready, const MemRequest& req, bool fills_l2)
{
    events.push(Event{ready, nextSeq_++, req, fills_l2});
}

std::vector<MemorySystem::StagedRequest>&
MemorySystem::stagedQueueOf(SmId sm)
{
    assert(sm >= 0 && static_cast<std::size_t>(sm) < staged_.size() &&
           "staged submit from an SM that never registered a client");
    return staged_[static_cast<std::size_t>(sm)];
}

void
MemorySystem::submitRead(const MemRequest& req, Cycle now)
{
    if (staging_) {
        stagedQueueOf(req.sm).push_back(
            StagedRequest{now, req, /*isWrite=*/false});
        return;
    }
    processRead(req, now);
}

void
MemorySystem::submitWrite(const MemRequest& req, Cycle now)
{
    if (staging_) {
        stagedQueueOf(req.sm).push_back(
            StagedRequest{now, req, /*isWrite=*/true});
        return;
    }
    processWrite(req, now);
}

void
MemorySystem::drainStaged()
{
    // Canonical order: cycle ascending, then SM ascending, then per-SM
    // program order. Each queue is already in program order and the
    // queues are concatenated SM-ascending, so a stable sort by cycle
    // leaves exactly that order.
    drainOrder_.clear();
    for (std::vector<StagedRequest>& queue : staged_) {
        drainOrder_.insert(drainOrder_.end(), queue.begin(), queue.end());
        queue.clear();
    }
    std::stable_sort(drainOrder_.begin(), drainOrder_.end(),
                     [](const StagedRequest& a, const StagedRequest& b) {
                         return a.at < b.at;
                     });
    for (const StagedRequest& s : drainOrder_) {
        if (s.isWrite)
            processWrite(s.req, s.at);
        else
            processRead(s.req, s.at);
    }
}

Cycle
MemorySystem::minResponseLatency() const
{
    return std::min(cfg.l2HitLatency, cfg.dram.baseLatency);
}

void
MemorySystem::processRead(const MemRequest& req, Cycle now)
{
    if (static_cast<std::size_t>(req.sm) >= outstandingReads_.size())
        outstandingReads_.resize(static_cast<std::size_t>(req.sm) + 1, 0);
    ++outstandingReads_[static_cast<std::size_t>(req.sm)];

    const int p = partitionOf(req.lineAddr);
    Cache& l2 = *l2s[static_cast<std::size_t>(p)];
    traffic_.requestBytesToL2 += kRequestHeaderBytes;

    // The L2 sees every read as a demand access; the prefetch flag
    // only matters to the L1 that issued it.
    MemRequest probe = req;
    probe.isPrefetch = false;
    switch (l2.access(probe)) {
      case AccessOutcome::kHit:
        scheduleEvent(now + cfg.l2HitLatency, req, /*fills_l2=*/false);
        traffic_.fillBytesToL1 += cfg.l2Partition.lineSize;
        break;
      case AccessOutcome::kMergedMshr:
        // Completion rides on the outstanding DRAM fetch; the merged
        // request was recorded as an L2 MSHR waiter.
        break;
      case AccessOutcome::kMiss: {
        const Cycle done =
            drams[static_cast<std::size_t>(p)].schedule(now, req.lineAddr);
        traffic_.fillBytesFromDram += cfg.l2Partition.lineSize;
        if (tracer_) {
            tracer_->record(tracer_->memLane(),
                            TraceEventType::kDramService, now, req.pc,
                            req.warp, done - now);
        }
        scheduleEvent(done, req, /*fills_l2=*/true);
        break;
      }
      case AccessOutcome::kMshrFull: {
        // L2 MSHRs exhausted: bypass merging and stream straight from
        // DRAM. Rare with the default 256 entries.
        const Cycle done =
            drams[static_cast<std::size_t>(p)].schedule(now, req.lineAddr);
        traffic_.fillBytesFromDram += cfg.l2Partition.lineSize;
        traffic_.fillBytesToL1 += cfg.l2Partition.lineSize;
        if (tracer_) {
            tracer_->record(tracer_->memLane(),
                            TraceEventType::kDramService, now, req.pc,
                            req.warp, done - now);
        }
        scheduleEvent(done, req, /*fills_l2=*/false);
        break;
      }
    }
}

void
MemorySystem::processWrite(const MemRequest& req, Cycle now)
{
    assert(req.isWrite);
    const int p = partitionOf(req.lineAddr);
    Cache& l2 = *l2s[static_cast<std::size_t>(p)];
    traffic_.storeBytesToL2 += cfg.l2Partition.lineSize;
    if (!l2.storeAccess(req)) {
        // No-allocate at L2 either: write through to DRAM, consuming
        // channel bandwidth.
        drams[static_cast<std::size_t>(p)].schedule(now, req.lineAddr);
        traffic_.storeBytesToDram += cfg.l2Partition.lineSize;
    }
}

void
MemorySystem::deliver(const MemRequest& req, Cycle now)
{
    assert(static_cast<std::size_t>(req.sm) < clients.size() &&
           clients[static_cast<std::size_t>(req.sm)] != nullptr &&
           "response for an unregistered SM");
    assert(static_cast<std::size_t>(req.sm) < outstandingReads_.size() &&
           outstandingReads_[static_cast<std::size_t>(req.sm)] > 0 &&
           "delivering a response that was never submitted");
    --outstandingReads_[static_cast<std::size_t>(req.sm)];
    ++responsesDelivered_;
    clients[static_cast<std::size_t>(req.sm)]->memResponse(req, now);
}

void
MemorySystem::tick(Cycle now)
{
    while (!events.empty() && events.top().ready <= now) {
        const Event ev = events.top();
        events.pop();
        if (ev.fillsL2) {
            const int p = partitionOf(ev.req.lineAddr);
            Cache::FillResult fill =
                l2s[static_cast<std::size_t>(p)]->fill(ev.req.lineAddr);
            // Everyone who merged on the L2 MSHR gets its data now.
            for (const MemRequest& waiter : fill.waiters) {
                traffic_.fillBytesToL1 += cfg.l2Partition.lineSize;
                deliver(waiter, now);
            }
        } else {
            deliver(ev.req, now);
        }
    }
}

Cycle
MemorySystem::nextEventCycle() const
{
    return events.empty() ? std::numeric_limits<Cycle>::max()
                          : events.top().ready;
}

std::uint64_t
MemorySystem::outstandingReads(SmId sm) const
{
    const auto i = static_cast<std::size_t>(sm);
    return i < outstandingReads_.size() ? outstandingReads_[i] : 0;
}

CacheStats
MemorySystem::l2StatsTotal() const
{
    CacheStats total;
    for (const auto& l2 : l2s)
        total += l2->stats();
    return total;
}

} // namespace apres
