/**
 * @file
 * Shared memory-side hierarchy: L2 partitions + DRAM channels.
 *
 * The memory system sits below the per-SM L1s. L1 misses (demand or
 * prefetch) are submitted with submitRead(); responses are delivered
 * to the owning SM's MemClient when tick() passes their ready cycle.
 * Stores are write-through from L1 and fire-and-forget here.
 *
 * Topology follows Table III: the 768 KB L2 is split into 6 partitions
 * (128 KB, 8-way each), one per DRAM channel; lines map to partitions
 * by hashing the line address.
 */

#ifndef APRES_MEM_MEMORY_SYSTEM_HPP
#define APRES_MEM_MEMORY_SYSTEM_HPP

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/request.hpp"

namespace apres {

class Tracer;

/** Receiver of memory responses (one per SM; typically the SM). */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** Called when data for @p req arrives back at the SM. */
    virtual void memResponse(const MemRequest& req, Cycle now) = 0;
};

/** Configuration of the shared memory side. */
struct MemSystemConfig
{
    int numPartitions = 6;            ///< L2/DRAM partitions (Table III)
    CacheConfig l2Partition{
        .sizeBytes = 768 * 1024 / 6,  ///< 128 KB per partition
        .ways = 8,
        .lineSize = 128,
        .numMshrs = 256,
        .maxMergesPerMshr = 64,
    };
    Cycle l2HitLatency = 200;         ///< SM-to-data round trip on L2 hit
    DramConfig dram;                  ///< per-partition DRAM timing
};

/** Interconnect/DRAM traffic counters in bytes. */
struct TrafficStats
{
    std::uint64_t requestBytesToL2 = 0; ///< miss request headers (32 B each)
    std::uint64_t fillBytesToL1 = 0;    ///< line fills L2 -> SM
    std::uint64_t storeBytesToL2 = 0;   ///< write-through store data
    std::uint64_t fillBytesFromDram = 0;///< DRAM -> L2 fills
    std::uint64_t storeBytesToDram = 0; ///< store misses written through

    /** Total bytes crossing the SM<->L2 interconnect (Fig. 14). */
    std::uint64_t
    interconnectBytes() const
    {
        return requestBytesToL2 + fillBytesToL1 + storeBytesToL2;
    }
};

/**
 * The shared L2 + DRAM model.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSystemConfig& config);

    /** Register the response receiver for SM @p sm. */
    void registerClient(SmId sm, MemClient* client);

    /**
     * Submit an L1 read miss (demand or prefetch).
     * A response is delivered to the owning SM's client later.
     *
     * In staging mode (see setStaging) the request is only appended to
     * the submitting SM's staging queue — a single-writer, allocation-
     * amortised vector — and the L2/DRAM state transition is deferred
     * to drainStaged().
     */
    void submitRead(const MemRequest& req, Cycle now);

    /** Submit a write-through store (no response). Stages like reads. */
    void submitWrite(const MemRequest& req, Cycle now);

    /**
     * Enter or leave epoch-staging mode (the parallel engine's memory
     * boundary). While staging, submitRead/submitWrite only record the
     * request in a per-SM queue; each queue is written by exactly one
     * shard thread, so concurrent submission is race-free. All shared
     * state (L2 partitions, DRAM channels, MSHRs, counters) mutates
     * only inside drainStaged(), on the coordinating thread.
     */
    void setStaging(bool on) { staging_ = on; }

    /**
     * Replay every staged request into the memory system in canonical
     * order — submission cycle ascending, then SM id ascending, then
     * per-SM program order — using the original submission cycles.
     * This is exactly the order the serial engine would have issued
     * them in, so every L2/DRAM state transition (and therefore every
     * statistic) is bitwise identical to a serial run. Coordinator-
     * thread only.
     */
    void drainStaged();

    /**
     * Lower bound on cycles between a submitRead and its response
     * delivery: min(L2 hit latency, DRAM base latency). The parallel
     * engine uses it to bound epoch length — no request submitted
     * inside an epoch can mature before the epoch ends.
     */
    Cycle minResponseLatency() const;

    /** Deliver all responses with ready cycle <= @p now. */
    void tick(Cycle now);

    /** True when no responses are in flight. */
    bool idle() const { return events.empty(); }

    /** Earliest pending response cycle (the largest Cycle when idle). */
    Cycle nextEventCycle() const;

    /**
     * Read requests submitted by SM @p sm and not yet delivered back.
     * The invariant auditor matches this against the SM's L1 MSHR
     * occupancy: every L1 MSHR allocation pairs with exactly one
     * submitRead(), so (without adaptive bypass, whose requests skip
     * the L1) the two must agree between ticks.
     */
    std::uint64_t outstandingReads(SmId sm) const;

    /** Total read responses delivered (watchdog progress signal). */
    std::uint64_t responsesDelivered() const { return responsesDelivered_; }

    /** Partition a line address maps to. */
    int partitionOf(Addr line_addr) const;

    /** L2 partition caches (index 0..numPartitions-1). */
    const Cache& l2(int partition) const { return *l2s.at(partition); }

    /** TEST HOOK: mutable L2 partition for fault-injection tests. */
    Cache& l2ForTest(int partition) { return *l2s.at(partition); }

    /** DRAM channel of @p partition. */
    const DramPartition& dram(int partition) const
    {
        return drams.at(static_cast<std::size_t>(partition));
    }

    /** Byte traffic counters. */
    const TrafficStats& traffic() const { return traffic_; }

    /** Aggregated L2 stats across partitions. */
    CacheStats l2StatsTotal() const;

    /**
     * Install the event tracer (null = off). The memory side emits a
     * kDramService event on its lane whenever a read is scheduled on a
     * DRAM channel; pure observation.
     */
    void setTracer(Tracer* tracer) { tracer_ = tracer; }

  private:
    /** A scheduled completion. */
    struct Event
    {
        Cycle ready = 0;
        std::uint64_t seq = 0;  ///< push order: breaks ready-cycle ties
        MemRequest req;
        bool fillsL2 = false;   ///< response must fill the L2 partition
    };

    /** Heap order: the earliest (ready, seq) on top. */
    struct LaterEvent
    {
        bool
        operator()(const Event& a, const Event& b) const
        {
            return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
        }
    };

    /** One deferred submit captured while staging. */
    struct StagedRequest
    {
        Cycle at = 0;
        MemRequest req;
        bool isWrite = false;
    };

    void scheduleEvent(Cycle ready, const MemRequest& req, bool fills_l2);
    void deliver(const MemRequest& req, Cycle now);
    void processRead(const MemRequest& req, Cycle now);
    void processWrite(const MemRequest& req, Cycle now);
    std::vector<StagedRequest>& stagedQueueOf(SmId sm);

    MemSystemConfig cfg;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::vector<DramPartition> drams;
    std::vector<MemClient*> clients;
    /** In-flight responses, delivered in (ready, submission) order. */
    std::priority_queue<Event, std::vector<Event>, LaterEvent> events;
    std::uint64_t nextSeq_ = 0;
    TrafficStats traffic_;
    std::vector<std::uint64_t> outstandingReads_; ///< per SM, in flight
    std::uint64_t responsesDelivered_ = 0;
    Tracer* tracer_ = nullptr;
    bool staging_ = false;
    std::vector<std::vector<StagedRequest>> staged_; ///< one queue per SM
    std::vector<StagedRequest> drainOrder_; ///< reused drain buffer
};

} // namespace apres

#endif // APRES_MEM_MEMORY_SYSTEM_HPP
