/**
 * @file
 * Unit tests for the coalescer, DRAM partition timing and the shared
 * memory system (L2 + DRAM).
 */

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "mem/coalescer.hpp"
#include "mem/dram.hpp"
#include "mem/memory_system.hpp"

namespace apres {
namespace {

TEST(Coalescer, FullyCoalescedWordAccess)
{
    Coalescer c(128);
    // 32 lanes x 4 B from a line-aligned base: one line.
    const auto lines = c.coalesce(0x1000, 4);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x1000u);
}

TEST(Coalescer, MisalignedWordAccessSpansTwoLines)
{
    Coalescer c(128);
    const auto lines = c.coalesce(0x1040, 4); // crosses a line boundary
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[1], 0x1080u);
}

TEST(Coalescer, FullyUncoalesced)
{
    Coalescer c(128);
    const auto lines = c.coalesce(0, 128); // one line per lane
    EXPECT_EQ(lines.size(), 32u);
    // First-touch order preserved: lane 0 first.
    EXPECT_EQ(lines.front(), 0u);
    EXPECT_EQ(lines.back(), 31u * 128);
}

TEST(Coalescer, EightByteLanesHalfLine)
{
    Coalescer c(128);
    const auto lines = c.coalesce(0, 8); // 32 x 8 B = 256 B = 2 lines
    EXPECT_EQ(lines.size(), 2u);
}

TEST(Coalescer, PartialWarp)
{
    Coalescer c(128);
    const auto lines = c.coalesce(0, 128, 4);
    EXPECT_EQ(lines.size(), 4u);
}

TEST(Coalescer, LineOf)
{
    Coalescer c(128);
    EXPECT_EQ(c.lineOf(0x1005), 0x1000u);
    EXPECT_EQ(c.lineOf(0x107F), 0x1000u);
    EXPECT_EQ(c.lineOf(0x1080), 0x1080u);
}

TEST(Dram, BaseLatencyWhenIdle)
{
    DramPartition dram({.baseLatency = 440, .serviceInterval = 6});
    EXPECT_EQ(dram.schedule(100), 100u + 440);
}

TEST(Dram, BackToBackRequestsQueue)
{
    DramPartition dram({.baseLatency = 440, .serviceInterval = 6});
    EXPECT_EQ(dram.schedule(0), 440u);
    // The channel is busy until cycle 6: the second transfer starts
    // then.
    EXPECT_EQ(dram.schedule(0), 6u + 440);
    EXPECT_EQ(dram.schedule(0), 12u + 440);
    EXPECT_EQ(dram.stats().requests, 3u);
    EXPECT_EQ(dram.stats().totalQueueDelay, 6u + 12u);
}

TEST(Dram, IdleGapsResetQueueing)
{
    DramPartition dram({.baseLatency = 440, .serviceInterval = 6});
    dram.schedule(0);
    EXPECT_EQ(dram.schedule(1000), 1000u + 440);
    EXPECT_DOUBLE_EQ(dram.stats().avgQueueDelay(), 0.0);
}

/** Collects responses delivered to one SM slot. */
class RecordingClient : public MemClient
{
  public:
    void
    memResponse(const MemRequest& req, Cycle now) override
    {
        responses.push_back({req, now});
    }

    std::vector<std::pair<MemRequest, Cycle>> responses;
};

MemSystemConfig
smallMemConfig()
{
    MemSystemConfig cfg;
    cfg.numPartitions = 2;
    cfg.l2Partition.sizeBytes = 8 * 1024;
    cfg.l2Partition.hashSetIndex = false;
    cfg.l2HitLatency = 200;
    cfg.dram.baseLatency = 440;
    cfg.dram.serviceInterval = 6;
    return cfg;
}

MemRequest
readFrom(SmId sm, Addr line)
{
    MemRequest req;
    req.sm = sm;
    req.lineAddr = line;
    return req;
}

/** One delivered response: (SM, line, delivery cycle). */
using Delivery = std::tuple<SmId, Addr, Cycle>;

/** The responses @p client received, in delivery order. */
std::vector<Delivery>
deliveries(const RecordingClient& client)
{
    std::vector<Delivery> out;
    for (const auto& [req, now] : client.responses)
        out.emplace_back(req.sm, req.lineAddr, now);
    return out;
}

TEST(MemorySystem, L2MissGoesToDramThenHits)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client;
    mem.registerClient(0, &client);

    mem.submitRead(readFrom(0, 0x1000), 0);
    mem.tick(439);
    EXPECT_TRUE(client.responses.empty());
    mem.tick(440);
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(client.responses[0].second, 440u);

    // Second read of the same line: L2 hit at 200 cycles.
    mem.submitRead(readFrom(0, 0x1000), 1000);
    mem.tick(1200);
    ASSERT_EQ(client.responses.size(), 2u);
    EXPECT_EQ(client.responses[1].second, 1200u);
}

TEST(MemorySystem, CrossSmMergingOnL2Mshr)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient c0;
    RecordingClient c1;
    mem.registerClient(0, &c0);
    mem.registerClient(1, &c1);

    mem.submitRead(readFrom(0, 0x2000), 0);
    mem.submitRead(readFrom(1, 0x2000), 10); // merges on the L2 MSHR
    mem.tick(500);
    ASSERT_EQ(c0.responses.size(), 1u);
    ASSERT_EQ(c1.responses.size(), 1u);
    // Both were served by one DRAM transfer.
    int p = mem.partitionOf(0x2000);
    EXPECT_EQ(mem.dram(p).stats().requests, 1u);
}

TEST(MemorySystem, PartitionMappingStable)
{
    MemorySystem mem(smallMemConfig());
    const int p = mem.partitionOf(0x4000);
    EXPECT_EQ(p, mem.partitionOf(0x4000));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
}

TEST(MemorySystem, PartitionsSpreadLines)
{
    MemorySystem mem(smallMemConfig());
    int counts[2] = {0, 0};
    for (Addr line = 0; line < 1000 * 128; line += 128)
        counts[mem.partitionOf(line)]++;
    EXPECT_GT(counts[0], 300);
    EXPECT_GT(counts[1], 300);
}

TEST(MemorySystem, WritesAreFireAndForget)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client;
    mem.registerClient(0, &client);
    MemRequest store = readFrom(0, 0x3000);
    store.isWrite = true;
    mem.submitWrite(store, 0);
    mem.tick(2000);
    EXPECT_TRUE(client.responses.empty());
    EXPECT_GT(mem.traffic().storeBytesToL2, 0u);
    EXPECT_GT(mem.traffic().storeBytesToDram, 0u);
}

TEST(MemorySystem, TrafficCountersTrackReads)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client;
    mem.registerClient(0, &client);
    mem.submitRead(readFrom(0, 0x1000), 0);
    mem.tick(1000);
    EXPECT_EQ(mem.traffic().requestBytesToL2, 32u);
    EXPECT_EQ(mem.traffic().fillBytesToL1, 128u);
    EXPECT_EQ(mem.traffic().fillBytesFromDram, 128u);
    EXPECT_EQ(mem.traffic().interconnectBytes(), 32u + 128u);
}

TEST(MemorySystem, ResponsesDeliveredInOrder)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client;
    mem.registerClient(0, &client);
    // Two misses to the same partition queue behind each other.
    Addr a = 0;
    Addr b = 128;
    while (mem.partitionOf(b) != mem.partitionOf(a))
        b += 128;
    mem.submitRead(readFrom(0, a), 0);
    mem.submitRead(readFrom(0, b), 0);
    mem.tick(1000);
    ASSERT_EQ(client.responses.size(), 2u);
    EXPECT_LE(client.responses[0].second, client.responses[1].second);
}

TEST(MemorySystem, SameCycleResponsesArriveInSubmissionOrder)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client; // both SMs: one log in delivery order
    mem.registerClient(0, &client);
    mem.registerClient(1, &client);

    // Warm four lines into the L2.
    for (const Addr line : {0x1000, 0x2000, 0x3000, 0x4000})
        mem.submitRead(readFrom(0, line), 0);
    mem.tick(1000);
    client.responses.clear();

    // A DRAM miss (440 cycles) and four L2 hits submitted 240 cycles
    // later (200 cycles) all mature at 1440. They arrive in submission
    // order, which is neither SM order nor address order.
    mem.submitRead(readFrom(1, 0x9000), 1000);
    mem.submitRead(readFrom(1, 0x4000), 1240);
    mem.submitRead(readFrom(0, 0x1000), 1240);
    mem.submitRead(readFrom(1, 0x3000), 1240);
    mem.submitRead(readFrom(0, 0x2000), 1240);
    mem.tick(1439);
    EXPECT_TRUE(client.responses.empty());
    mem.tick(1440);
    const std::vector<Delivery> want{
        {1, 0x9000, 1440}, {1, 0x4000, 1440}, {0, 0x1000, 1440},
        {1, 0x3000, 1440}, {0, 0x2000, 1440}};
    EXPECT_EQ(deliveries(client), want);
}

TEST(MemorySystem, FarFutureResponsesStayOrdered)
{
    // A DRAM round trip of 5,000 cycles puts responses more than 4,096
    // cycles ahead of the delivery point; they must still interleave
    // with nearer responses by (ready cycle, submission order).
    MemSystemConfig cfg = smallMemConfig();
    cfg.dram.baseLatency = 5000;
    MemorySystem mem(cfg);
    RecordingClient client; // both SMs: one log in delivery order
    mem.registerClient(0, &client);
    mem.registerClient(1, &client);

    const Addr warm = 0x1000;
    mem.submitRead(readFrom(0, warm), 0);
    mem.tick(5000);
    ASSERT_EQ(client.responses.size(), 1u);
    client.responses.clear();

    const Addr a = 0x2000;
    Addr b = a + 128;
    while (mem.partitionOf(b) != mem.partitionOf(a))
        b += 128;
    mem.submitRead(readFrom(0, a), 6000);    // DRAM: ready 11000
    mem.submitRead(readFrom(1, b), 6000);    // queued behind a: 11006
    mem.submitRead(readFrom(1, warm), 6000); // L2 hit: 6200
    EXPECT_EQ(mem.nextEventCycle(), 6200u);
    for (Cycle now = 6000; now <= 11200; ++now) {
        if (now == 10800)
            mem.submitRead(readFrom(1, warm), now); // 11000, after a
        if (now == 10900)
            mem.submitRead(readFrom(0, warm), now); // 11100
        mem.tick(now);
    }
    const std::vector<Delivery> want{
        {1, warm, 6200}, {0, a, 11000}, {1, warm, 11000},
        {1, b, 11006},   {0, warm, 11100}};
    EXPECT_EQ(deliveries(client), want);
    EXPECT_TRUE(mem.idle());
    EXPECT_EQ(mem.nextEventCycle(), std::numeric_limits<Cycle>::max());
}

TEST(MemorySystem, L2MshrFullStreamsFromDram)
{
    MemSystemConfig cfg = smallMemConfig();
    cfg.l2Partition.numMshrs = 1; // force exhaustion
    MemorySystem mem(cfg);
    RecordingClient client;
    mem.registerClient(0, &client);

    // Three distinct lines on the same partition: the first takes the
    // single L2 MSHR; later ones fall back to direct DRAM streaming
    // (no merging, no L2 fill) but still complete.
    std::vector<Addr> lines;
    for (Addr line = 0; lines.size() < 3; line += 128) {
        if (mem.partitionOf(line) == mem.partitionOf(0))
            lines.push_back(line);
    }
    for (const Addr line : lines)
        mem.submitRead(readFrom(0, line), 0);
    mem.tick(2000);
    EXPECT_EQ(client.responses.size(), 3u);
}

TEST(MemorySystem, L2StatsAggregation)
{
    MemorySystem mem(smallMemConfig());
    RecordingClient client;
    mem.registerClient(0, &client);
    mem.submitRead(readFrom(0, 0x1000), 0);
    mem.submitRead(readFrom(0, 0x9000), 0);
    mem.tick(1000);
    const CacheStats total = mem.l2StatsTotal();
    EXPECT_EQ(total.demandAccesses, 2u);
    EXPECT_EQ(total.demandMisses, 2u);
}

} // namespace
} // namespace apres
