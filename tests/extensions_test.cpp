/**
 * @file
 * Tests for the extensions beyond the paper's core configuration: the
 * DRAM bank/row-buffer model, the CSV reporter, and static
 * control-divergence (active lanes) on memory instructions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/csv.hpp"
#include "core/sm.hpp"
#include "mem/dram.hpp"
#include "sched/lrr.hpp"
#include "sim/gpu.hpp"
#include "sim/timeline.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

DramConfig
rowConfig()
{
    DramConfig cfg;
    cfg.baseLatency = 440;
    cfg.rowBufferModel = true;
    cfg.numBanks = 4;
    cfg.rowBytes = 2048;
    cfg.rowHitInterval = 3;
    cfg.rowMissInterval = 12;
    return cfg;
}

TEST(DramRowModel, SequentialLinesHitOpenRow)
{
    DramPartition dram(rowConfig());
    // 16 consecutive lines: one row miss per 2 KB row, 15 hits.
    for (int i = 0; i < 16; ++i)
        dram.schedule(0, static_cast<Addr>(i) * 128);
    EXPECT_EQ(dram.stats().rowMisses, 1u);
    EXPECT_EQ(dram.stats().rowHits, 15u);
    EXPECT_GT(dram.stats().rowHitRate(), 0.9);
}

TEST(DramRowModel, ScatteredAccessesMissRows)
{
    DramPartition dram(rowConfig());
    // Strides of 16 KB: every access opens a new row.
    for (int i = 0; i < 16; ++i)
        dram.schedule(0, static_cast<Addr>(i) * 16384);
    EXPECT_EQ(dram.stats().rowHits, 0u);
    EXPECT_EQ(dram.stats().rowMisses, 16u);
}

TEST(DramRowModel, RowHitsIncreaseEffectiveBandwidth)
{
    DramPartition seq(rowConfig());
    DramPartition scattered(rowConfig());
    Cycle seq_done = 0;
    Cycle scat_done = 0;
    for (int i = 0; i < 64; ++i) {
        seq_done = seq.schedule(0, static_cast<Addr>(i) * 128);
        scat_done = scattered.schedule(0, static_cast<Addr>(i) * 16384);
    }
    // Same request count, but the sequential stream drains much
    // faster.
    EXPECT_LT(seq_done, scat_done);
}

TEST(DramRowModel, BankInterleavingTracksRowsIndependently)
{
    DramPartition dram(rowConfig());
    // Alternate between two rows in *different* banks: both stay open.
    const Addr row_a = 0;            // bank 0
    const Addr row_b = 2048;         // bank 1
    dram.schedule(0, row_a);
    dram.schedule(0, row_b);
    dram.schedule(0, row_a + 128);
    dram.schedule(0, row_b + 128);
    EXPECT_EQ(dram.stats().rowMisses, 2u);
    EXPECT_EQ(dram.stats().rowHits, 2u);
}

TEST(DramRowModel, ConflictingRowsSameBankThrash)
{
    DramPartition dram(rowConfig());
    // Two rows that map to the same bank (4 banks x 2 KB = 8 KB
    // period): ping-ponging reopens the row every time.
    const Addr row_a = 0;
    const Addr row_b = 4 * 2048;
    for (int i = 0; i < 4; ++i) {
        dram.schedule(0, row_a);
        dram.schedule(0, row_b);
    }
    EXPECT_EQ(dram.stats().rowHits, 0u);
}

TEST(DramRowModel, FlatModelUnaffectedByAddresses)
{
    DramConfig cfg; // flat
    DramPartition dram(cfg);
    const Cycle a = dram.schedule(0, 0);
    DramPartition dram2(cfg);
    const Cycle b = dram2.schedule(0, 0x12345680);
    EXPECT_EQ(a, b);
    EXPECT_EQ(dram.stats().rowHits + dram.stats().rowMisses, 0u);
}

TEST(DramRowModel, EndToEndSimulationRuns)
{
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.mem.dram.rowBufferModel = true;
    const RunResult r = simulate(cfg, wl.kernel);
    EXPECT_TRUE(r.completed);
}

TEST(Csv, HeaderAndRows)
{
    CsvWriter csv("run");
    StatSet a;
    a.set("x", 1.0);
    a.set("y", 2.5);
    StatSet b;
    b.set("x", 3.0);
    b.set("y", 4.0);
    csv.addRow("first", a);
    csv.addRow("second", b);
    std::ostringstream oss;
    csv.write(oss);
    EXPECT_EQ(oss.str(), "run,x,y\nfirst,1,2.5\nsecond,3,4\n");
}

TEST(Csv, EmptyWritesNothing)
{
    CsvWriter csv;
    std::ostringstream oss;
    csv.write(oss);
    EXPECT_TRUE(oss.str().empty());
}

TEST(Csv, MissingKeysReadAsZero)
{
    CsvWriter csv;
    StatSet a;
    a.set("x", 1.0);
    StatSet b; // no "x"
    csv.addRow("a", a);
    csv.addRow("b", b);
    std::ostringstream oss;
    csv.write(oss);
    EXPECT_NE(oss.str().find("b,0"), std::string::npos);
}

TEST(ActiveLanes, PartialWarpCoalescesFewerLines)
{
    KernelBuilder b("t");
    // Fully uncoalesced (one line per lane) but only 4 lanes active.
    const int r = b.load(std::make_unique<UniformGen>(0x1000), 128,
                         kInvalidPc, kNoReg, /*active_lanes=*/4);
    b.alu({r}, 1);
    Kernel k = b.build(1);
    EXPECT_EQ(k.at(0).activeLanes, 4);

    MemSystemConfig mc;
    mc.numPartitions = 2;
    MemorySystem mem(mc);
    LrrScheduler sched;
    SmConfig sc;
    sc.warpsPerSm = 1;
    sc.warpsPerBlock = 1;
    sc.jobsPerWarp = 1;
    Sm sm(0, sc, k, sched, nullptr, mem);
    Cycle now = 0;
    while (!sm.done() && now < 100000) {
        mem.tick(now);
        sm.tick(now);
        ++now;
    }
    EXPECT_EQ(sm.l1().stats().demandAccesses, 4u);
}

TEST(ActiveLanes, DefaultIsFullWarp)
{
    KernelBuilder b("t");
    const int r = b.load(std::make_unique<UniformGen>(0x1000));
    b.alu({r}, 1);
    Kernel k = b.build(1);
    EXPECT_EQ(k.at(0).activeLanes, kWarpSize);
}

TEST(AdaptiveBypass, StreamLoadsBypassAfterTraining)
{
    // A pure stream: every access misses, so after bypassMinAccesses
    // executions its requests skip the L1.
    KernelBuilder b("t");
    const int r = b.load(std::make_unique<StridedGen>(0x4000'0000, 0,
                                                      4096));
    b.alu({r}, 1);
    Kernel k = b.build(64);

    MemSystemConfig mc;
    mc.numPartitions = 2;
    MemorySystem mem(mc);
    LrrScheduler sched;
    SmConfig sc;
    sc.warpsPerSm = 1;
    sc.warpsPerBlock = 1;
    sc.jobsPerWarp = 1;
    sc.lsu.adaptiveBypass = true;
    sc.lsu.bypassMinAccesses = 16;
    sc.lsu.bypassMissRate = 0.9;
    Sm sm(0, sc, k, sched, nullptr, mem);
    Cycle now = 0;
    while (!sm.done() && now < 1'000'000) {
        mem.tick(now);
        sm.tick(now);
        ++now;
    }
    ASSERT_TRUE(sm.done());
    EXPECT_GT(sm.lsuStats().bypassedLines, 0u);
    // The L1 stops seeing the stream once bypass engages.
    EXPECT_LT(sm.l1().stats().demandAccesses, 64u);
}

TEST(AdaptiveBypass, LocalityLoadsNeverBypass)
{
    KernelBuilder b("t");
    const int r = b.load(std::make_unique<UniformGen>(0x1000));
    b.alu({r}, 1);
    Kernel k = b.build(64);

    MemSystemConfig mc;
    mc.numPartitions = 2;
    MemorySystem mem(mc);
    LrrScheduler sched;
    SmConfig sc;
    sc.warpsPerSm = 1;
    sc.warpsPerBlock = 1;
    sc.jobsPerWarp = 1;
    sc.lsu.adaptiveBypass = true;
    sc.lsu.bypassMinAccesses = 16;
    Sm sm(0, sc, k, sched, nullptr, mem);
    Cycle now = 0;
    while (!sm.done() && now < 1'000'000) {
        mem.tick(now);
        sm.tick(now);
        ++now;
    }
    ASSERT_TRUE(sm.done());
    EXPECT_EQ(sm.lsuStats().bypassedLines, 0u);
}

TEST(Timeline, SamplesCoverTheRun)
{
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    Gpu gpu(cfg, wl.kernel);
    TimelineRecorder recorder(500);
    const RunResult r = recorder.record(gpu);
    ASSERT_TRUE(r.completed);
    ASSERT_FALSE(recorder.samples().empty());
    // Samples are 500 cycles apart, except the final partial interval,
    // which ends exactly at the finish cycle.
    EXPECT_EQ(recorder.samples().front().cycleEnd, 500u);
    EXPECT_EQ(recorder.samples().back().cycleEnd, r.cycles);
    // Interval instructions (ipc x actual width) sum to the total.
    double sum = 0.0;
    Cycle prev = 0;
    for (const TimelineSample& s : recorder.samples()) {
        sum += s.intervalIpc * static_cast<double>(s.cycleEnd - prev);
        prev = s.cycleEnd;
    }
    EXPECT_NEAR(sum, static_cast<double>(r.instructions), 1.0);
    // The final cumulative IPC matches the run result.
    EXPECT_NEAR(recorder.samples().back().cumulativeIpc, r.ipc, 1e-9);
}

TEST(Timeline, CsvExportHasOneRowPerSample)
{
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    Gpu gpu(cfg, wl.kernel);
    TimelineRecorder recorder(1000);
    recorder.record(gpu);
    CsvWriter csv("workload");
    recorder.toCsv(csv, "SP");
    EXPECT_EQ(csv.size(), recorder.samples().size());
    std::ostringstream out;
    csv.write(out);
    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line.rfind("workload,", 0), 0u) << line;
    while (std::getline(lines, line))
        EXPECT_EQ(line.rfind("SP,", 0), 0u) << line;
}

TEST(AdaptiveBypass, EndToEndDeterministic)
{
    const Workload wl = makeWorkload("HISTO", 0.05);
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.sm.lsu.adaptiveBypass = true;
    cfg.sm.lsu.bypassMinAccesses = 32;
    const RunResult a = simulate(cfg, wl.kernel);
    const RunResult b = simulate(cfg, wl.kernel);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.cycles, b.cycles);
}

} // namespace
} // namespace apres
