/**
 * @file
 * End-to-end simulator tests: determinism, stat invariants, every
 * scheduler/prefetcher combination, and RunResult reporting.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/address_gen.hpp"
#include "sim/config_registry.hpp"
#include "sim/gpu.hpp"
#include "sim/policy_registry.hpp"
#include "sim/runner.hpp"
#include "sim/timeline.hpp"
#include "sim_error_matchers.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

GpuConfig
smallGpu(const std::string& sched = "lrr", const std::string& pf = "none")
{
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 16;
    cfg.sm.warpsPerBlock = 16;
    cfg.sm.jobsPerWarp = 2;
    cfg.scheduler = sched;
    cfg.prefetcher = pf;
    cfg.maxCycles = 2'000'000;
    return cfg;
}

TEST(Sim, CompletesAndReportsBasics)
{
    const Workload wl = makeWorkload("SP", 0.1);
    const RunResult r = simulate(smallGpu(), wl.kernel);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.l1.demandAccesses, 0u);

    // A load nobody consumes can still be in flight at kExit. Its
    // completion must not put the finished warp back in the issue
    // scan, where it would re-issue kExit, drive the live-warp count
    // below zero and never drain.
    KernelBuilder b("unconsumed");
    b.load(std::make_unique<StridedGen>(4096, 2048, 98304));
    const Kernel tail_load = b.build(4);
    const GpuConfig cfg = smallGpu();
    const RunResult t = simulate(cfg, tail_load);
    EXPECT_TRUE(t.completed);
    EXPECT_EQ(t.instructions,
              static_cast<std::uint64_t>(cfg.numSms * cfg.sm.warpsPerSm *
                                         cfg.sm.jobsPerWarp) *
                  tail_load.dynamicInstructionsPerWarp());
}

TEST(Sim, DeterministicAcrossRuns)
{
    const Workload wl = makeWorkload("BFS", 0.1);
    const RunResult a = simulate(smallGpu(), wl.kernel);
    const RunResult b = simulate(smallGpu(), wl.kernel);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.demandHits, b.l1.demandHits);
    EXPECT_EQ(a.l1.demandMisses, b.l1.demandMisses);
    EXPECT_EQ(a.traffic.interconnectBytes(), b.traffic.interconnectBytes());
}

TEST(Sim, HitMissInvariants)
{
    const Workload wl = makeWorkload("SPMV", 0.1);
    const RunResult r = simulate(smallGpu(), wl.kernel);
    EXPECT_EQ(r.l1.demandHits + r.l1.demandMisses, r.l1.demandAccesses);
    EXPECT_EQ(r.l1.hitAfterHit + r.l1.hitAfterMiss, r.l1.demandHits);
    EXPECT_EQ(r.l1.coldMisses + r.l1.capacityConflictMisses,
              r.l1.demandMisses);
}

TEST(Sim, AllSchedulerPrefetcherCombosRun)
{
    const Workload wl = makeWorkload("LUD", 0.05);
    // Every registered combination must run; SAP pairs only with LAWS.
    for (const std::string& sched : schedulerNames()) {
        for (const std::string& pf : prefetcherNames()) {
            if (pf == "sap" && sched != "laws")
                continue;
            const RunResult r = simulate(smallGpu(sched, pf), wl.kernel);
            EXPECT_TRUE(r.completed) << sched << "+" << pf;
        }
    }
}

TEST(Sim, SapWithoutLawsIsFatal)
{
    const Workload wl = makeWorkload("SP", 0.05);
    expectSimError(SimErrorKind::kConfig, "requires the LAWS scheduler",
                   [&] { simulate(smallGpu("gto", "sap"), wl.kernel); });
}

TEST(Sim, UnknownSchedulerIsFatal)
{
    const Workload wl = makeWorkload("SP", 0.05);
    expectSimError(SimErrorKind::kConfig, "unknown scheduler",
                   [&] { simulate(smallGpu("fancy"), wl.kernel); });
}

TEST(Sim, SameInstructionCountAcrossSchedulers)
{
    // Scheduling policy changes timing, never the executed work.
    const Workload wl = makeWorkload("SRAD", 0.05);
    const RunResult lrr = simulate(smallGpu("lrr"), wl.kernel);
    const RunResult gto = simulate(smallGpu("gto"), wl.kernel);
    const RunResult laws = simulate(smallGpu("laws"), wl.kernel);
    EXPECT_EQ(lrr.instructions, gto.instructions);
    EXPECT_EQ(lrr.instructions, laws.instructions);
}

TEST(Sim, PrefetchingNeverChangesInstructionCount)
{
    const Workload wl = makeWorkload("NW", 0.05);
    const RunResult base = simulate(smallGpu(), wl.kernel);
    const RunResult str = simulate(smallGpu("lrr", "str"), wl.kernel);
    EXPECT_EQ(base.instructions, str.instructions);
}

TEST(Sim, ApresLabel)
{
    GpuConfig cfg;
    cfg.useApres();
    EXPECT_EQ(cfg.label(), "APRES");
    cfg.scheduler = "ccws";
    cfg.prefetcher = "str";
    EXPECT_EQ(cfg.label(), "CCWS+STR");
    cfg.prefetcher = "none";
    EXPECT_EQ(cfg.label(), "CCWS");
}

TEST(Sim, MaxCyclesCapsRun)
{
    const Workload wl = makeWorkload("KM", 1.0);
    GpuConfig cfg = smallGpu();
    cfg.maxCycles = 100;
    const RunResult r = simulate(cfg, wl.kernel);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.cycles, 100u);
}

TEST(Sim, StatSetContainsHeadlineMetrics)
{
    const Workload wl = makeWorkload("SP", 0.05);
    const RunResult r = simulate(smallGpu(), wl.kernel);
    const StatSet s = r.toStatSet();
    EXPECT_TRUE(s.has("sim.ipc"));
    EXPECT_TRUE(s.has("l1.missRate"));
    EXPECT_TRUE(s.has("mem.avgLoadLatency"));
    EXPECT_TRUE(s.has("energy.total"));
    EXPECT_DOUBLE_EQ(s.get("sim.cycles"), static_cast<double>(r.cycles));
}

TEST(Sim, EnergyPositiveAndStructureOverheadSmall)
{
    const Workload wl = makeWorkload("SRAD", 0.1);
    GpuConfig cfg = smallGpu("laws", "sap");
    const RunResult r = simulate(cfg, wl.kernel);
    EXPECT_GT(r.energy.total(), 0.0);
    // The paper: APRES's added blocks stay below 3% of total energy.
    EXPECT_LT(r.energy.structureFraction(), 0.03);
}

TEST(Sim, StepAndCollectIncremental)
{
    const Workload wl = makeWorkload("SP", 0.1);
    GpuConfig cfg = smallGpu();
    Gpu gpu(cfg, wl.kernel);
    gpu.step(100);
    const RunResult early = gpu.collect();
    EXPECT_EQ(early.cycles, 100u);
    gpu.step(100);
    const RunResult later = gpu.collect();
    EXPECT_GE(later.instructions, early.instructions);
}

TEST(Sim, LawsStatsExposedUnderApres)
{
    const Workload wl = makeWorkload("SRAD", 0.1);
    GpuConfig cfg = smallGpu();
    cfg.useApres();
    const RunResult r = simulate(cfg, wl.kernel);
    EXPECT_GT(r.policy.get("laws.groupsFormed"), 0.0);
    EXPECT_GT(r.policy.get("sap.groupMissesReceived"), 0.0);
}

TEST(Sim, RunsMoreThan64WarpsPerSm)
{
    // Warp sets are dynamically sized WarpMasks now: a machine wider
    // than 64 warps per SM must build and run (the old 64-bit masks
    // forced a constructor rejection). APRES policies exercise the
    // widest mask paths (WGT groups, SAP group walks).
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg = smallGpu();
    cfg.sm.warpsPerSm = 80;
    cfg.useApres();
    const RunResult r = simulate(cfg, wl.kernel);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.instructions, 0u);
}

TEST(Sim, RejectsMoreThan64WarpsPerBlock)
{
    // Barrier participant masks are per-block 64-bit lane masks baked
    // into Instruction, so blocks wider than 64 warps stay rejected.
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg = smallGpu();
    cfg.sm.warpsPerSm = 80;
    cfg.sm.warpsPerBlock = 80;
    expectSimError(SimErrorKind::kConfig, "64-lane barrier participant",
                   [&] { simulate(cfg, wl.kernel); });
}

TEST(Sim, RejectsUnbuildableMemoryGeometry)
{
    // The cache and DRAM values pass the registry's bound on their key
    // but describe a cache the model cannot index or afford (zero
    // sets, a set count or line size that is not a power of two, 2^32
    // or 2^26 sets past the 2^20-set bound, where 2^26 sets would ask
    // for a 256 MiB slot index per SM) or a DRAM row shorter than a
    // line, so the Gpu rejects them before the first cycle; a one-line SLD
    // block, an SLD block wider than its 32-bit line mask and
    // prefetcher tables or degrees past 4096 fail their key's own
    // bound. Either way the ConfigError names the first key of the
    // case.
    const Workload wl = makeWorkload("SP", 0.05);
    const std::vector<std::vector<std::pair<std::string, std::string>>>
        cases = {{{"l1.sizeBytes", "1000"}},
                 {{"l2.sizeBytes", "100"}},
                 {{"l1.lineSize", "96"}},
                 {{"l1.ways", "3"}},
                 {{"l2.sizeBytes", "4294967296"},
                  {"l2.ways", "1"},
                  {"l2.lineSize", "1"}},
                 {{"l1.lineSize", "16"},
                  {"l1.ways", "1"},
                  {"l1.sizeBytes", "1073741824"}},
                 {{"dram.rowBytes", "64"}},
                 {{"sld.linesPerBlock", "1"}},
                 {{"sld.linesPerBlock", "33"}},
                 {{"sld.linesPerBlock", "2147483647"}},
                 {{"sld.tableEntries", "2147483647"}},
                 {{"str.degree", "2147483647"}},
                 {{"str.tableEntries", "2147483647"}}};
    for (const auto& overrides : cases) {
        GpuConfig cfg = smallGpu();
        cfg.mem.dram.rowBufferModel = true;
        cfg.prefetcher = "sld";
        expectSimError(SimErrorKind::kConfig, overrides.front().first, [&] {
            applyOverrides(cfg, overrides);
            Gpu gpu(cfg, wl.kernel);
        });
    }
}

/**
 * Bitwise-identical comparison of two RunResults. Doubles are compared
 * with EXPECT_EQ deliberately: identical runs execute identical
 * floating-point operation sequences, so even the derived ratios must
 * match bit for bit.
 */
void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1.demandAccesses, b.l1.demandAccesses);
    EXPECT_EQ(a.l1.demandHits, b.l1.demandHits);
    EXPECT_EQ(a.l1.demandMisses, b.l1.demandMisses);
    EXPECT_EQ(a.l1.earlyEvictions, b.l1.earlyEvictions);
    EXPECT_EQ(a.l2.demandAccesses, b.l2.demandAccesses);
    EXPECT_EQ(a.l2.demandMisses, b.l2.demandMisses);
    EXPECT_EQ(a.traffic.interconnectBytes(), b.traffic.interconnectBytes());
    EXPECT_EQ(a.avgLoadLatency, b.avgLoadLatency);
    EXPECT_EQ(a.avgMissLatency, b.avgMissLatency);
    EXPECT_EQ(a.prefetchesRequested, b.prefetchesRequested);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.mshrReplays, b.mshrReplays);
    EXPECT_EQ(a.energy.total(), b.energy.total());

    // Policy-reported stats must agree key for key.
    ASSERT_EQ(a.policy.entries().size(), b.policy.entries().size());
    for (const auto& [key, value] : a.policy.entries())
        EXPECT_EQ(value, b.policy.get(key)) << "policy stat " << key;

    // Catch-all: the flattened stat sets must agree on every key.
    const auto sa = a.toStatSet().entries();
    const auto sb = b.toStatSet().entries();
    ASSERT_EQ(sa.size(), sb.size());
    for (const auto& [key, value] : sa)
        EXPECT_EQ(value, sb.at(key)) << "stat " << key << " diverged";
}

TEST(Determinism, SeedChangesNoStatistic)
{
    // A run is a pure function of (config, kernel), and GpuConfig::seed
    // reaches no model component: the same seed twice and two other
    // seeds all give the identical result. This is why the sweep runner
    // and compare mode run each cell once and never vary the seed.
    const Workload wl = makeWorkload("BFS", 0.1);
    GpuConfig cfg = smallGpu("laws", "sap");
    cfg.seed = 12345;
    const RunResult a = simulate(cfg, wl.kernel);
    expectIdenticalResults(a, simulate(cfg, wl.kernel));
    for (const std::uint64_t seed : {1ull, 2ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        cfg.seed = seed;
        expectIdenticalResults(a, simulate(cfg, wl.kernel));
    }
}

TEST(Determinism, DefaultJobCountEnvOverride)
{
    ASSERT_EQ(setenv("APRES_BENCH_JOBS", "3", 1), 0);
    EXPECT_EQ(defaultJobCount(), 3);
    ASSERT_EQ(setenv("APRES_BENCH_JOBS", "zero", 1), 0);
    EXPECT_GE(defaultJobCount(), 1); // bad value: hardware fallback
    ASSERT_EQ(setenv("APRES_BENCH_JOBS", "-2", 1), 0);
    EXPECT_GE(defaultJobCount(), 1);
    ASSERT_EQ(unsetenv("APRES_BENCH_JOBS"), 0);
    EXPECT_GE(defaultJobCount(), 1);
}

/** The runner job list used by the parallel-vs-sequential tests. */
std::vector<SweepJob>
sweepTestJobs()
{
    const char* scheds[] = {"lrr", "gto", "laws"};
    std::vector<SweepJob> jobs;
    for (const char* app : {"BFS", "KM", "NW"}) {
        auto workload =
            std::make_shared<const Workload>(makeWorkload(app, 0.05));
        const Kernel* kernel = &workload->kernel;
        for (const char* sched : scheds) {
            SweepJob job;
            job.label = std::string(app) + "/" + sched;
            job.config = smallGpu(sched);
            job.kernel = std::shared_ptr<const Kernel>(workload, kernel);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(Runner, ParallelIsBitIdenticalToSequential)
{
    RunnerOptions seq;
    seq.threads = 1;
    SweepRunner sequential(seq);
    for (SweepJob& job : sweepTestJobs())
        sequential.submit(std::move(job));
    const std::vector<SweepResult> a = sequential.runAll();

    RunnerOptions par;
    par.threads = 8;
    SweepRunner parallel(par);
    for (SweepJob& job : sweepTestJobs())
        parallel.submit(std::move(job));
    const std::vector<SweepResult> b = parallel.runAll();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << "ordering not stable at " << i;
        expectIdenticalResults(a[i].result, b[i].result);
    }
}

TEST(Runner, ResultsInSubmissionOrder)
{
    RunnerOptions opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    auto workload = std::make_shared<const Workload>(makeWorkload("SP", 0.05));
    const Kernel* kernel = &workload->kernel;
    for (int i = 0; i < 6; ++i) {
        runner.submit("job" + std::to_string(i), smallGpu(),
                      std::shared_ptr<const Kernel>(workload, kernel));
    }
    const std::vector<SweepResult> results = runner.runAll();
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, "job" + std::to_string(i));
        EXPECT_TRUE(results[i].result.completed);
        EXPECT_GE(results[i].wallSeconds, 0.0);
    }
}

TEST(Runner, InspectHookRunsPerJob)
{
    RunnerOptions opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    auto workload = std::make_shared<const Workload>(makeWorkload("SP", 0.05));
    const Kernel* kernel = &workload->kernel;
    std::vector<std::uint64_t> l1_accesses(4, 0);
    for (int i = 0; i < 4; ++i) {
        SweepJob job;
        job.label = "inspect" + std::to_string(i);
        job.config = smallGpu();
        job.kernel = std::shared_ptr<const Kernel>(workload, kernel);
        auto* slot = &l1_accesses[static_cast<std::size_t>(i)];
        job.drive = [slot](Gpu& gpu) {
            const RunResult r = gpu.run();
            *slot = r.l1.demandAccesses;
            EXPECT_TRUE(gpu.done());
            return r;
        };
        runner.submit(std::move(job));
    }
    const std::vector<SweepResult> results = runner.runAll();
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(l1_accesses[i], results[i].result.l1.demandAccesses);
}

TEST(Runner, TimelineDriverMatchesBareGpu)
{
    // A timeline job on a worker thread records exactly the samples
    // and result TimelineRecorder gives on a bare Gpu.
    const std::vector<std::string> names = {"SP", "KM", "NW"};
    std::vector<TimelineRecorder> recorders(names.size(),
                                            TimelineRecorder(701));
    RunnerOptions opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    for (std::size_t i = 0; i < names.size(); ++i) {
        SweepJob job;
        job.label = names[i];
        job.config = smallGpu("laws", "sap");
        job.kernel = std::make_shared<const Kernel>(
            makeWorkload(names[i], 0.05).kernel);
        job.drive = [&recorder = recorders[i]](Gpu& gpu) {
            return recorder.record(gpu);
        };
        runner.submit(std::move(job));
    }
    const std::vector<SweepResult> results = runner.runAll();

    for (std::size_t i = 0; i < names.size(); ++i) {
        const Workload wl = makeWorkload(names[i], 0.05);
        Gpu gpu(smallGpu("laws", "sap"), wl.kernel);
        TimelineRecorder bare(701);
        const RunResult r = bare.record(gpu);
        ASSERT_EQ(results[i].result.status, "ok") << names[i];
        EXPECT_EQ(results[i].result.toStatSet().entries(),
                  r.toStatSet().entries()) << names[i];
        const auto& got = recorders[i].samples();
        const auto& want = bare.samples();
        ASSERT_FALSE(want.empty()) << names[i];
        ASSERT_EQ(got.size(), want.size()) << names[i];
        for (std::size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(got[k].cycleEnd, want[k].cycleEnd);
            EXPECT_EQ(got[k].intervalIpc, want[k].intervalIpc);
            EXPECT_EQ(got[k].intervalMissRate, want[k].intervalMissRate);
            EXPECT_EQ(got[k].intervalPrefetches, want[k].intervalPrefetches);
            EXPECT_EQ(got[k].cumulativeIpc, want[k].cumulativeIpc);
        }
    }
}

TEST(Timeline, FinalPartialIntervalIsKept)
{
    // Regression: the recorder used to step the Gpu to the next full
    // interval boundary even after the kernel drained (and straight
    // past maxCycles when the cap fell mid-interval), so the final
    // partial interval was diluted into dead cycles and the
    // timeline-driven cycle count disagreed with Gpu::run().
    const Workload wl = makeWorkload("SP", 0.05);
    GpuConfig cfg = smallGpu();
    const RunResult reference = simulate(cfg, wl.kernel);
    ASSERT_TRUE(reference.completed);

    // An interval that cannot divide the run evenly: prime width.
    Gpu gpu(cfg, wl.kernel);
    TimelineRecorder recorder(701);
    const RunResult r = recorder.record(gpu);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.cycles, reference.cycles);
    EXPECT_EQ(r.instructions, reference.instructions);
    ASSERT_FALSE(recorder.samples().empty());
    // The tail row ends exactly at the finish cycle, not at the next
    // interval boundary.
    EXPECT_EQ(recorder.samples().back().cycleEnd, r.cycles);
    // Interval instruction counts (ipc x actual width) sum to the
    // total: no instruction was lost or double-counted by the tail.
    double sum = 0.0;
    Cycle prev = 0;
    for (const TimelineSample& s : recorder.samples()) {
        ASSERT_GT(s.cycleEnd, prev);
        sum += s.intervalIpc * static_cast<double>(s.cycleEnd - prev);
        prev = s.cycleEnd;
    }
    EXPECT_NEAR(sum, static_cast<double>(r.instructions), 1e-6);
}

TEST(Timeline, RecordMatchesRunAtEveryShardCount)
{
    // The recorder steps the engine Gpu::run() uses — fast-forward,
    // shards and the audit cadence carried across steps — so its final
    // result is run()'s, every key and value.
    const Workload wl = makeWorkload("KM", 0.05);
    for (int shards : {1, 2}) {
        GpuConfig cfg = smallGpu("laws", "sap");
        cfg.shards = shards;
        cfg.audit = true;
        const StatSet reference = simulate(cfg, wl.kernel).toStatSet();
        Gpu gpu(cfg, wl.kernel);
        TimelineRecorder recorder(701);
        const StatSet recorded = recorder.record(gpu).toStatSet();
        EXPECT_EQ(recorded.entries(), reference.entries())
            << "shards=" << shards;
    }
}

TEST(Timeline, MaxCyclesCapEndsMidIntervalWithoutOvershoot)
{
    const Workload wl = makeWorkload("KM", 0.2);
    GpuConfig cfg = smallGpu();
    cfg.maxCycles = 1234; // not a multiple of the interval below
    Gpu gpu(cfg, wl.kernel);
    TimelineRecorder recorder(500);
    const RunResult r = recorder.record(gpu);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.cycles, 1234u);
    ASSERT_FALSE(recorder.samples().empty());
    // Rows at 500, 1000, then the clamped 234-cycle tail.
    ASSERT_EQ(recorder.samples().size(), 3u);
    EXPECT_EQ(recorder.samples()[0].cycleEnd, 500u);
    EXPECT_EQ(recorder.samples()[1].cycleEnd, 1000u);
    EXPECT_EQ(recorder.samples().back().cycleEnd, 1234u);
}

TEST(Sim, LargerL1ReducesMissRate)
{
    const Workload wl = makeWorkload("KM", 0.2);
    GpuConfig small = smallGpu();
    GpuConfig big = smallGpu();
    big.sm.l1.sizeBytes = 32 * 1024 * 1024; // the paper's Fig. 2 probe
    const RunResult r_small = simulate(small, wl.kernel);
    const RunResult r_big = simulate(big, wl.kernel);
    EXPECT_LT(r_big.l1.missRate(), r_small.l1.missRate());
    EXPECT_LE(r_big.cycles, r_small.cycles);
}

} // namespace
} // namespace apres
