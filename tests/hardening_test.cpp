/**
 * @file
 * Hardened-core tests: the invariant auditor (seeded fault
 * injections must be detected), the forward-progress watchdog, the
 * barrier early-exit regression, and fault-isolated sweeps
 * (error/timeout rows; every sweep runs to the end).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apres/laws.hpp"
#include "apres/sap.hpp"
#include "isa/address_gen.hpp"
#include "isa/kernel.hpp"
#include "sched/ccws.hpp"
#include "sim/gpu.hpp"
#include "sim/policy_registry.hpp"
#include "sim/runner.hpp"
#include "sim/timeline.hpp"
#include "sim_error_matchers.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

GpuConfig
auditedGpu()
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.scheduler = "laws";
    cfg.prefetcher = "sap";
    cfg.audit = true;
    cfg.auditInterval = 1'000;
    cfg.maxCycles = 2'000'000;
    return cfg;
}

std::shared_ptr<const Kernel>
smallKernel()
{
    return std::make_shared<const Kernel>(makeWorkload("SP", 0.05).kernel);
}

// --------------------------------------------------------------------
// Auditor: clean runs audit clean; injected faults are detected.
// --------------------------------------------------------------------

TEST(Auditor, CleanRunPassesWithAuditsOn)
{
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.completed);
    // The audit cadence actually fired; a run that never audits would
    // vacuously "pass".
    EXPECT_GT(gpu.auditPasses(), 0u);
}

TEST(Auditor, CorruptedWgtEntryIsDetected)
{
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    auto* laws = dynamic_cast<LawsScheduler*>(&gpu.schedulerForTest(0));
    ASSERT_NE(laws, nullptr);

    // Inject a group entry naming a warp the machine does not have
    // (bit 63 with warpsPerSm = 8) and a PC that is not a static load.
    WarpGroupTable::Entry& e = laws->wgtForTest().entryForTest(0);
    e.valid = true;
    e.owner = 0;
    e.pc = 0x9999;
    e.members = WarpMask::ofWord(std::uint64_t{1} << 63);

    expectSimError(SimErrorKind::kInvariant, "invariant audit failed",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, CorruptedLawsQueueIsDetected)
{
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    auto* laws = dynamic_cast<LawsScheduler*>(&gpu.schedulerForTest(0));
    ASSERT_NE(laws, nullptr);

    // Drop a running warp from the queue: it could never issue again.
    laws->queueForTest().remove(3);
    expectSimError(SimErrorKind::kInvariant, "LAWS queue misses unfinished",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, CorruptedCcwsAgeOrderIsDetected)
{
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.scheduler = "ccws";
    cfg.prefetcher = "none";
    Gpu gpu(cfg, *kernel);
    auto* ccws = dynamic_cast<CcwsScheduler*>(&gpu.schedulerForTest(0));
    ASSERT_NE(ccws, nullptr);

    // Move the oldest warp to the tail without giving it a new stamp:
    // throttling would then suspend it before younger warps.
    ccws->ageOrderForTest().pushBack(0);
    expectSimError(SimErrorKind::kInvariant, "CCWS age order",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, OversizedSapPageTableIsDetected)
{
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    auto* sap = dynamic_cast<SapPrefetcher*>(gpu.prefetcherForTest(0));
    ASSERT_NE(sap, nullptr);

    // Grow the PT past the paper's 10-entry bound (Table IV).
    sap->debugOversizePtForTest(4);
    expectSimError(SimErrorKind::kInvariant, "invariant audit failed",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, CorruptedL1TagArrayIsDetected)
{
    // Smash one entry of the L1's SoA tag array: the same line
    // address planted in two ways of one set is a state no legal
    // access/fill/evict sequence can produce, and the tag-array
    // audit (wired into Sm::auditInvariants) must flag it even if
    // the bogus tag happens to index to that set.
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    const Addr bogus = Addr{0xdead} * 128;
    gpu.smForTest(0).l1Mutable().corruptTagForTest(0, 0, bogus);
    gpu.smForTest(0).l1Mutable().corruptTagForTest(0, 1, bogus);
    expectSimError(SimErrorKind::kInvariant, "invariant audit failed",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, CorruptedL2TagArrayIsDetected)
{
    // The L2 partitions are the same Cache model as the L1s, so the
    // auditor walks their tag arrays too, not only the SMs' L1s.
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    Cache& l2 = gpu.memsysForTest().l2ForTest(0);
    const Addr bogus = Addr{0xdead} * 128;
    l2.corruptTagForTest(0, 0, bogus);
    l2.corruptTagForTest(0, 1, bogus);
    expectSimError(SimErrorKind::kInvariant, "l2p0 set 0: duplicate tag",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, CorruptedCacheSlotIndexIsDetected)
{
    // A set owns tag/payload storage through its slot index entry; two
    // sets sharing one slot would alias each other's lines, a state no
    // fill can produce.
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    gpu.step(5'000);
    Cache& l1 = gpu.smForTest(0).l1Mutable();
    ASSERT_GE(l1.filledSets(), 1u);
    l1.corruptSlotForTest(0, 0);
    l1.corruptSlotForTest(1, 0);
    expectSimError(SimErrorKind::kInvariant, "is owned by another set",
                   [&] { gpu.auditNow(); });
}

TEST(Auditor, SkippedIssueableCycleIsDetected)
{
    // Corrupt the fast-forward ready-scan cache into claiming no warp
    // can issue until far in the future, while warps are in fact
    // issueable right now — the exact bug class the skip-window audit
    // exists to catch.
    const auto kernel = smallKernel();
    Gpu gpu(auditedGpu(), *kernel);
    gpu.smForTest(0).debugForceReadyClean(gpu.now() + 1'000'000);
    expectSimError(SimErrorKind::kInvariant, "invariant audit failed",
                   [&] { gpu.auditNow(); });
}

// --------------------------------------------------------------------
// Watchdog: a machine making no progress dies loudly, with a report.
// --------------------------------------------------------------------

/** A scheduler that never picks: every warp starves. */
class WedgeScheduler final : public Scheduler
{
  public:
    void attach(SmContext&) override {}
    WarpId pick(Cycle, const std::vector<WarpId>&) override
    {
        return kInvalidWarp;
    }
    const char* name() const override { return "wedge"; }
};

void
registerWedgeScheduler()
{
    static const bool once = [] {
        registerScheduler("wedge",
                          [](const GpuConfig&) -> std::unique_ptr<Scheduler> {
                              return std::make_unique<WedgeScheduler>();
                          });
        return true;
    }();
    (void)once;
}

TEST(Watchdog, WedgedSchedulerTriggersDeadlockError)
{
    registerWedgeScheduler();
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;
    cfg.scheduler = "wedge";
    cfg.prefetcher = "none";
    cfg.watchdogCycles = 20'000;
    cfg.maxCycles = 100'000'000;

    try {
        simulate(cfg, *kernel);
        FAIL() << "expected DeadlockError";
    } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimErrorKind::kDeadlock);
        const std::string what = e.what();
        EXPECT_NE(what.find("no forward progress"), std::string::npos)
            << what;
        // The per-warp stall report rides along for diagnosis.
        EXPECT_NE(what.find("warp"), std::string::npos) << what;
    }
}

TEST(Watchdog, HealthyRunsAreUntouched)
{
    // A tight-but-sufficient watchdog never fires on a live machine.
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;
    cfg.watchdogCycles = 100'000;
    const RunResult r = simulate(cfg, *kernel);
    EXPECT_TRUE(r.completed);
}

TEST(Watchdog, EveryEngineGivesTheSameVerdict)
{
    // The watchdog fires only once watchdogCycles whole cycles pass
    // with no issue and no delivery. A one-warp-per-SM load chain sits
    // idle for a memory round trip after every load, so sweeping the
    // watchdog across that gap must fire below it and complete above
    // it — at the same value, with the same report, under the naive,
    // fast-forward and sharded engines.
    KernelBuilder b("load-chain");
    const int v = b.load(std::make_unique<StridedGen>(
        Addr{0x1000'0000}, std::int64_t{1} << 20, std::int64_t{1} << 16));
    b.alu({v});
    const Kernel kernel = b.build(/*trip_count=*/4);

    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 1;
    cfg.sm.warpsPerBlock = 1;
    cfg.sm.jobsPerWarp = 1;
    cfg.maxCycles = 100'000;
    const auto outcome = [&](std::uint64_t watchdog, bool ff, int shards) {
        GpuConfig c = cfg;
        c.watchdogCycles = watchdog;
        c.fastForward = ff;
        c.shards = shards;
        try {
            return "completed at cycle " +
                std::to_string(simulate(c, kernel).cycles);
        } catch (const SimError& e) {
            return std::string(e.what());
        }
    };

    bool fired = false;
    bool completed = false;
    for (std::uint64_t watchdog = 400; watchdog <= 500; ++watchdog) {
        const std::string ff = outcome(watchdog, true, 1);
        EXPECT_EQ(outcome(watchdog, false, 1), ff) << "naive at " << watchdog;
        EXPECT_EQ(outcome(watchdog, true, 2), ff) << "2 shards at " << watchdog;
        (ff.rfind("completed", 0) == 0 ? completed : fired) = true;
    }
    EXPECT_TRUE(fired);
    EXPECT_TRUE(completed);
}

TEST(Timeline, WedgedSchedulerThrowsDeadlock)
{
    // The recorder steps the real engine, watchdog included: a wedged
    // machine dies loudly instead of sampling idle rows to maxCycles.
    registerWedgeScheduler();
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;
    cfg.scheduler = "wedge";
    cfg.prefetcher = "none";
    cfg.watchdogCycles = 5'000;
    Gpu gpu(cfg, *kernel);
    TimelineRecorder recorder(1'000);
    expectSimError(SimErrorKind::kDeadlock, "no forward progress",
                   [&] { recorder.record(gpu); });
}

// --------------------------------------------------------------------
// Barrier early-exit regression: a warp finishing while its siblings
// wait at a barrier must lower the release threshold.
// --------------------------------------------------------------------

TEST(Barrier, EarlyExitingWarpReleasesSiblings)
{
    // Warps 0-2 barrier every trip; warp 3 is not a participant, races
    // through all trips and exits while its siblings are parked. The
    // pre-fix arrival-time live count waited for 4 arrivals forever.
    KernelBuilder b("early-exit");
    const int v = b.load(std::make_unique<StridedGen>(
        Addr{0x1000'0000}, std::int64_t{1} << 16, 128));
    b.barrier(/*participant_mask=*/0x7);
    b.alu({v}, 2);
    const Kernel kernel = b.build(/*trip_count=*/10);

    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 4;
    cfg.sm.warpsPerBlock = 4;
    cfg.sm.jobsPerWarp = 1;
    cfg.maxCycles = 2'000'000;
    // A regression deadlocks; make it fail fast and loudly instead of
    // spinning to the cycle cap.
    cfg.watchdogCycles = 500'000;
    const RunResult r = simulate(cfg, kernel);
    EXPECT_TRUE(r.completed);
}

// --------------------------------------------------------------------
// Fault-isolated sweeps: error/timeout rows, every job runs.
// --------------------------------------------------------------------

TEST(Runner, KeepGoingConvertsFailuresToErrorRows)
{
    registerWedgeScheduler();
    const auto kernel = smallKernel();

    GpuConfig ok = auditedGpu();
    ok.audit = false;

    GpuConfig broken = ok;
    broken.scheduler = "gto";
    broken.prefetcher = "sap"; // SAP without LAWS: ConfigError

    GpuConfig wedged = ok;
    wedged.scheduler = "wedge";
    wedged.prefetcher = "none";
    wedged.watchdogCycles = 0;          // nothing stops it...
    wedged.maxCycles = Cycle{1} << 40;  // ...except the job deadline

    RunnerOptions opts;
    opts.threads = 1;
    opts.jobTimeoutSeconds = 0.25;
    SweepRunner runner(opts);
    runner.submit("ok-job", ok, kernel);
    runner.submit("broken-job", broken, kernel);
    runner.submit("wedged-job", wedged, kernel);

    const std::vector<SweepResult> results = runner.runAll();
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[0].result.status, "ok");
    EXPECT_TRUE(results[0].result.completed);

    EXPECT_EQ(results[1].result.status, "error");
    EXPECT_EQ(results[1].result.errorKind, "ConfigError");
    EXPECT_NE(results[1].result.errorDetail.find("LAWS"),
              std::string::npos);

    EXPECT_EQ(results[2].result.status, "timeout");
    EXPECT_EQ(results[2].result.errorKind, "Timeout");
    EXPECT_NE(results[2].result.errorDetail.find("deadline"),
              std::string::npos);

    const std::string summary = failureSummary(results);
    EXPECT_NE(summary.find("2 of 3"), std::string::npos) << summary;
    EXPECT_NE(summary.find("broken-job"), std::string::npos) << summary;
    EXPECT_NE(summary.find("wedged-job"), std::string::npos) << summary;
}

TEST(Runner, EveryJobRunsPastAFailure)
{
    const auto kernel = smallKernel();
    GpuConfig ok = auditedGpu();
    ok.audit = false;
    GpuConfig broken = ok;
    broken.scheduler = "gto";
    broken.prefetcher = "sap"; // SAP without LAWS: ConfigError

    // Default options on one worker: the failed job runs first, and
    // the clean one after it must still run.
    RunnerOptions opts;
    opts.threads = 1;
    SweepRunner runner(opts);
    runner.submit("broken-job", broken, kernel);
    runner.submit("ok-job", ok, kernel);

    std::vector<SweepResult> results;
    ASSERT_NO_THROW(results = runner.runAll());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].result.status, "error");
    EXPECT_EQ(results[0].result.errorKind, "ConfigError");
    EXPECT_EQ(results[1].result.status, "ok");
    EXPECT_TRUE(results[1].result.completed);
}

TEST(Runner, DeadlockBecomesErrorRowUnderKeepGoing)
{
    registerWedgeScheduler();
    const auto kernel = smallKernel();
    GpuConfig wedged = auditedGpu();
    wedged.audit = false;
    wedged.scheduler = "wedge";
    wedged.prefetcher = "none";
    wedged.watchdogCycles = 5'000;

    RunnerOptions opts;
    opts.threads = 1;
    SweepRunner runner(opts);
    runner.submit("wedged-job", wedged, kernel);

    const std::vector<SweepResult> results = runner.runAll();
    ASSERT_EQ(results.size(), 1u);
    // The watchdog's deadlock lands as an error row, not an exception,
    // and the run that failed is still timed.
    EXPECT_EQ(results[0].result.status, "error");
    EXPECT_EQ(results[0].result.errorKind, "DeadlockError");
    EXPECT_GT(results[0].wallSeconds, 0.0);
}

TEST(Runner, ConfigSeedModeMakesResultsPositionIndependent)
{
    // A job's result is a pure function of its configuration — the
    // property the service's content-addressed cache is built on. Run
    // the same config at slot 0 and slot 2 of different batches and
    // require identical stats.
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;

    GpuConfig other = cfg;
    other.sm.l1.sizeBytes = 65536;

    RunnerOptions opts;
    opts.threads = 2;

    SweepRunner first(opts);
    first.submit("probe", cfg, kernel);
    first.submit("fill-a", other, kernel);
    const std::vector<SweepResult> a = first.runAll();

    SweepRunner second(opts);
    second.submit("fill-a", other, kernel);
    second.submit("fill-b", other, kernel);
    second.submit("probe", cfg, kernel);
    const std::vector<SweepResult> b = second.runAll();

    const StatSet probe_first = a[0].result.toStatSet();
    const StatSet probe_second = b[2].result.toStatSet();
    EXPECT_EQ(probe_first.entries(), probe_second.entries());
}

// --------------------------------------------------------------------
// Parallel engine: every fault path is shard-count invariant — same
// typed SimError, same detail text, no matter how SMs are sharded.
// --------------------------------------------------------------------

/** Run @p cfg, require a SimError, return (kind, full what() text). */
std::pair<SimErrorKind, std::string>
captureSimError(const GpuConfig& cfg, const Kernel& kernel)
{
    try {
        simulate(cfg, kernel);
    } catch (const SimError& e) {
        return {e.kind(), e.what()};
    }
    ADD_FAILURE() << "expected a SimError, but the run completed";
    return {SimErrorKind::kConfig, ""};
}

TEST(ParallelFaults, WatchdogDeadlockTextIsShardInvariant)
{
    registerWedgeScheduler();
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;
    cfg.numSms = 4;
    cfg.scheduler = "wedge";
    cfg.prefetcher = "none";
    cfg.watchdogCycles = 20'000;
    cfg.maxCycles = 100'000'000;

    const auto [kind, what] = captureSimError(cfg, *kernel);
    EXPECT_EQ(kind, SimErrorKind::kDeadlock);
    EXPECT_NE(what.find("no forward progress"), std::string::npos) << what;

    for (int shards : {2, 3, 4}) {
        GpuConfig par_cfg = cfg;
        par_cfg.shards = shards;
        const auto [par_kind, par_what] = captureSimError(par_cfg, *kernel);
        EXPECT_EQ(par_kind, kind) << "shards=" << shards;
        EXPECT_EQ(par_what, what) << "shards=" << shards;
    }
}

TEST(ParallelFaults, InvariantViolationTextIsShardInvariant)
{
    // An auditor violation seeded in SM 3 — owned by the *last* shard
    // in every sharding below — must produce the identical report when
    // the periodic audit catches it, regardless of shard count: audits
    // fire at the same cycles, on identical machine state.
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.numSms = 4;

    const auto corruptAndRun = [&](int shards) {
        GpuConfig c = cfg;
        c.shards = shards;
        Gpu gpu(c, *kernel);
        auto* sap = dynamic_cast<SapPrefetcher*>(gpu.prefetcherForTest(3));
        EXPECT_NE(sap, nullptr);
        sap->debugOversizePtForTest(4);
        try {
            gpu.run();
        } catch (const SimError& e) {
            return std::pair<SimErrorKind, std::string>{e.kind(), e.what()};
        }
        ADD_FAILURE() << "expected kInvariant, shards=" << shards;
        return std::pair<SimErrorKind, std::string>{SimErrorKind::kConfig,
                                                    ""};
    };

    const auto [kind, what] = corruptAndRun(1);
    EXPECT_EQ(kind, SimErrorKind::kInvariant);
    EXPECT_NE(what.find("invariant audit failed"), std::string::npos)
        << what;

    for (int shards : {2, 4}) {
        const auto [par_kind, par_what] = corruptAndRun(shards);
        EXPECT_EQ(par_kind, kind) << "shards=" << shards;
        EXPECT_EQ(par_what, what) << "shards=" << shards;
    }
}

TEST(ParallelFaults, InterruptHookFiresAtIdenticalCycles)
{
    // The cooperative-interrupt poll (the sweep runner's job-deadline
    // mechanism) must observe the same simulated cycles under any
    // shard count, so a deterministic hook-thrown abort is also
    // shard-invariant.
    const auto kernel = smallKernel();
    GpuConfig cfg = auditedGpu();
    cfg.audit = false;
    cfg.numSms = 4;

    const auto pollCycles = [&](int shards) {
        GpuConfig c = cfg;
        c.shards = shards;
        Gpu gpu(c, *kernel);
        std::vector<Cycle> polls;
        gpu.setInterruptCheck([&] { polls.push_back(gpu.now()); });
        gpu.run();
        return polls;
    };

    const std::vector<Cycle> serial = pollCycles(1);
    for (int shards : {2, 3, 4})
        EXPECT_EQ(pollCycles(shards), serial) << "shards=" << shards;
}

TEST(ParallelFaults, RunnerTimeoutRowUnderSharding)
{
    // A wedged job must still land as a timeout row when the Gpu under
    // the executor runs the parallel engine: the interrupt hook aborts
    // it cooperatively and the worker threads shut down cleanly.
    registerWedgeScheduler();
    const auto kernel = smallKernel();
    GpuConfig wedged = auditedGpu();
    wedged.audit = false;
    wedged.numSms = 2;
    wedged.shards = 2;
    wedged.scheduler = "wedge";
    wedged.prefetcher = "none";
    wedged.watchdogCycles = 0;
    wedged.maxCycles = Cycle{1} << 40;

    RunnerOptions opts;
    opts.threads = 1;
    opts.jobTimeoutSeconds = 0.25;
    SweepRunner runner(opts);
    runner.submit("wedged-par-job", wedged, kernel);
    const std::vector<SweepResult> results = runner.runAll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].result.status, "timeout");
    EXPECT_EQ(results[0].result.errorKind, "Timeout");
    EXPECT_NE(results[0].result.errorDetail.find("deadline"),
              std::string::npos);
}

TEST(Runner, FailureSummaryEmptyOnCleanSweep)
{
    const auto kernel = smallKernel();
    GpuConfig ok = auditedGpu();
    ok.audit = false;
    RunnerOptions opts;
    opts.threads = 2;
    SweepRunner runner(opts);
    runner.submit("a", ok, kernel);
    runner.submit("b", ok, kernel);
    const std::vector<SweepResult> results = runner.runAll();
    EXPECT_EQ(failureSummary(results), "");
    for (const SweepResult& r : results)
        EXPECT_EQ(r.result.status, "ok");
}

} // namespace
} // namespace apres
