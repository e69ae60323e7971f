/**
 * @file
 * Tracer tests: ring-buffer mechanics, Chrome JSON shape, and the
 * golden-trace regression suite.
 *
 * The golden suite pins the *event sequence* — the order of typed
 * events (type/pc/warp) per lane, not wall timestamps — of fixed-seed
 * KM/NW mini-kernels under GTO+none and LAWS+SAP against checked-in
 * files in tests/golden/. The sequence is part of the simulator's
 * contract: an engine change that reorders L1 outcomes or LAWS group
 * moves is a behaviour change even when aggregate stats survive.
 * Regenerate after an intentional change with
 * scripts/regen_golden_traces.py (wraps this binary's regen mode,
 * enabled by the APRES_REGEN_GOLDEN environment variable).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/trace.hpp"
#include "isa/address_gen.hpp"
#include "isa/kernel.hpp"
#include "sim/gpu.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

/**
 * Events pinned per lane. Mini-kernel runs stay well under the default
 * ring capacity (the tests assert zero drops), so this prefix is a
 * stable window from cycle 0.
 */
constexpr std::size_t kGoldenEventsPerLane = 250;

GpuConfig
traceGpu(const std::string& sched, const std::string& pf)
{
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.scheduler = sched;
    cfg.prefetcher = pf;
    cfg.maxCycles = 2'000'000;
    cfg.trace = true;
    return cfg;
}

/** One golden case: a Table IV mini-kernel under one policy pair. */
struct TraceCase
{
    const char* workload;
    const char* sched;
    const char* pf;
};

std::string
goldenFileName(const TraceCase& c)
{
    return std::string("trace_") + c.workload + "_" + c.sched + "_" +
           c.pf + ".txt";
}

/**
 * Golden directory: the checked-in tests/golden by default, but
 * overridable at run time so tooling (scripts/regen_golden_traces.py
 * --golden-dir, and its ctest smoke test) can regenerate into a
 * scratch directory without touching the committed files.
 */
std::string
goldenDir()
{
    if (const char* env = std::getenv("APRES_TRACE_GOLDEN_DIR"))
        return env;
    return APRES_TRACE_GOLDEN_DIR;
}

/** Run the case and return the truncated event summary. */
std::string
runTraceCase(const TraceCase& c)
{
    const Workload wl = makeWorkload(c.workload, 0.02);
    const GpuConfig cfg = traceGpu(c.sched, c.pf);
    Gpu gpu(cfg, wl.kernel);
    const RunResult r = gpu.run();
    EXPECT_TRUE(r.completed) << c.workload;
    const Tracer* t = gpu.tracer();
    EXPECT_NE(t, nullptr);
    if (t == nullptr)
        return {};
    // A drop would shift the retained window and invalidate the golden
    // prefix; mini-kernels must fit the default ring.
    EXPECT_EQ(t->dropped(), 0u) << c.workload;
    EXPECT_GT(t->recorded(), 0u) << c.workload;
    return t->eventSummary(kGoldenEventsPerLane);
}

class GoldenTrace : public ::testing::TestWithParam<TraceCase>
{
};

TEST_P(GoldenTrace, EventSequenceMatchesGoldenFile)
{
    const TraceCase c = GetParam();
    const std::string path = goldenDir() + "/" + goldenFileName(c);
    const std::string summary = runTraceCase(c);
    ASSERT_FALSE(summary.empty());

    if (std::getenv("APRES_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << summary;
        GTEST_LOG_(INFO) << "regenerated " << path;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run scripts/regen_golden_traces.py";
    std::ostringstream golden;
    golden << in.rdbuf();

    if (summary == golden.str()) {
        SUCCEED();
        return;
    }
    // Point at the first diverging line; dumping both full summaries
    // would drown the signal.
    std::istringstream a(golden.str());
    std::istringstream b(summary);
    std::string la;
    std::string lb;
    std::size_t line = 0;
    while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        if (!ga && !gb)
            break;
        if (!ga || !gb || la != lb) {
            FAIL() << goldenFileName(c) << " diverges at line " << line
                   << ":\n  golden: " << (ga ? la : "<eof>")
                   << "\n  actual: " << (gb ? lb : "<eof>")
                   << "\nIf the change is intentional, rerun "
                      "scripts/regen_golden_traces.py";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    KmNwMiniKernels, GoldenTrace,
    ::testing::Values(TraceCase{"KM", "gto", "none"},
                      TraceCase{"KM", "laws", "sap"},
                      TraceCase{"NW", "gto", "none"},
                      TraceCase{"NW", "laws", "sap"}),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
        return std::string(info.param.workload) + "_" +
               info.param.sched + "_" + info.param.pf;
    });

// ---------------------------------------------------------------------
// Tracer mechanics
// ---------------------------------------------------------------------

TEST(Tracer, RingKeepsNewestAndCountsDrops)
{
    Tracer t(/*num_sms=*/1, /*capacity_per_lane=*/4);
    for (std::uint64_t i = 0; i < 6; ++i) {
        t.record(0, TraceEventType::kWarpIssue, /*cycle=*/i,
                 /*pc=*/static_cast<Pc>(i), /*warp=*/0);
    }
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.retained(), 4u);
    EXPECT_EQ(t.dropped(), 2u);
    // Oldest-first within the lane, and the two oldest are gone.
    EXPECT_EQ(t.eventSummary(), "sm0 warp-issue pc=2 warp=0\n"
                                "sm0 warp-issue pc=3 warp=0\n"
                                "sm0 warp-issue pc=4 warp=0\n"
                                "sm0 warp-issue pc=5 warp=0\n");
}

TEST(Tracer, SummaryTruncatesPerLaneAndSkipsEngine)
{
    Tracer t(1, 16);
    for (std::uint64_t i = 0; i < 8; ++i)
        t.record(0, TraceEventType::kL1Hit, i, 4, 1);
    t.record(t.engineLane(), TraceEventType::kFfIdleSpan, 100,
             kInvalidPc, kInvalidWarp, 50);
    t.record(t.memLane(), TraceEventType::kDramService, 101, 8, 2);
    const std::string s = t.eventSummary(/*max_per_lane=*/2);
    EXPECT_EQ(s, "sm0 l1-hit pc=4 warp=1\n"
                 "sm0 l1-hit pc=4 warp=1\n"
                 "mem dram-service pc=8 warp=2\n");
    EXPECT_EQ(t.laneLabel(0), "sm0");
    EXPECT_EQ(t.laneLabel(t.memLane()), "mem");
    EXPECT_EQ(t.laneLabel(t.engineLane()), "engine");
}

TEST(Tracer, EveryEventTypeHasAStableName)
{
    // The golden files spell these names; renaming one is a contract
    // change and must show up here, not only as a golden-file diff.
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kWarpIssue),
                 "warp-issue");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kSchedulerIdle),
                 "scheduler-idle");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kL1Hit), "l1-hit");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kL1Miss), "l1-miss");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kL1Bypass),
                 "l1-bypass");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kMshrMerge),
                 "mshr-merge");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kDramService),
                 "dram-service");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kLawsGroupPromote),
                 "laws-group-promote");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kLawsGroupDemote),
                 "laws-group-demote");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kSapPtTrain),
                 "sap-pt-train");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kSapStrideMatch),
                 "sap-stride-match");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kSapPrefetchIssue),
                 "sap-prefetch-issue");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kSapWqDrain),
                 "sap-wq-drain");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::kFfIdleSpan),
                 "ff-idle-span");
}

// ---------------------------------------------------------------------
// End-to-end behaviour
// ---------------------------------------------------------------------

TEST(Trace, OffByDefault)
{
    const Workload wl = makeWorkload("KM", 0.02);
    GpuConfig cfg = traceGpu("gto", "none");
    cfg.trace = false;
    Gpu gpu(cfg, wl.kernel);
    gpu.run();
    EXPECT_EQ(gpu.tracer(), nullptr);
    EXPECT_EQ(gpu.metrics(), nullptr);
}

TEST(Trace, ChromeJsonHasLanesEventsAndStats)
{
    const Workload wl = makeWorkload("KM", 0.02);
    Gpu gpu(traceGpu("laws", "sap"), wl.kernel);
    gpu.run();
    std::ostringstream os;
    gpu.writeTrace(os);
    const std::string json = os.str();
    // Structural validity is checked by `python -m json.tool` in CI;
    // here pin the document's shape and lane naming.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.find_last_not_of(" \n"),
              json.rfind('}')); // document closes cleanly
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    for (const char* lane : {"sm0", "sm1", "mem", "engine"})
        EXPECT_NE(json.find("\"name\": \"" + std::string(lane) + "\""),
                  std::string::npos)
            << lane;
    EXPECT_NE(json.find("\"warp-issue\""), std::string::npos);
    EXPECT_NE(json.find("\"recorded\""), std::string::npos);
}

TEST(Trace, TraceFileIsWrittenOnRunCompletion)
{
    const Workload wl = makeWorkload("NW", 0.02);
    GpuConfig cfg = traceGpu("gto", "none");
    cfg.traceFile = ::testing::TempDir() + "apres_trace_test.json";
    {
        Gpu gpu(cfg, wl.kernel);
        gpu.run();
    }
    std::ifstream in(cfg.traceFile);
    ASSERT_TRUE(in) << cfg.traceFile;
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_FALSE(os.str().empty());
    EXPECT_EQ(os.str().front(), '{');
}

TEST(Trace, FastForwardEmitsSameEventSequenceAsNaive)
{
    // The ff engine only skips provably issue-free cycles, so the
    // machine-behaviour lanes (the engine lane is excluded from the
    // summary) must be identical event-for-event, not merely
    // stat-equivalent.
    const Workload wl = makeWorkload("KM", 0.02);
    GpuConfig ff = traceGpu("laws", "sap");
    ff.fastForward = true;
    GpuConfig naive = ff;
    naive.fastForward = false;

    Gpu a(ff, wl.kernel);
    a.run();
    Gpu b(naive, wl.kernel);
    b.run();
    ASSERT_NE(a.tracer(), nullptr);
    ASSERT_NE(b.tracer(), nullptr);
    EXPECT_EQ(a.tracer()->eventSummary(), b.tracer()->eventSummary());
}

/**
 * The SLD-style streaming kernel: every iteration loads one fresh,
 * perfectly coalesced 128 B line (warps walk disjoint 1 MB
 * macro-blocks sequentially) and feeds it through a short dependent
 * ALU chain. The loop-carried WAW on the load destination caps each
 * warp at one outstanding load, so at 4 warps/SM the machine is
 * latency-bound: SMs spend most cycles with every warp stalled on
 * DRAM.
 */
Kernel
makeSldStreamKernel(std::uint64_t trip_count)
{
    KernelBuilder b("SLD-stream");
    const int v = b.load(
        std::make_unique<StridedGen>(Addr{0x1000'0000}, /*warp_stride=*/
                                     std::int64_t{1} << 20,
                                     /*iter_stride=*/128));
    b.alu({v}, /*count=*/2);
    return b.build(trip_count);
}

/** ff-idle-span events of one lane in a Chrome trace document. */
struct IdleSpans
{
    std::uint64_t count = 0;
    std::uint64_t cycles = 0; ///< summed span durations
};

IdleSpans
idleSpansOnLane(const std::string& json, int lane)
{
    // Both fields precede the event's nested "args" object.
    const auto field = [&json](std::size_t event, const std::string& key) {
        const std::string tag = "\"" + key + "\": ";
        const std::size_t at = json.find(tag, event);
        if (at == std::string::npos)
            throw std::out_of_range("span without \"" + key + "\"");
        return std::stoull(json.substr(at + tag.size(), 20));
    };
    IdleSpans spans;
    const std::string name = "\"ff-idle-span\"";
    for (std::size_t at = json.find(name); at != std::string::npos;
         at = json.find(name, at + 1)) {
        if (field(at, "pid") != static_cast<std::uint64_t>(lane))
            continue;
        ++spans.count;
        spans.cycles += field(at, "dur");
    }
    return spans;
}

TEST(Trace, FastForwardJumpsMostOfALatencyBoundRun)
{
    // On a latency-bound stream (15 SMs x 4 warps, every warp waiting
    // on DRAM most of the time) the global jump must skip at least 90%
    // of simulated time. The equivalence suites would still pass if
    // the jump never fired.
    const Kernel kernel = makeSldStreamKernel(/*trip_count=*/200);
    GpuConfig cfg;
    cfg.sm.warpsPerSm = 4;
    cfg.sm.warpsPerBlock = 4;
    cfg.trace = true;
    // SM lanes may drop their oldest events; the engine lane must
    // keep every span (checked below), and the document stays small.
    cfg.traceBufferEvents = 8192;

    for (const bool ff : {true, false}) {
        cfg.fastForward = ff;
        Gpu gpu(cfg, kernel);
        const RunResult r = gpu.run();
        ASSERT_TRUE(r.completed);
        std::ostringstream os;
        gpu.writeTrace(os);
        const IdleSpans spans =
            idleSpansOnLane(os.str(), gpu.tracer()->engineLane());
        if (!ff) {
            EXPECT_EQ(spans.count, 0u) << "the naive engine jumped";
            continue;
        }
        ASSERT_LT(spans.count, cfg.traceBufferEvents)
            << "engine lane wrapped; spans were lost";
        EXPECT_GE(static_cast<double>(spans.cycles),
                  0.9 * static_cast<double>(r.cycles))
            << spans.count << " spans cover " << spans.cycles << " of "
            << r.cycles << " cycles";
    }
}

TEST(Trace, IdenticalAcrossParallelSweepJobs)
{
    // The acceptance bar for golden traces: a --jobs parallel sweep
    // yields byte-identical traces to the sequential sweep, per job
    // (each job runs its config exactly as submitted and results come
    // back in submission order, so slot i is comparable across thread
    // counts).
    const auto kernel =
        std::make_shared<const Kernel>(makeWorkload("KM", 0.02).kernel);

    const auto sweepSummaries = [&](int threads) {
        RunnerOptions opts;
        opts.threads = threads;
        SweepRunner runner(opts);
        std::vector<std::string> summaries(3);
        for (std::size_t i = 0; i < summaries.size(); ++i) {
            SweepJob job;
            job.label = "job" + std::to_string(i);
            job.config = traceGpu("laws", "sap");
            job.kernel = kernel;
            job.drive = [&summaries, i](Gpu& gpu) {
                const RunResult r = gpu.run();
                summaries[i] = gpu.tracer()->eventSummary();
                return r;
            };
            runner.submit(std::move(job));
        }
        runner.runAll();
        return summaries;
    };

    const std::vector<std::string> sequential = sweepSummaries(1);
    const std::vector<std::string> parallel = sweepSummaries(3);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_FALSE(sequential[i].empty()) << i;
        EXPECT_EQ(sequential[i], parallel[i]) << "job " << i;
    }
}

} // namespace
} // namespace apres
