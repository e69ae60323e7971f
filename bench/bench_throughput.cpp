/**
 * @file
 * Simulator-throughput bench: simulated cycles per wall-second across
 * the three engines (BENCH_throughput) — the naive cycle-by-cycle
 * loop (sim.fastForward=false, the oracle), the event-driven
 * fast-forward engine, and the sharded parallel epoch engine
 * (sim.shards, --shards column).
 *
 * Each scenario's runs report cycles/sec plus the ff-over-naive and
 * parallel-over-ff speedups. All runs' full RunResult::toStatSet()
 * dumps are compared entry-by-entry as a built-in equivalence check:
 * any divergence fails the bench, because an engine is only a win if
 * it is *free* in simulation semantics.
 *
 * Scenarios cover the two regimes the engine sees:
 *  - "SLD-stream" — the headline memory-bound scenario: an SLD-style
 *    streaming kernel (sequential 128 B lines through per-warp
 *    macro-blocks, one outstanding load per warp) at 4 warps/SM.
 *    Latency-bound: SMs sit stalled for most cycles and the engine
 *    jumps response-to-response. This is where the >= 3x acceptance
 *    bar is measured.
 *  - "KM" / "NW" at full Table III occupancy (48 warps/SM) —
 *    bandwidth-saturated; skips are short, the win is smaller and
 *    comes mostly from the per-SM ready-scan cache.
 *  - "KM-fullchip" — 80 SMs x 64 warps/SM (2048 threads/SM), the
 *    machine size the parallel engine targets; the naive run is
 *    skipped (it adds minutes and no information) and the headline
 *    number is the parallel-over-ff speedup.
 *
 * Output: a table on stdout and a JSON document (default
 * BENCH_throughput.json) for the CI regression gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/profile.hpp"
#include "isa/address_gen.hpp"
#include "isa/kernel.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace apres::bench {
namespace {

/** One throughput measurement scenario. */
struct Scenario
{
    std::string name;
    GpuConfig config;
    std::shared_ptr<const Kernel> kernel;
    std::shared_ptr<const Workload> workload; // keeps kernel alive

    /**
     * Skip the naive cycle-by-cycle run (full-chip scenarios: the
     * naive loop is 10-100x slower there and adds nothing — the
     * ff-vs-naive equivalence is already measured on the small
     * scenarios and pinned by the test suite).
     */
    bool skipNaive = false;
};

/** One shard count's timing within a scenario's sweep. */
struct ShardPoint
{
    int shards = 0;
    double parSeconds = 0.0;
};

/** Result of the serial / fast-forward / parallel runs of a scenario. */
struct Measurement
{
    std::string name;
    Cycle cycles = 0;
    bool naiveSkipped = false; ///< naive run not performed (full chip)
    double naiveSeconds = 0.0; ///< meaningless when naiveSkipped
    double ffSeconds = 0.0;
    double parSeconds = 0.0;   ///< best sweep point (ff on)
    int shards = 1;            ///< shard count of the best sweep point
    std::vector<ShardPoint> sweep; ///< every shard count tried
    bool identical = false;    ///< naive == ff == parallel, bitwise

    double naiveCyclesPerSec() const
    {
        return naiveSeconds > 0.0
                   ? static_cast<double>(cycles) / naiveSeconds
                   : 0.0;
    }
    double ffCyclesPerSec() const
    {
        return ffSeconds > 0.0 ? static_cast<double>(cycles) / ffSeconds
                               : 0.0;
    }
    double parCyclesPerSec() const
    {
        return parSeconds > 0.0 ? static_cast<double>(cycles) / parSeconds
                                : 0.0;
    }
    double speedup() const
    {
        return ffSeconds > 0.0 ? naiveSeconds / ffSeconds : 0.0;
    }
    /** Parallel-engine speedup over the serial fast-forward engine. */
    double parSpeedup() const
    {
        return parSeconds > 0.0 ? ffSeconds / parSeconds : 0.0;
    }
};

/**
 * The SLD-style streaming kernel: every iteration loads one fresh,
 * perfectly coalesced 128 B line (warps walk disjoint 1 MB
 * macro-blocks sequentially — the access shape the SLD prefetcher
 * targets) and feeds it through a short dependent ALU chain. The
 * loop-carried WAW on the load destination caps each warp at one
 * outstanding load, so at 4 warps/SM the machine is latency-bound:
 * SMs spend most cycles with every warp stalled on DRAM.
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

std::vector<Scenario>
makeScenarios(double scale)
{
    std::vector<Scenario> scenarios;

    {
        Scenario s;
        s.name = "SLD-stream";
        s.config = baselineConfig();
        s.config.sm.warpsPerSm = 4;
        s.config.sm.warpsPerBlock = 4;
        const auto trips = static_cast<std::uint64_t>(2000 * scale);
        s.kernel = std::make_shared<const Kernel>(
            makeSldStreamKernel(trips < 1 ? 1 : trips));
        scenarios.push_back(std::move(s));
    }
    for (const char* name : {"KM", "NW"}) {
        Scenario s;
        s.name = name;
        s.config = baselineConfig();
        s.workload = loadWorkload(name, scale);
        s.kernel = kernelOf(s.workload);
        scenarios.push_back(std::move(s));
    }
    {
        // Full-chip scale: 80 SMs x 64 warps (2048 threads/SM) — the
        // machine size the parallel epoch engine exists for. Serial
        // engines crawl here, so the naive run is skipped and the
        // headline number is the parallel-over-ff speedup.
        Scenario s;
        s.name = "KM-fullchip";
        s.config = baselineConfig();
        s.config.numSms = 80;
        s.config.sm.warpsPerSm = 64;
        s.config.sm.warpsPerBlock = 64;
        s.workload = loadWorkload("KM", scale);
        s.kernel = kernelOf(s.workload);
        s.skipNaive = true;
        scenarios.push_back(std::move(s));
    }
    return scenarios;
}

/** Wall-clock one run; @return (result, seconds). */
std::pair<RunResult, double>
timedRun(const GpuConfig& config, const Kernel& kernel)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunResult result = simulate(config, kernel);
    const auto t1 = std::chrono::steady_clock::now();
    return {std::move(result),
            std::chrono::duration<double>(t1 - t0).count()};
}

/** Entry-by-entry comparison; prints the first divergence. */
bool
statSetsIdentical(const std::string& name, const RunResult& naive,
                  const RunResult& ff)
{
    const StatSet naive_stats = naive.toStatSet();
    const StatSet ff_stats = ff.toStatSet();
    const auto& a = naive_stats.entries();
    const auto& b = ff_stats.entries();
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (ia->first != ib->first || ia->second != ib->second) {
            std::cerr << "FAIL " << name << ": stat divergence at '"
                      << ia->first << "' naive=" << ia->second << " vs '"
                      << ib->first << "'=" << ib->second << "\n";
            return false;
        }
        ++ia;
        ++ib;
    }
    if (ia != a.end() || ib != b.end()) {
        std::cerr << "FAIL " << name << ": stat-set sizes differ ("
                  << a.size() << " vs " << b.size() << ")\n";
        return false;
    }
    return true;
}

/**
 * Shard counts to sweep: {2, 4, hardware threads}, deduplicated and
 * ascending. A fixed count from --shards overrides the sweep.
 */
std::vector<int>
shardSweep(int forced)
{
    if (forced > 0)
        return {forced};
    // One shard runs without workers or staging, so 2 is the smallest
    // count that exercises the staged, barriered epochs — even on a
    // single-core host.
    const int hw =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<int> counts{2, 4, hw};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
    return counts;
}

Measurement
measure(const Scenario& scenario, const std::vector<int>& sweep)
{
    Measurement m;
    m.name = scenario.name;
    m.naiveSkipped = scenario.skipNaive;

    GpuConfig ff_cfg = scenario.config;
    ff_cfg.fastForward = true;

    auto [ff_result, ff_s] = timedRun(ff_cfg, *scenario.kernel);
    m.cycles = ff_result.cycles;
    m.ffSeconds = ff_s;

    // Sweep shard counts; the best wall time is the headline parallel
    // number. Every sweep point must stay bitwise identical.
    m.identical = true;
    for (const int count : sweep) {
        GpuConfig par_cfg = ff_cfg;
        par_cfg.shards = count;
        auto [par_result, par_s] = timedRun(par_cfg, *scenario.kernel);
        m.identical =
            statSetsIdentical(scenario.name + " (parallel x" +
                                  std::to_string(count) + ")",
                              ff_result, par_result) &&
            m.identical;
        m.sweep.push_back(ShardPoint{count, par_s});
        if (m.parSeconds == 0.0 || par_s < m.parSeconds) {
            m.parSeconds = par_s;
            m.shards = count;
        }
    }
    if (!scenario.skipNaive) {
        GpuConfig naive_cfg = scenario.config;
        naive_cfg.fastForward = false;
        auto [naive_result, naive_s] =
            timedRun(naive_cfg, *scenario.kernel);
        m.naiveSeconds = naive_s;
        m.identical = statSetsIdentical(scenario.name, naive_result,
                                        ff_result) &&
                      m.identical;
    }
    return m;
}

void
writeJson(const std::string& path, double scale,
          const std::vector<Measurement>& measurements)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "throughput");
    json.field("scale", scale);
    json.field("hwThreads",
               static_cast<std::uint64_t>(std::max(
                   1u, std::thread::hardware_concurrency())));
    json.beginArray("scenarios");
    for (const Measurement& m : measurements) {
        json.beginObject();
        json.field("name", m.name);
        json.field("cycles", static_cast<std::uint64_t>(m.cycles));
        // A skipped naive run is flagged and its fields are omitted
        // entirely — a 0.0 would read as "infinitely slow" to any
        // consumer that divides by it.
        json.field("naiveSkipped", m.naiveSkipped);
        if (!m.naiveSkipped)
            json.field("naiveSeconds", m.naiveSeconds);
        json.field("ffSeconds", m.ffSeconds);
        json.field("parSeconds", m.parSeconds);
        json.field("shards", static_cast<std::uint64_t>(
                                 m.shards < 0 ? 0 : m.shards));
        if (!m.naiveSkipped)
            json.field("naiveCyclesPerSec", m.naiveCyclesPerSec());
        json.field("ffCyclesPerSec", m.ffCyclesPerSec());
        json.field("parCyclesPerSec", m.parCyclesPerSec());
        if (!m.naiveSkipped)
            json.field("speedup", m.speedup());
        json.field("parSpeedup", m.parSpeedup());
        json.beginArray("shardSweep");
        for (const ShardPoint& p : m.sweep) {
            json.beginObject();
            json.field("shards", static_cast<std::uint64_t>(p.shards));
            json.field("parSeconds", p.parSeconds);
            json.field("parCyclesPerSec",
                       p.parSeconds > 0.0
                           ? static_cast<double>(m.cycles) / p.parSeconds
                           : 0.0);
            json.endObject();
        }
        json.endArray();
        json.field("statsIdentical", m.identical);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    out << "\n";
}

/**
 * Re-run each scenario with the phase profiler enabled (one ff run,
 * one parallel run at its best shard count) and dump the per-phase
 * wall-time breakdown. Profiled runs are separate from the timed
 * ones, so rdtsc overhead never contaminates the throughput numbers.
 */
void
writeProfile(const std::string& path, double scale,
             const std::vector<Scenario>& scenarios,
             const std::vector<Measurement>& measurements)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", "throughput-profile");
    json.field("scale", scale);
    json.beginArray("scenarios");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const Scenario& scenario = scenarios[i];
        const int best_shards = measurements[i].shards;
        json.beginObject();
        json.field("name", scenario.name);
        json.beginArray("engines");
        for (const bool parallel : {false, true}) {
            GpuConfig cfg = scenario.config;
            cfg.fastForward = true;
            cfg.shards = parallel ? best_shards : 1;
            prof::enable();
            simulate(cfg, *scenario.kernel);
            prof::disable();
            const prof::Report rep = prof::report();
            json.beginObject();
            json.field("engine", parallel ? "parallel" : "ff");
            if (parallel) {
                json.field("shards",
                           static_cast<std::uint64_t>(best_shards));
            }
            json.field("wallSeconds", rep.wallSeconds);
            json.beginArray("phases");
            for (const prof::PhaseReport& phase : rep.phases) {
                json.beginObject();
                json.field("name", phase.name);
                json.field("seconds", phase.seconds);
                json.field("calls", phase.calls);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    out << "\n";
}

int
run(int argc, char** argv)
{
    double scale = benchScale();
    std::string out_path = "BENCH_throughput.json";
    std::string profile_path;
    int shards = 0; // 0 = sweep {2, 4, hw cores}
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scale" && i + 1 < argc) {
            scale = parseBenchScale(argv[++i], scale);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            profile_path = argv[++i];
        } else if (arg == "--shards" && i + 1 < argc) {
            // Strict: a typo exits non-zero instead of running the
            // sweep. Gpu clamps the count to the scenario's SMs.
            shards = static_cast<int>(std::min<std::uint64_t>(
                parseUintOption(arg, argv[++i]), 1u << 16));
        } else if (arg == "--help") {
            std::cout << "usage: bench_throughput [--scale F] [--out FILE]"
                         " [--shards N] [--profile FILE]\n"
                         "  --shards N      fix the parallel column's "
                         "shard count (0 = sweep {2,4,hw}, default)\n"
                         "  --profile FILE  re-run scenarios with phase "
                         "timers on; write per-phase JSON to FILE\n";
            return 0;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 1;
        }
    }

    const std::vector<int> sweep = shardSweep(shards);
    const std::vector<Scenario> scenarios = makeScenarios(scale);
    std::vector<Measurement> measurements;
    printHeader("scenario", {"Mcycles", "naive c/s", "ff c/s", "ff x",
                             "par c/s", "par x", "shards"});
    bool all_identical = true;
    for (const Scenario& scenario : scenarios) {
        const Measurement m = measure(scenario, sweep);
        printRow(m.name,
                 {static_cast<double>(m.cycles) / 1e6,
                  m.naiveCyclesPerSec(), m.ffCyclesPerSec(), m.speedup(),
                  m.parCyclesPerSec(), m.parSpeedup(),
                  static_cast<double>(m.shards)},
                 /*precision=*/2);
        all_identical = all_identical && m.identical;
        measurements.push_back(m);
    }
    writeJson(out_path, scale, measurements);
    std::cout << "wrote " << out_path << "\n";
    if (!profile_path.empty()) {
        writeProfile(profile_path, scale, scenarios, measurements);
        std::cout << "wrote " << profile_path << "\n";
    }

    if (!all_identical) {
        std::cerr << "FAIL: engine stats diverged (naive vs ff vs "
                     "parallel must be bitwise identical)\n";
        return 1;
    }
    return 0;
}

} // namespace
} // namespace apres::bench

int
main(int argc, char** argv)
{
    return apres::bench::run(argc, argv);
}
