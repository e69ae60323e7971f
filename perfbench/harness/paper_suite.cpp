/**
 * @file
 * paper-suite: the deduplicated cells of the paper-figure drivers (15
 * Table IV workloads x 14 configs at 15 SMs, reduced scale), built and
 * submitted as one SweepRunner batch per sample. Every cell's StatSet
 * must repeat across batches, and a few cells at tiny scale must match
 * the naive engine.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apres/hardware_cost.hpp"
#include "harness/bench_math.hpp"
#include "harness/suite_cells.hpp"
#include "harness/workloads.hpp"
#include "sim/gpu.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

constexpr double kScale = 0.01;
constexpr double kNaiveScale = 0.002;
constexpr int kMinBatches = 3;
constexpr int kSetupsPerBatch = 10;

struct Batch
{
    double setup = 0.0; ///< build every kernel + submit the batch
    double wall = 0.0;  ///< setup + SweepRunner::runAll
    double instructions = 0.0;
    std::vector<double> jobWalls;
    std::vector<apres::StatSet> stats; ///< per cell, in cell order
    std::uint64_t failedJobs = 0;
};

apres::ServeJobSpec
cellJob(const SuiteCell& cell, double scale, std::uint64_t seed)
{
    apres::ServeJobSpec spec;
    spec.label = cell.app + "/" + cell.configId;
    spec.workload = cell.app;
    spec.scale = scale;
    spec.overrides = cell.overrides;
    spec.overrides.emplace_back("seed", std::to_string(seed));
    return spec;
}

/**
 * Build every kernel and submit the batch; then, when @p run, run it
 * and check every cell.
 */
Batch
runBatch(const std::vector<SuiteCell>& cells, std::uint64_t seed,
         SpanLog& spans, Outcome& out, bool run = true)
{
    Batch b;
    const auto start = Clock::now();
    SpanScope root(spans, "suite.batch");
    std::map<std::string, std::shared_ptr<const apres::Workload>> kernels;
    for (const std::string& app : apres::allWorkloadNames()) {
        SpanScope span(spans, "workloads.build", root.id());
        kernels[app] = std::make_shared<const apres::Workload>(
            apres::makeWorkload(app, kScale));
    }
    apres::RunnerOptions opts;
    opts.threads = hostThreads();
    opts.seedMode = apres::SeedMode::kUseConfigSeed;
    opts.keepGoing = true;
    apres::SweepRunner runner(opts);
    for (const SuiteCell& cell : cells) {
        const auto& wl = kernels.at(cell.app);
        const apres::ServeJobSpec spec = cellJob(cell, kScale, seed);
        runner.submit(spec.label, configOf(spec),
                      std::shared_ptr<const apres::Kernel>(wl, &wl->kernel));
    }
    b.setup = secondsSince(start);
    if (!run)
        return b;
    std::vector<apres::SweepResult> results;
    {
        SpanScope span(spans, "sweep.runAll", root.id());
        results = runner.runAll();
    }
    b.wall = secondsSince(start);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const apres::RunResult& r = results[i].result;
        const bool ok = r.status == "ok" && r.completed;
        b.failedJobs += ok ? 0 : 1;
        out.check(ok, "cell " + results[i].label + " failed: " + r.status);
        b.jobWalls.push_back(results[i].wallSeconds);
        b.stats.push_back(r.toStatSet());
        b.instructions += b.stats.back().get("sim.instructions");
    }
    return b;
}

/**
 * Batches until @p seconds have passed and kMinBatches are in. With
 * @p setups, kSetupsPerBatch set-ups are timed after every batch:
 * spread over the whole run, a burst of host noise moves few of them.
 */
std::vector<Batch>
runLoop(const std::vector<SuiteCell>& cells, std::uint64_t seed,
        double seconds, SpanLog& spans, Outcome& out,
        std::vector<double>* setups = nullptr)
{
    std::vector<Batch> batches;
    const auto start = Clock::now();
    while (batches.size() < kMinBatches || secondsSince(start) < seconds) {
        batches.push_back(runBatch(cells, seed, spans, out));
        for (int r = 0; setups && r < kSetupsPerBatch; ++r)
            setups->push_back(runBatch(cells, seed, spans, out, false).setup);
    }
    return batches;
}

/** Each cell's StatSet digest must equal the reference batch's. */
void
checkRepeats(const std::vector<Batch>& batches,
             const std::vector<std::string>& ref,
             const std::vector<SuiteCell>& cells, Outcome& out)
{
    for (const Batch& b : batches) {
        for (std::size_t i = 0; i < b.stats.size(); ++i) {
            out.check(statDigest(b.stats[i]) == ref[i],
                      "cell " + cells[i].app + "/" + cells[i].configId +
                          " changed its StatSet across repetitions");
        }
    }
}

/** A few cells at tiny scale: ff must equal the naive engine. */
void
checkNaive(const std::vector<SuiteCell>& cells, std::uint64_t seed,
           Outcome& out)
{
    static const char* const kSubset[][2] = {{"KM", "laws+sap"},
                                             {"NW", "ccws+str"},
                                             {"BFS", "base"},
                                             {"SPMV", "pa+sld"},
                                             {"HS", "mascar+str"}};
    for (const SuiteCell& cell : cells) {
        for (const auto& pick : kSubset) {
            if (cell.app != pick[0] || cell.configId != pick[1])
                continue;
            const apres::ServeJobSpec spec = cellJob(cell, kNaiveScale, seed);
            const apres::Workload wl =
                apres::makeWorkload(spec.workload, spec.scale);
            apres::GpuConfig config = configOf(spec);
            const apres::StatSet ff =
                apres::simulate(config, wl.kernel).toStatSet();
            config.fastForward = false;
            const apres::StatSet naive =
                apres::simulate(config, wl.kernel).toStatSet();
            out.check(statDigest(ff) == statDigest(naive),
                      "cell " + spec.label +
                          ": ff StatSet differs from the naive engine");
        }
    }
}

std::vector<std::string>
digests(const Batch& b)
{
    std::vector<std::string> d;
    for (const apres::StatSet& s : b.stats)
        d.push_back(statDigest(s));
    return d;
}

template <typename F>
double
medianOf(const std::vector<Batch>& batches, F&& field)
{
    std::vector<double> v;
    for (const Batch& b : batches)
        v.push_back(field(b));
    return median(v);
}

} // namespace

void
runPaperSuite(const Options& opts, SpanLog& spans, Outcome& out)
{
    std::vector<SuiteCell> cells =
        dedupSuiteCells(paperSuiteDrivers(), apres::allWorkloadNames());
    // Longest first: the 32 MB-L1 cells (the most memory) and the CCWS
    // cells (the slowest) lead the batch, so neither the batch's tail
    // nor its peak memory depends on which worker happens to draw them.
    std::stable_partition(cells.begin(), cells.end(), [](const SuiteCell& c) {
        return c.configId.rfind("ccws", 0) == 0 || c.configId == "l1-32M";
    });
    std::stable_partition(cells.begin(), cells.end(), [](const SuiteCell& c) {
        return c.configId == "l1-32M";
    });
    checkNaive(cells, opts.seed, out);

    if (!opts.trace) {
        std::vector<double> setups;
        const auto start = Clock::now();
        const std::vector<Batch> batches =
            runLoop(cells, opts.seed, opts.seconds, spans, out, &setups);
        const double loop_wall = secondsSince(start);
        const double setup = median(setups);
        checkRepeats(batches, digests(batches.front()), cells, out);

        double instructions = 0.0;
        double batch_seconds = 0.0;
        for (const Batch& b : batches) {
            instructions += b.instructions;
            batch_seconds += b.wall;
        }
        const double minst = instructions / batch_seconds / 1e6;
        const double rss = peakRssMb();
        out.endToEnd["setup_s"] = {setup, "s"};
        out.endToEnd["sim_minst_per_s"] = {minst, "Minst/s"};
        out.endToEnd["p50_ms"] = {
            1e3 * medianOf(batches, [](auto& b) { return b.wall; }), "ms"};
        out.endToEnd["ops_per_s"] = {
            static_cast<double>(cells.size() * batches.size()) / loop_wall,
            "1/s"};
        out.endToEnd["peak_rss_mb"] = {rss, "MB"};

        out.report["setup_s"] = {setup, "s"};
        out.report["sim_minst_per_s"] = {minst, "Minst/s"};
        out.report["peak_rss_mb"] = {rss, "MB"};
        out.report["cells"] = {static_cast<double>(cells.size()), "count"};
        out.report["batches"] = {static_cast<double>(batches.size()),
                                 "count"};
        return;
    }

    SpanLog off(false);
    const std::vector<Batch> plain =
        runLoop(cells, opts.seed, opts.seconds / 2, off, out);
    const std::vector<Batch> traced =
        runLoop(cells, opts.seed, opts.seconds / 2, spans, out);
    const std::vector<std::string> ref = digests(plain.front());
    checkRepeats(plain, ref, cells, out);
    checkRepeats(traced, ref, cells, out);

    // Probe one cell per workload, rotating through the configs.
    std::vector<apres::ServeJobSpec> probe_jobs;
    std::vector<std::size_t> probe_cells;
    const auto& apps = apres::allWorkloadNames();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::size_t seen = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].app == apps[a] && seen++ == a % 14) {
                probe_jobs.push_back(cellJob(cells[i], kScale, opts.seed));
                probe_cells.push_back(i);
            }
        }
    }
    const std::vector<ProbedJob> probed =
        probeLayers(probe_jobs, "probe-cache", false, spans, out);
    for (std::size_t p = 0; p < probed.size(); ++p) {
        out.check(probed[p].digest == ref[probe_cells[p]],
                  "layer probe of " + probe_jobs[p].label +
                      " differs from its batch StatSet");
    }

    std::vector<std::vector<double>> job_walls;
    std::vector<double> batch_walls;
    std::uint64_t failed_jobs = 0;
    for (const Batch& b : traced) {
        job_walls.push_back(b.jobWalls);
        batch_walls.push_back(b.wall - b.setup);
        failed_jobs += b.failedJobs;
    }
    addSweepLayers(job_walls, batch_walls, hostThreads(), failed_jobs,
                   out.layers);
    const auto wall = [](auto& b) { return b.wall; };
    out.layers["trace.overhead_frac"] = {
        medianOf(traced, wall) / medianOf(plain, wall) - 1.0, "frac"};

    CountAggregate counts;
    std::map<std::string, double> base_ipc;
    std::map<std::string, double> apres_ipc;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const apres::StatSet& s = plain.front().stats[i];
        counts.add(s, configOf(cellJob(cells[i], kScale, 0)).numSms);
        if (cells[i].configId == "base")
            base_ipc[cells[i].app] = s.get("sim.ipc");
        if (cells[i].configId == "laws+sap")
            apres_ipc[cells[i].app] = s.get("sim.ipc");
    }
    counts.emit(out.layers);
    std::vector<double> speedups;
    for (const auto& [app, ipc] : apres_ipc)
        speedups.push_back(apres::ratio(ipc, base_ipc[app]));
    out.layers["model.fig10_apres_over_lrr_gm_ipc"] = {geomean(speedups),
                                                       "ratio"};
    out.layers["model.table2_total_bytes"] = {
        static_cast<double>(apres::computeHardwareCost().totalBytes()), "B"};
    out.notes.push_back(
        "model.* compare an unvalidated model at reduced scale with the "
        "paper's GPGPU-Sim numbers: Fig. 10 APRES/LRR geomean IPC 1.242, "
        "Table II total 724 B");
}

} // namespace perfbench
