/**
 * @file
 * The paper's evaluation from one spec table: Figs. 2-4 and 10-15,
 * Tables I-II, the APRES/CCWS/DRAM ablations and the L1 capacity
 * sweep. Each row names its apps, its columns as config-key overrides
 * over the Table III defaults, and a printer.
 *
 * The selected rows expand into (app, semantic config) cells. A cell
 * several figures share, such as an app's LRR baseline, is simulated
 * once, and every cell runs in one SweepRunner batch exactly as
 * configured, so a result never depends on which figures were
 * selected or on the cell's position in the batch.
 *
 * usage: bench_paper [options] [ID...]   (no ID: every row, paper order)
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apres/hardware_cost.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "sim/config_registry.hpp"
#include "sim/gpu.hpp"
#include "sim/runner.hpp"
#include "workloads/characterize.hpp"
#include "workloads/workload.hpp"

using namespace apres;

namespace {

/**
 * Trip-count multiplier from APRES_BENCH_SCALE. Non-numeric, zero,
 * negative or otherwise unusable values are rejected with a warning
 * and fall back to the default of 1.0.
 */
double
benchScale()
{
    constexpr double kDefault = 1.0;
    const char* text = std::getenv("APRES_BENCH_SCALE");
    if (text == nullptr || *text == '\0')
        return kDefault;
    double parsed = 0.0;
    if (!parseDoubleStrict(text, &parsed) || parsed <= 0.0) {
        logWarn("ignoring APRES_BENCH_SCALE=\"", text,
                "\" (want a positive number); using ", kDefault);
        return kDefault;
    }
    return parsed;
}

/** Geometric mean; empty input yields 1. */
double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Print a table header: first column wide, rest fixed width. */
void
printHeader(const std::string& first, const std::vector<std::string>& columns)
{
    std::cout << std::left << std::setw(8) << first << std::right;
    for (const std::string& c : columns)
        std::cout << std::setw(12) << c;
    std::cout << '\n';
}

/** Print one row of doubles with three decimals. */
void
printRow(const std::string& first, const std::vector<double>& values)
{
    std::cout << std::left << std::setw(8) << first << std::right
              << std::fixed << std::setprecision(3);
    for (const double v : values)
        std::cout << std::setw(12) << v;
    std::cout << '\n';
}

/** One simulation: an app under one semantic configuration. */
struct Cell
{
    std::shared_ptr<const Workload> workload;
    GpuConfig config;
    std::string label;         ///< the first request's, for progress
    bool harvestPerPc = false; ///< Table I reads its per-PC LSU stats
    RunResult result{};
    std::unordered_map<Pc, PcLoadStats> perPc{};
};

/** A number read off one finished cell. */
using Metric = double (*)(const Cell&);

/** A table column: a config given as space-separated key=value pairs. */
struct Column
{
    std::string label;
    std::string overrides;

    /**
     * Set: the column prints raw(cell) as is, outside the summary rows,
     * from a cell another column or the reference already requests.
     */
    Metric raw = nullptr;
};

/** A row under the table that averages each ratio column over apps. */
struct Summary
{
    const char* label;
    double (*mean)(const std::vector<double>&);
    bool memoryOnly = false;
};

class Cells;
struct Figure;
using Printer = void (*)(const Figure&, const Cells&);

void printRatios(const Figure& fig, const Cells& cells);

/** One row of the spec table: a figure, table, ablation or sweep. */
struct Figure
{
    const char* id;
    std::vector<std::string> apps{};
    const char* title; ///< printed verbatim above the table
    std::vector<Column> columns{};
    Printer print = printRatios;
    bool perPc = false; ///< harvest per-PC LSU stats on these cells

    // printRatios only:
    Metric metric = nullptr;
    std::optional<std::string> reference{}; ///< each value / this cell's
    std::vector<Summary> summaries{};
    void (*note)(const Figure&, const std::vector<std::vector<double>>&) =
        nullptr;
};

/**
 * Apply @p overrides to @p config and @return the cell key of @p app
 * under it: the app plus the sorted semantic snapshot, so configs
 * spelled differently but simulating the same machine share a cell.
 */
std::string
cellKey(const std::string& app, const std::string& overrides,
        GpuConfig& config)
{
    ConfigRegistry registry(config);
    std::istringstream in(overrides);
    for (std::string assignment; in >> assignment;)
        registry.applyAssignment(assignment);
    std::string key = app;
    for (const auto& [name, value] : registry.semanticSnapshot())
        key += "|" + name + "=" + value;
    return key;
}

/** The distinct cells of one run, requested by the selected figures. */
class Cells
{
  public:
    explicit Cells(double scale) : scale_(scale) {}

    /** Ask for @p app under @p overrides; equal configs share a cell. */
    void
    request(const std::string& app, const std::string& overrides,
            const std::string& label, bool per_pc)
    {
        GpuConfig config;
        const auto [it, added] =
            index_.try_emplace(cellKey(app, overrides, config), cells_.size());
        ++requested_;
        if (added) {
            auto& workload = workloads_[app];
            if (!workload)
                workload = std::make_shared<const Workload>(
                    makeWorkload(app, scale_));
            cells_.push_back({workload, config, app + "/" + label});
        }
        cells_[it->second].harvestPerPc |= per_pc;
    }

    /**
     * Run every cell once in one sweep. Exits non-zero, after every
     * cell has run, when any row failed, so no table ever averages in
     * an error row.
     */
    void
    run(const RunnerOptions& options)
    {
        SweepRunner runner(options);
        for (Cell& cell : cells_) {
            // Aliasing handle: shares ownership of the workload, points
            // at its kernel.
            SweepJob job{cell.label, cell.config,
                         {cell.workload, &cell.workload->kernel}, {}};
            if (cell.harvestPerPc) {
                // Worker thread; writes only this cell's slot.
                job.drive = [&per_pc = cell.perPc,
                             num_sms = cell.config.numSms](Gpu& gpu) {
                    RunResult r = gpu.run();
                    for (int s = 0; s < num_sms; ++s) {
                        for (const auto& [pc, stat] :
                             gpu.sm(s).lsuStats().perPc) {
                            per_pc[pc].accesses += stat.accesses;
                            per_pc[pc].hits += stat.hits;
                        }
                    }
                    return r;
                };
            }
            runner.submit(std::move(job));
        }
        std::vector<SweepResult> results = runner.runAll();
        const std::string failures = failureSummary(results);
        if (!failures.empty()) {
            std::cerr << "[apres-sweep] " << failures;
            std::exit(1);
        }
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cells_[i].result = std::move(results[i].result);
    }

    /** The cell of @p app under @p overrides; it must be requested. */
    const Cell&
    at(const std::string& app, const std::string& overrides) const
    {
        GpuConfig config;
        return cells_[index_.at(cellKey(app, overrides, config))];
    }

    std::size_t requested() const { return requested_; }
    std::size_t distinct() const { return cells_.size(); }

  private:
    double scale_;
    std::size_t requested_ = 0;
    std::vector<Cell> cells_;
    std::map<std::string, std::size_t> index_;
    std::map<std::string, std::shared_ptr<const Workload>> workloads_;
};

double
mean(const std::vector<double>& values)
{
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
fraction(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Each column's metric over the reference cell's, with summary rows. */
void
printRatios(const Figure& fig, const Cells& cells)
{
    std::cout << fig.title;
    std::vector<std::string> headers;
    for (const Column& c : fig.columns)
        headers.push_back(c.label);
    printHeader("app", headers);

    std::vector<std::vector<double>> rows;
    for (const std::string& app : fig.apps) {
        const double ref =
            fig.reference ? fig.metric(cells.at(app, *fig.reference)) : 1.0;
        auto& row = rows.emplace_back();
        for (const Column& c : fig.columns) {
            const Cell& cell = cells.at(app, c.overrides);
            row.push_back(c.raw ? c.raw(cell) : fig.metric(cell) / ref);
        }
        printRow(app, row);
    }

    if (!fig.summaries.empty())
        std::cout << '\n';
    for (const Summary& summary : fig.summaries) {
        std::vector<double> values;
        for (std::size_t i = 0; i < fig.columns.size(); ++i) {
            if (fig.columns[i].raw)
                continue;
            std::vector<double> column;
            for (std::size_t n = 0; n < fig.apps.size(); ++n) {
                if (!summary.memoryOnly || isMemoryIntensive(fig.apps[n]))
                    column.push_back(rows[n][i]);
            }
            values.push_back(summary.mean(column));
        }
        printRow(summary.label, values);
    }
    if (fig.note)
        fig.note(fig, rows);
}

/** Fig. 2: cold vs capacity+conflict misses at 32 KB and 32 MB. */
void
printMissBreakdown(const Figure& fig, const Cells& cells)
{
    std::cout << fig.title;
    printHeader("app", {"B.cold", "B.capconf", "B.miss", "C.cold",
                        "C.capconf", "C.miss", "C-perf"});

    double mem_capconf_share_sum = 0.0;
    int mem_apps = 0;
    for (const std::string& app : fig.apps) {
        const RunResult& rb = cells.at(app, fig.columns[0].overrides).result;
        const RunResult& rc = cells.at(app, fig.columns[1].overrides).result;
        printRow(app, {fraction(rb.l1.coldMisses, rb.l1.demandAccesses),
                       fraction(rb.l1.capacityConflictMisses,
                                rb.l1.demandAccesses),
                       rb.l1.missRate(),
                       fraction(rc.l1.coldMisses, rc.l1.demandAccesses),
                       fraction(rc.l1.capacityConflictMisses,
                                rc.l1.demandAccesses),
                       rc.l1.missRate(), rc.ipc / rb.ipc});
        if (isMemoryIntensive(app) && rb.l1.demandMisses > 0) {
            mem_capconf_share_sum +=
                fraction(rb.l1.capacityConflictMisses, rb.l1.demandMisses);
            ++mem_apps;
        }
    }
    std::cout << "\ncapacity+conflict share of memory-intensive misses: "
              << std::fixed << std::setprecision(1)
              << 100.0 * mem_capconf_share_sum / mem_apps
              << "% (paper: 62.8%)\n";
}

/** Fig. 11: the L1 hit/miss breakdown, one row per app and config. */
void
printCacheBreakdown(const Figure& fig, const Cells& cells)
{
    std::cout << fig.title;
    printHeader("app/cfg",
                {"hitAfterHit", "hitAfterMiss", "cold", "cap+conf"});
    for (const std::string& app : fig.apps) {
        for (const Column& c : fig.columns) {
            const RunResult& r = cells.at(app, c.overrides).result;
            const std::uint64_t total = r.l1.demandAccesses;
            printRow(app + "/" + c.label,
                     {fraction(r.l1.hitAfterHit, total),
                      fraction(r.l1.hitAfterMiss, total),
                      fraction(r.l1.coldMisses, total),
                      fraction(r.l1.capacityConflictMisses, total)});
        }
        std::cout << '\n';
    }
}

/**
 * Table I: the oracle replay's static columns plus the per-PC miss
 * rates of the baseline timing run.
 */
void
printLoadTable(const Figure& fig, const Cells& cells)
{
    std::cout << fig.title;
    std::cout << std::left << std::setw(7) << "app" << std::setw(8) << "PC"
              << std::right << std::setw(9) << "%Load" << std::setw(9)
              << "#L/#R" << std::setw(10) << "miss" << std::setw(12)
              << "stride" << std::setw(10) << "%stride" << '\n';

    for (const std::string& app : fig.apps) {
        const Cell& cell = cells.at(app, fig.columns[0].overrides);
        bool first = true;
        const auto profiles = characterizeKernel(cell.workload->kernel);
        for (const LoadProfile& p : profiles) {
            const auto stats = cell.perPc.find(p.pc);
            const double miss =
                stats == cell.perPc.end() ? 0.0 : stats->second.missRate();
            std::cout << std::left << std::setw(7) << (first ? app : "")
                      << "0x" << std::hex << std::setw(6) << p.pc << std::dec
                      << std::right << std::fixed << std::setw(8)
                      << std::setprecision(1) << 100.0 * p.loadShare << "%"
                      << std::setw(9) << std::setprecision(2)
                      << p.uniqueLinesPerRef << std::setw(10)
                      << std::setprecision(2) << miss << std::setw(12)
                      << p.dominantStride << std::setw(9)
                      << std::setprecision(1)
                      << 100.0 * p.dominantStrideShare << "%" << '\n';
            first = false;
        }
    }
}

/** Table II: APRES's storage, recomputed from the structure sizes. */
void
printHardwareCost(const Figure& fig, const Cells&)
{
    const HardwareCostParams params;
    const HardwareCost cost = computeHardwareCost(params);
    std::cout << fig.title << "LAWS:\n"
              << "  LLT  (4B x " << params.warpsPerSm
              << " warps)          = " << cost.lltBytes << " B\n"
              << "  WGT  (" << params.warpsPerSm << "b x "
              << params.wgtEntries << " entries)        = " << cost.wgtBytes
              << " B\n"
              << "SAP:\n"
              << "  DRQ  (8B x " << params.drqEntries
              << " entries)        = " << cost.drqBytes << " B\n"
              << "  WQ   (1B x " << params.wqEntries
              << " entries)        = " << cost.wqBytes << " B\n"
              << "  PT   ((4+1+8+8)B x " << params.ptEntries
              << ")       = " << cost.ptBytes << " B\n\n"
              << "LAWS subtotal = " << cost.lawsBytes() << " B\n"
              << "SAP subtotal  = " << cost.sapBytes() << " B\n"
              << "Total         = " << cost.totalBytes()
              << " B  (paper: 724 B)\n\n"
              << "Fraction of a 32 KB L1: " << std::fixed
              << std::setprecision(2)
              << 100.0 * cost.fractionOfL1(32 * 1024)
              << "% (paper, CACTI-based: 2.06%)\n";
}

/** Fig. 15's last column, the APRES structures' energy share in %. */
void
noteStructureShare(const Figure& fig,
                   const std::vector<std::vector<double>>& rows)
{
    std::vector<double> share;
    for (const auto& row : rows)
        share.push_back(row.back());
    const auto largest = std::max_element(share.begin(), share.end());
    std::cout << "\nAPRES structure share of dynamic energy: mean "
              << std::fixed << std::setprecision(1) << mean(share)
              << "%, largest " << *largest << "% ("
              << fig.apps[largest - share.begin()] << ") (paper: < 3%)\n";
}

void
noteCategories(const Figure&, const std::vector<std::vector<double>>&)
{
    std::cout << "\n(category: 0=cache-sensitive 1=cache-insensitive "
                 "2=compute-intensive)\n";
}

double
ipc(const Cell& c)
{
    return c.result.ipc;
}

double
earlyEvictions(const Cell& c)
{
    return c.result.earlyEvictionRatio();
}

double
loadLatency(const Cell& c)
{
    return c.result.avgLoadLatency;
}

double
traffic(const Cell& c)
{
    return static_cast<double>(c.result.traffic.interconnectBytes());
}

double
energy(const Cell& c)
{
    return c.result.energy.total();
}

double
structurePercent(const Cell& c)
{
    return 100.0 * c.result.energy.structureFraction();
}

double
rowHitPercent(const Cell& c)
{
    const auto hits = static_cast<double>(c.result.dramRowHits);
    const auto total = hits + static_cast<double>(c.result.dramRowMisses);
    return total > 0 ? 100.0 * hits / total : 0.0;
}

/** Table IV category as a number: 0 sensitive, 1 insensitive, 2 compute. */
double
category(const Cell& c)
{
    return static_cast<double>(static_cast<int>(c.workload->category));
}

/** The spec table, in paper order. */
std::vector<Figure>
paperFigures()
{
    const std::vector<std::string>& all = allWorkloadNames();
    std::vector<std::string> mem;
    for (const std::string& app : all) {
        if (isMemoryIntensive(app))
            mem.push_back(app);
    }
    const std::string apres = "scheduler=laws prefetcher=sap";
    const std::string ccws_str = "scheduler=ccws prefetcher=str";
    const std::string row_model = " dram.rowBufferModel=true";
    const Summary gm{"GM", geomean};
    const Summary avg{"AVG", mean};

    return {
        {.id = "fig02",
         .apps = all,
         .title = "=== Figure 2: L1 miss breakdown, 32KB (B) vs 32MB (C) "
                  "===\n\n",
         .columns = {{"32K", ""}, {"32M", "l1.sizeBytes=33554432"}},
         .print = printMissBreakdown},
        {.id = "table01",
         .apps = mem,
         .title = "=== Table I: characteristics of frequently executed "
                  "loads ===\n\n",
         .columns = {{"base", ""}},
         .print = printLoadTable,
         .perPc = true},
        {.id = "fig03",
         .apps = all,
         .title = "=== Figure 3: existing scheduling x prefetching combos "
                  "(IPC vs LRR) ===\n\n",
         .columns = {{"PA+STR", "scheduler=pa prefetcher=str"},
                     {"PA+SLD", "scheduler=pa prefetcher=sld"},
                     {"GTO+STR", "scheduler=gto prefetcher=str"},
                     {"GTO+SLD", "scheduler=gto prefetcher=sld"},
                     {"MASCAR+STR", "scheduler=mascar prefetcher=str"},
                     {"MASCAR+SLD", "scheduler=mascar prefetcher=sld"},
                     {"CCWS+STR", ccws_str},
                     {"CCWS+SLD", "scheduler=ccws prefetcher=sld"}},
         .metric = ipc,
         .reference = "",
         .summaries = {gm}},
        {.id = "fig04",
         .apps = mem,
         .title = "=== Figure 4: early eviction ratio of STR prefetching "
                  "===\n\n",
         .columns = {{"PA+STR", "scheduler=pa prefetcher=str"},
                     {"GTO+STR", "scheduler=gto prefetcher=str"},
                     {"MASCAR+STR", "scheduler=mascar prefetcher=str"},
                     {"CCWS+STR", ccws_str}},
         .metric = earlyEvictions,
         .summaries = {avg}},
        {.id = "table02",
         .title = "=== Table II: hardware cost of APRES ===\n\n",
         .print = printHardwareCost},
        {.id = "fig10",
         .apps = all,
         .title = "=== Figure 10: IPC normalized to baseline (LRR) ===\n\n",
         .columns = {{"CCWS", "scheduler=ccws"},
                     {"LAWS", "scheduler=laws"},
                     {"CCWS+STR", ccws_str},
                     {"LAWS+STR", "scheduler=laws prefetcher=str"},
                     {"APRES", apres}},
         .metric = ipc,
         .reference = "",
         .summaries = {{"GM-all", geomean}, {"GM-mem", geomean, true}}},
        {.id = "fig11",
         .apps = all,
         .title = "=== Figure 11: L1 hit/miss breakdown (fractions of "
                  "accesses) ===\n"
                  "(B=baseline C=CCWS L=LAWS S=CCWS+STR A=APRES)\n\n",
         .columns = {{"B", ""},
                     {"C", "scheduler=ccws"},
                     {"L", "scheduler=laws"},
                     {"S", ccws_str},
                     {"A", apres}},
         .print = printCacheBreakdown},
        {.id = "fig12",
         .apps = all,
         .title = "=== Figure 12: early eviction ratio ===\n\n",
         .columns = {{"CCWS+STR", ccws_str}, {"APRES", apres}},
         .metric = earlyEvictions,
         .summaries = {avg}},
        {.id = "fig13",
         .apps = all,
         .title = "=== Figure 13: average memory latency (normalized to "
                  "baseline) ===\n\n",
         .columns = {{"CCWS+STR", ccws_str}, {"APRES", apres}},
         .metric = loadLatency,
         .reference = "",
         .summaries = {gm}},
        {.id = "fig14",
         .apps = all,
         .title = "=== Figure 14: data traffic (normalized to baseline) "
                  "===\n\n",
         .columns = {{"CCWS+STR", ccws_str}, {"APRES", apres}},
         .metric = traffic,
         .reference = "",
         .summaries = {gm}},
        {.id = "fig15",
         .apps = all,
         .title = "=== Figure 15: dynamic energy (normalized to baseline) "
                  "===\n\n",
         .columns = {{"CCWS+STR", ccws_str},
                     {"APRES", apres},
                     {"A.structs%", apres, structurePercent}},
         .metric = energy,
         .reference = "",
         .summaries = {gm},
         .note = noteStructureShare},
        {.id = "ablation_apres",
         .apps = mem,
         .title = "=== APRES ablations (IPC normalized to full APRES, "
                  "memory-intensive apps) ===\n\n",
         .columns = {{"-hitProm", apres + " laws.promoteOnHit=false"},
                     {"-missDem", apres + " laws.demoteOnMiss=false"},
                     {"-pfProm", apres + " laws.promotePrefetchTargets=false"},
                     {"cap8", apres + " laws.groupCap=8"},
                     {"pt2", apres + " sap.ptEntries=2"},
                     {"-gate", apres + " sm.prefetchMshrGate=1.0"}},
         .metric = ipc,
         .reference = apres,
         .summaries = {gm}},
        // The integral controller's defaults (bonus 96, cap 288, scale
        // 48, floor 12) against one knob moved at a time, on the two
        // apps where throttling matters most plus SRAD, which
        // over-throttling hurts.
        {.id = "ablation_ccws",
         .apps = {"KM", "SPMV", "SRAD"},
         .title = "=== CCWS controller sensitivity (IPC vs LRR baseline) "
                  "===\n\n",
         .columns = {{"default", "scheduler=ccws"},
                     {"gain/2", "scheduler=ccws ccws.scoreBonus=48"},
                     {"gain*2", "scheduler=ccws ccws.scoreBonus=192"},
                     {"scale*2", "scheduler=ccws ccws.throttleScale=96"},
                     {"floor6", "scheduler=ccws ccws.minActiveWarps=6"},
                     {"floor20", "scheduler=ccws ccws.minActiveWarps=20"},
                     {"cap/2", "scheduler=ccws ccws.scoreCap=144"}},
         .metric = ipc,
         .reference = ""},
        {.id = "ablation_dram",
         .apps = mem,
         .title = "=== DRAM model ablation: flat channel vs bank/row "
                  "buffer ===\n"
                  "(IPC normalized to the flat-channel baseline; rowHit% "
                  "from the row model)\n\n",
         .columns = {{"B.rows", row_model},
                     {"APRES.flat", apres},
                     {"APRES.rows", apres + row_model},
                     {"rowHit%", apres + row_model, rowHitPercent}},
         .metric = ipc,
         .reference = ""},
        {.id = "cache_sweep",
         .apps = all,
         .title = "=== L1 capacity sweep (IPC normalized to 32 KB) ===\n\n",
         .columns = {{"16K", "l1.sizeBytes=16384"},
                     {"32K", "l1.sizeBytes=32768"},
                     {"64K", "l1.sizeBytes=65536"},
                     {"256K", "l1.sizeBytes=262144"},
                     {"1M", "l1.sizeBytes=1048576"},
                     {"category", "", category}},
         .metric = ipc,
         .reference = "",
         .note = noteCategories},
    };
}

/** Command-line options; see usage(). */
struct BenchOptions
{
    RunnerOptions runner;
    std::vector<std::string> ids; ///< rows to print; empty = all
};

[[noreturn]] void
usage(const char* argv0, const std::vector<Figure>& figures)
{
    std::cout << "usage: " << argv0
              << " [--jobs N] [--job-timeout S] [ID...]\n"
              << "  --jobs N, -j N  sweep worker threads "
                 "(default: APRES_BENCH_JOBS or hardware concurrency)\n"
              << "  --job-timeout S per-job wall-clock deadline in "
                 "seconds (default: none)\n"
              << "  (every job runs; any failed job exits 1 with a "
                 "summary)\n"
              << "  ID              print only these (default: all):";
    for (const Figure& fig : figures)
        std::cout << ' ' << fig.id;
    std::cout << "\n  APRES_BENCH_SCALE  trip-count multiplier "
                 "(default 1.0)\n";
    std::exit(0);
}

/**
 * Parse argv. Unknown flags and ids terminate via fatal() so a typo
 * never silently runs the full suite.
 */
BenchOptions
parseArgs(int argc, char** argv, const std::vector<Figure>& figures)
{
    BenchOptions opts;
    opts.runner.progress = true;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto value = [&] {
            if (i + 1 >= argc)
                fatal(std::string(arg) + " requires a value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            usage(argv[0], figures);
        } else if (std::strcmp(arg, "--jobs") == 0 ||
                   std::strcmp(arg, "-j") == 0) {
            opts.runner.threads =
                static_cast<int>(parsePositiveUintOption(arg, value()));
        } else if (std::strcmp(arg, "--job-timeout") == 0) {
            opts.runner.jobTimeoutSeconds =
                parsePositiveDoubleOption(arg, value());
        } else if (std::none_of(figures.begin(), figures.end(),
                                [arg](const Figure& fig) {
                                    return std::strcmp(fig.id, arg) == 0;
                                })) {
            fatal(std::string("unknown argument \"") + arg +
                  "\" (try --help)");
        } else {
            opts.ids.emplace_back(arg);
        }
    }
    return opts;
}

bool
contains(const std::vector<std::string>& names, const std::string& name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<Figure> figures = paperFigures();
    const BenchOptions opts = parseArgs(argc, argv, figures);
    std::vector<const Figure*> selected;
    for (const Figure& fig : figures) {
        if (opts.ids.empty() || contains(opts.ids, fig.id))
            selected.push_back(&fig);
    }

    // App-major, so an app's cells sit together in the batch; a cell
    // that several figures share keeps the label of the first request.
    Cells cells(benchScale());
    for (const std::string& app : allWorkloadNames()) {
        for (const Figure* fig : selected) {
            if (!contains(fig->apps, app))
                continue;
            const std::string prefix = std::string(fig->id) + ":";
            if (fig->reference)
                cells.request(app, *fig->reference, prefix + "ref",
                              fig->perPc);
            for (const Column& c : fig->columns) {
                if (!c.raw)
                    cells.request(app, c.overrides, prefix + c.label,
                                  fig->perPc);
            }
        }
    }
    std::cerr << "[apres-paper] " << cells.requested()
              << " cells requested, " << cells.distinct() << " distinct\n";
    cells.run(opts.runner);

    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (i > 0)
            std::cout << '\n';
        selected[i]->print(*selected[i], cells);
    }
    return 0;
}
