/**
 * @file
 * Shared benchmark infrastructure implementation.
 */

#include "harness/layers.hpp"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "harness/bench_math.hpp"
#include "serve/result_cache.hpp"
#include "sim/config_registry.hpp"
#include "sim/gpu.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Outcome::fail(const std::string& why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
Outcome::check(bool ok, const std::string& why)
{
    ++attempted;
    if (!ok)
        fail(why);
}

int
SpanLog::begin(const std::string& name, int parent)
{
    if (!enabled_)
        return -1;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, now, now, false});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    if (id < 0)
        return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
    spans_[static_cast<std::size_t>(id)].closed = true;
}

std::vector<double>
SpanLog::durations(const std::string& name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
        if (s.closed && s.name == name)
            out.push_back(std::chrono::duration<double>(s.end - s.start)
                              .count());
    }
    return out;
}

void
SpanLog::write(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    apres::JsonWriter json(os);
    json.beginObject();
    json.beginArray("traceEvents");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (!s.closed)
            continue;
        const auto us = [this](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        json.beginObject();
        json.field("name", s.name);
        json.field("ph", "X");
        json.field("ts", us(s.start));
        json.field("dur", us(s.end) - us(s.start));
        json.field("pid", std::uint64_t{1});
        json.field("tid", std::uint64_t{1});
        json.beginObject("args");
        json.field("id", static_cast<std::uint64_t>(i));
        json.field("parent", static_cast<double>(s.parent));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
}

const std::vector<std::pair<std::string, std::string>>&
layerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"workloads.build_s", "s"},
        {"sim.gpu_ctor_s", "s"},
        {"sim.run_s", "s"},
        {"sim.collect_s", "s"},
        {"sim.ns_per_inst", "ns"},
        {"sim.ns_per_cycle", "ns"},
        {"sim.sharded_over_ff", "ratio"},
        {"sim.sharded_minst_per_s", "Minst/s"},
        {"sweep.job_wall_p50_s", "s"},
        {"sweep.job_wall_max_s", "s"},
        {"sweep.worker_idle_frac", "frac"},
        {"sweep.failed_jobs", "count"},
        {"core.idle_sm_cycle_frac", "frac"},
        {"core.sim_cycles", "cycles"},
        {"core.instructions", "count"},
        {"core.ipc", "inst/cycle"},
        {"core.mshr_replays", "count"},
        {"l1.hit_rate", "frac"},
        {"l1.early_eviction_ratio", "frac"},
        {"l1.mshr_merges", "count"},
        {"l2.hit_rate", "frac"},
        {"dram.requests", "count"},
        {"mem.avg_miss_latency_cycles", "cycles"},
        {"mem.avg_load_latency_cycles", "cycles"},
        {"laws.groups_formed", "count"},
        {"sap.stride_matches", "count"},
        {"prefetch.accepted", "count"},
        {"prefetch.useful_frac", "frac"},
        {"serve.parse_s", "s"},
        {"serve.key_s", "s"},
        {"serve.lookup_s", "s"},
        {"serve.serialize_s", "s"},
        {"serve.store_s", "s"},
        {"serve.simulate_s", "s"},
        {"serve.transport_ms", "ms"},
        {"serve.warm_p50_ms", "ms"},
        {"serve.warm_p99_ms", "ms"},
        {"serve.cold_p50_ms", "ms"},
        {"serve.cold_p90_ms", "ms"},
        {"serve.memory_hits", "count"},
        {"serve.disk_hits", "count"},
        {"serve.misses", "count"},
        {"serve.stores", "count"},
        {"serve.evictions", "count"},
        {"serve.sheds", "count"},
        {"serve.simulations", "count"},
        {"serve.hit_frac", "frac"},
        {"model.fig10_apres_over_lrr_gm_ipc", "ratio"},
        {"model.table2_total_bytes", "B"},
        {"trace.overhead_frac", "frac"},
    };
    return names;
}

void
fillUnexercisedLayers(MetricMap& layers)
{
    for (const auto& [name, unit] : layerCatalogue())
        layers.emplace(name, Metric{0.0, unit});
}

void
CountAggregate::add(const apres::StatSet& stats, int num_sms)
{
    // Ratios are recomputed from summed counts in emit(); the two
    // latency averages are means over runs.
    for (const char* key :
         {"sim.cycles", "sim.instructions", "sm.idleCycles",
          "lsu.mshrReplays", "l1.accesses", "l1.hits", "l1.usefulPrefetches",
          "l1.demandMergedIntoPrefetch", "l1.earlyEvictions",
          "l1.mshrMerges", "l1.prefetchesAccepted", "l2.accesses",
          "l2.hits", "dram.requests", "mem.avgMissLatency",
          "mem.avgLoadLatency", "laws.groupsFormed", "sap.strideMatches"})
        sum_.accumulate(key, stats.get(key));
    smCycles_ += stats.get("sim.cycles") * num_sms;
    runs_ += 1.0;
}

void
CountAggregate::emit(MetricMap& layers) const
{
    const auto g = [this](const char* key) { return sum_.get(key); };
    const auto put = [&layers](const std::string& name, double value) {
        for (const auto& [n, unit] : layerCatalogue()) {
            if (n == name)
                layers[name] = {value, unit};
        }
    };
    put("core.idle_sm_cycle_frac",
        idleSmCycleFrac(g("sm.idleCycles"), smCycles_, 1.0));
    put("core.sim_cycles", g("sim.cycles"));
    put("core.instructions", g("sim.instructions"));
    put("core.ipc", apres::ratio(g("sim.instructions"), g("sim.cycles")));
    put("core.mshr_replays", g("lsu.mshrReplays"));
    put("l1.hit_rate", apres::ratio(g("l1.hits"), g("l1.accesses")));
    put("l1.early_eviction_ratio",
        apres::ratio(g("l1.earlyEvictions"),
                     g("l1.usefulPrefetches") +
                         g("l1.demandMergedIntoPrefetch") +
                         g("l1.earlyEvictions")));
    put("l1.mshr_merges", g("l1.mshrMerges"));
    put("l2.hit_rate", apres::ratio(g("l2.hits"), g("l2.accesses")));
    put("dram.requests", g("dram.requests"));
    put("mem.avg_miss_latency_cycles",
        apres::ratio(g("mem.avgMissLatency"), runs_));
    put("mem.avg_load_latency_cycles",
        apres::ratio(g("mem.avgLoadLatency"), runs_));
    put("laws.groups_formed", g("laws.groupsFormed"));
    put("sap.stride_matches", g("sap.strideMatches"));
    put("prefetch.accepted", g("l1.prefetchesAccepted"));
    put("prefetch.useful_frac",
        apres::ratio(g("l1.usefulPrefetches"), g("l1.prefetchesAccepted")));
}

apres::GpuConfig
configOf(const apres::ServeJobSpec& spec)
{
    apres::GpuConfig config;
    apres::ConfigRegistry registry(config);
    for (const auto& [key, value] : spec.overrides)
        registry.set(key, value);
    return config;
}

std::string
runRequest(const apres::ServeJobSpec& spec)
{
    std::ostringstream os;
    apres::JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.beginArray("jobs");
    apres::writeServeJob(json, spec);
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

namespace {

template <typename F>
auto
timed(SpanLog& spans, const std::string& name, int parent, F&& fn)
{
    SpanScope scope(spans, name, parent);
    return fn();
}

double
medianSpan(const SpanLog& spans, const std::string& name)
{
    return median(spans.durations(name));
}

} // namespace

std::vector<ProbedJob>
probeLayers(const std::vector<apres::ServeJobSpec>& jobs,
            const std::string& cache_dir, bool with_sweep, SpanLog& spans,
            Outcome& out)
{
    apres::CacheLimits limits;
    limits.maxEntries = std::max<std::uint64_t>(1, jobs.size() / 2);
    apres::ResultCache cache(cache_dir, limits);
    const std::string fingerprint = apres::serveFingerprint();

    std::vector<ProbedJob> probed;
    double ff_run_s = 0.0;
    double sharded_run_s = 0.0;
    double instructions = 0.0;
    double cycles = 0.0;
    for (const apres::ServeJobSpec& spec : jobs) {
        const int root = spans.begin("probe.job");
        const apres::Workload wl = timed(spans, "workloads.build", root, [&] {
            return apres::makeWorkload(spec.workload, spec.scale);
        });
        const std::string request = runRequest(spec);
        const apres::ServeRequest parsed = timed(
            spans, "serve.parse", root,
            [&] { return apres::parseServeRequest(request); });
        apres::GpuConfig config = configOf(parsed.jobs.at(0));
        const auto snapshot = apres::ConfigRegistry(config).semanticSnapshot();
        const std::string kernel_fp = apres::kernelFingerprint(spec);
        const std::string key = timed(spans, "serve.key", root, [&] {
            return apres::computeCacheKey(fingerprint, kernel_fp, snapshot);
        });

        const int simulate = spans.begin("serve.simulate", root);
        auto gpu = timed(spans, "sim.gpu_ctor", simulate, [&] {
            return std::make_unique<apres::Gpu>(config, wl.kernel);
        });
        const auto run_start = Clock::now();
        const apres::RunResult result =
            timed(spans, "sim.run", simulate, [&] { return gpu->run(); });
        ff_run_s += secondsSince(run_start);
        spans.end(simulate);
        const apres::StatSet stats = timed(spans, "sim.collect", root, [&] {
            return result.toStatSet();
        });
        instructions += stats.get("sim.instructions");
        cycles += stats.get("sim.cycles");

        apres::GpuConfig sharded_config = config;
        sharded_config.shards = kShards;
        apres::Gpu sharded(sharded_config, wl.kernel);
        const auto sharded_start = Clock::now();
        const apres::RunResult sharded_result =
            timed(spans, "sim.sharded_run", root,
                  [&] { return sharded.run(); });
        sharded_run_s += secondsSince(sharded_start);
        out.check(result.status == "ok" && sharded_result.status == "ok" &&
                      statDigest(sharded_result.toStatSet()) ==
                          statDigest(stats),
                  "probe " + spec.label + ": ff and sharded StatSets differ");

        const std::string payload = timed(spans, "serve.serialize", root, [&] {
            return apres::serializeRunResult(result);
        });
        timed(spans, "serve.store", root, [&] {
            cache.store(key, payload);
            return 0;
        });
        const auto hit = timed(spans, "serve.lookup", root,
                               [&] { return cache.lookup(key); });
        out.check(hit && *hit == payload,
                  "probe " + spec.label + ": cache lookup after store "
                  "missed or changed the payload");
        spans.end(root);
        probed.push_back({statDigest(stats), payload});
    }

    MetricMap& l = out.layers;
    l["workloads.build_s"] = {medianSpan(spans, "workloads.build"), "s"};
    l["sim.gpu_ctor_s"] = {medianSpan(spans, "sim.gpu_ctor"), "s"};
    l["sim.run_s"] = {medianSpan(spans, "sim.run"), "s"};
    l["sim.collect_s"] = {medianSpan(spans, "sim.collect"), "s"};
    l["sim.ns_per_inst"] = {1e9 * apres::ratio(ff_run_s, instructions), "ns"};
    l["sim.ns_per_cycle"] = {1e9 * apres::ratio(ff_run_s, cycles), "ns"};
    l["sim.sharded_over_ff"] = {apres::ratio(ff_run_s, sharded_run_s),
                                "ratio"};
    l["sim.sharded_minst_per_s"] = {
        apres::ratio(instructions / 1e6, sharded_run_s), "Minst/s"};
    l["serve.parse_s"] = {medianSpan(spans, "serve.parse"), "s"};
    l["serve.key_s"] = {medianSpan(spans, "serve.key"), "s"};
    l["serve.lookup_s"] = {medianSpan(spans, "serve.lookup"), "s"};
    l["serve.serialize_s"] = {medianSpan(spans, "serve.serialize"), "s"};
    l["serve.store_s"] = {medianSpan(spans, "serve.store"), "s"};
    l["serve.simulate_s"] = {medianSpan(spans, "serve.simulate"), "s"};

    if (with_sweep) {
        apres::RunnerOptions opts;
        opts.threads = hostThreads();
        opts.seedMode = apres::SeedMode::kUseConfigSeed;
        opts.keepGoing = true;
        apres::SweepRunner runner(opts);
        std::vector<std::shared_ptr<const apres::Workload>> workloads;
        for (const apres::ServeJobSpec& spec : jobs) {
            workloads.push_back(std::make_shared<const apres::Workload>(
                apres::makeWorkload(spec.workload, spec.scale)));
            runner.submit(spec.label, configOf(spec),
                          std::shared_ptr<const apres::Kernel>(
                              workloads.back(), &workloads.back()->kernel));
        }
        const auto start = Clock::now();
        const std::vector<apres::SweepResult> results =
            timed(spans, "sweep.runAll", -1, [&] { return runner.runAll(); });
        const double batch_wall = secondsSince(start);
        std::vector<double> walls;
        std::uint64_t failed_jobs = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            walls.push_back(results[i].wallSeconds);
            const bool ok = results[i].result.status == "ok" &&
                            statDigest(results[i].result.toStatSet()) ==
                                probed[i].digest;
            failed_jobs += ok ? 0 : 1;
            out.check(ok, "probe sweep " + jobs[i].label +
                              ": StatSet differs from the direct run");
        }
        addSweepLayers({walls}, {batch_wall}, opts.threads, failed_jobs, l);
    }
    return probed;
}

void
addSweepLayers(const std::vector<std::vector<double>>& job_walls,
               const std::vector<double>& batch_walls, int workers,
               std::uint64_t failed_jobs, MetricMap& layers)
{
    std::vector<double> p50s;
    std::vector<double> maxes;
    std::vector<double> idles;
    for (std::size_t b = 0; b < job_walls.size(); ++b) {
        const std::vector<double>& walls = job_walls[b];
        double sum = 0.0;
        for (double w : walls)
            sum += w;
        p50s.push_back(median(walls));
        maxes.push_back(walls.empty()
                            ? 0.0
                            : *std::max_element(walls.begin(), walls.end()));
        idles.push_back(workerIdleFrac(sum, workers, batch_walls[b]));
    }
    layers["sweep.job_wall_p50_s"] = {median(p50s), "s"};
    layers["sweep.job_wall_max_s"] = {median(maxes), "s"};
    layers["sweep.worker_idle_frac"] = {median(idles), "frac"};
    layers["sweep.failed_jobs"] = {static_cast<double>(failed_jobs), "count"};
}

double
peakRssMb(int pid)
{
    std::ifstream status(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                                 : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    return 0.0;
}

int
hostThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace perfbench
