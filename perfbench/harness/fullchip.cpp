/**
 * @file
 * fullchip-apres: KM on 80 SMs x 64 warps under APRES (LAWS + SAP).
 * One caller in a closed loop; each sample builds the workload, then
 * simulates it once on the fast-forward engine and once at
 * sim.shards=4, and checks the two StatSets are bitwise equal.
 */

#include <memory>
#include <string>
#include <vector>

#include "harness/bench_math.hpp"
#include "harness/workloads.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

constexpr double kScale = 0.04;
constexpr int kMinSamples = 4;
constexpr int kSetupsPerSample = 4;

apres::ServeJobSpec
fullchipJob(std::uint64_t seed)
{
    apres::ServeJobSpec spec;
    spec.label = "KM-fullchip";
    spec.workload = "KM";
    spec.scale = kScale;
    spec.overrides = {{"numSms", "80"},
                      {"sm.warpsPerSm", "64"},
                      {"sm.warpsPerBlock", "64"},
                      {"scheduler", "laws"},
                      {"prefetcher", "sap"},
                      {"seed", std::to_string(seed)}};
    return spec;
}

struct Sample
{
    double ffRun = 0.0;      ///< Gpu::run on the ff engine
    double shardedRun = 0.0; ///< Gpu::run at sim.shards=4
    double wall = 0.0;       ///< the whole sample
    double instructions = 0.0;
    apres::StatSet stats;
};

Sample
runSample(const apres::ServeJobSpec& spec, SpanLog& spans, Outcome& out)
{
    Sample s;
    const auto start = Clock::now();
    SpanScope root(spans, "fullchip.sample");
    apres::Workload wl;
    {
        SpanScope span(spans, "workloads.build", root.id());
        wl = apres::makeWorkload(spec.workload, spec.scale);
    }
    const apres::GpuConfig config = configOf(spec);
    std::unique_ptr<apres::Gpu> gpu;
    {
        SpanScope span(spans, "sim.gpu_ctor", root.id());
        gpu = std::make_unique<apres::Gpu>(config, wl.kernel);
    }
    const auto run_start = Clock::now();
    apres::RunResult result;
    {
        SpanScope span(spans, "sim.run", root.id());
        result = gpu->run();
    }
    s.ffRun = secondsSince(run_start);
    {
        SpanScope span(spans, "sim.collect", root.id());
        s.stats = result.toStatSet();
    }
    s.instructions = s.stats.get("sim.instructions");
    out.check(result.status == "ok" && result.completed,
              "ff run did not complete");

    apres::GpuConfig sharded_config = config;
    sharded_config.shards = kShards;
    apres::Gpu sharded(sharded_config, wl.kernel);
    const auto sharded_start = Clock::now();
    apres::RunResult sharded_result;
    {
        SpanScope span(spans, "sim.sharded_run", root.id());
        sharded_result = sharded.run();
    }
    s.shardedRun = secondsSince(sharded_start);
    out.check(sharded_result.status == "ok" &&
                  statDigest(sharded_result.toStatSet()) ==
                      statDigest(s.stats),
              "ff and sharded StatSets differ");
    s.wall = secondsSince(start);
    return s;
}

/** Seconds of one set-up: makeWorkload + Gpu::Gpu. */
double
timeSetup(const apres::ServeJobSpec& spec, const apres::GpuConfig& config)
{
    const auto start = Clock::now();
    const apres::Workload wl = apres::makeWorkload(spec.workload, spec.scale);
    const apres::Gpu gpu(config, wl.kernel);
    return secondsSince(start);
}

/**
 * Samples until @p seconds have passed and kMinSamples are in. With
 * @p setups, kSetupsPerSample set-ups are timed after every sample:
 * spread over the whole run, a burst of host noise moves few of them.
 */
std::vector<Sample>
runLoop(const apres::ServeJobSpec& spec, double seconds, SpanLog& spans,
        Outcome& out, std::vector<double>* setups = nullptr)
{
    const apres::GpuConfig config = configOf(spec);
    std::vector<Sample> samples;
    const auto start = Clock::now();
    while (samples.size() < kMinSamples || secondsSince(start) < seconds) {
        samples.push_back(runSample(spec, spans, out));
        for (int r = 0; setups && r < kSetupsPerSample; ++r)
            setups->push_back(timeSetup(spec, config));
    }
    return samples;
}

/** Every sample of one seed must reproduce the first bit for bit. */
void
checkRepeats(const std::vector<Sample>& samples, const std::string& ref,
             Outcome& out)
{
    for (const Sample& s : samples) {
        out.check(statDigest(s.stats) == ref,
                  "a repeated simulation changed its StatSet");
    }
}

template <typename F>
double
medianOf(const std::vector<Sample>& samples, F&& field)
{
    std::vector<double> v;
    for (const Sample& s : samples)
        v.push_back(field(s));
    return median(v);
}

/**
 * Simulated Minst per second of one engine: total work over total
 * time, not a median of per-sample rates, which spread wide and skewed.
 */
double
minstPerSecond(const std::vector<Sample>& samples, double Sample::*seconds)
{
    double instructions = 0.0;
    double total = 0.0;
    for (const Sample& s : samples) {
        instructions += s.instructions;
        total += s.*seconds;
    }
    return instructions / total / 1e6;
}

} // namespace

void
runFullchip(const Options& opts, SpanLog& spans, Outcome& out)
{
    const apres::ServeJobSpec spec = fullchipJob(opts.seed);
    out.notes.push_back("modelled L1/L2 caches start empty in every "
                        "simulation (cold caches)");

    if (!opts.trace) {
        std::vector<double> setups;
        const auto start = Clock::now();
        const std::vector<Sample> samples =
            runLoop(spec, opts.seconds, spans, out, &setups);
        const double loop_wall = secondsSince(start);
        const double setup = median(setups);
        checkRepeats(samples, statDigest(samples.front().stats), out);

        const double ff = minstPerSecond(samples, &Sample::ffRun);
        const double sharded = minstPerSecond(samples, &Sample::shardedRun);
        const double rss = peakRssMb();
        out.endToEnd["setup_s"] = {setup, "s"};
        out.endToEnd["sim_minst_per_s"] = {ff, "Minst/s"};
        out.endToEnd["p50_ms"] = {
            1e3 * medianOf(samples, [](auto& s) { return s.wall; }), "ms"};
        out.endToEnd["ops_per_s"] = {2.0 * samples.size() / loop_wall, "1/s"};
        out.endToEnd["peak_rss_mb"] = {rss, "MB"};

        out.report["setup_s"] = {setup, "s"};
        out.report["sim_minst_per_s"] = {ff, "Minst/s"};
        out.report["sharded_minst_per_s"] = {sharded, "Minst/s"};
        out.report["peak_rss_mb"] = {rss, "MB"};
        out.report["samples"] = {static_cast<double>(samples.size()),
                                 "count"};
        return;
    }

    // Traced run: half the time untraced as the reference, half with
    // spans on; the StatSets must not move.
    SpanLog off(false);
    const std::vector<Sample> plain = runLoop(spec, opts.seconds / 2, off, out);
    const std::vector<Sample> traced =
        runLoop(spec, opts.seconds / 2, spans, out);
    const std::string ref = statDigest(plain.front().stats);
    checkRepeats(plain, ref, out);
    checkRepeats(traced, ref, out);

    const std::vector<ProbedJob> probed =
        probeLayers({spec}, "probe-cache", true, spans, out);
    out.check(probed.front().digest == ref,
              "layer probe StatSet differs from the loop's");

    const auto wall = [](auto& s) { return s.wall; };
    out.layers["trace.overhead_frac"] = {
        medianOf(traced, wall) / medianOf(plain, wall) - 1.0, "frac"};
    const double sharded = minstPerSecond(traced, &Sample::shardedRun);
    out.layers["sim.sharded_over_ff"] = {
        sharded / minstPerSecond(traced, &Sample::ffRun), "ratio"};
    out.layers["sim.sharded_minst_per_s"] = {sharded, "Minst/s"};
    CountAggregate counts;
    counts.add(plain.front().stats, 80);
    counts.emit(out.layers);
}

} // namespace perfbench
