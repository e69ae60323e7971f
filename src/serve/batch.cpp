/**
 * @file
 * Spec building, spec resolution, and runCachedBatch: resolve, look
 * up, simulate the misses, store.
 */

#include "batch.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/sim_error.hpp"
#include "isa/kernel_text.hpp"
#include "sim/config_registry.hpp"
#include "workloads/workload.hpp"

namespace apres {

std::vector<ServeJobSpec>
makeServeJobSpecs(
    const std::vector<std::string>& workloads,
    const std::vector<std::string>& kernel_files, double scale,
    const std::vector<std::pair<std::string, std::string>>& overrides)
{
    std::vector<ServeJobSpec> specs;
    const auto addWorkload = [&](const std::string& name) {
        ServeJobSpec spec;
        spec.label = name;
        spec.workload = name;
        spec.scale = scale;
        spec.overrides = overrides;
        specs.push_back(std::move(spec));
    };
    for (const std::string& name : workloads) {
        if (name != "all") {
            addWorkload(name);
            continue;
        }
        for (const std::string& each : allWorkloadNames())
            addWorkload(each);
    }
    for (const std::string& path : kernel_files) {
        ServeJobSpec spec;
        spec.label = path;
        spec.kernelText = readKernelFile(path);
        spec.overrides = overrides;
        specs.push_back(std::move(spec));
    }
    return specs;
}

SweepJob
resolveServeJob(const ServeJobSpec& spec)
{
    SweepJob job;
    job.label = spec.label;
    ConfigRegistry registry(job.config);
    for (const auto& [key, value] : spec.overrides)
        registry.set(key, value);
    job.kernel = std::make_shared<const Kernel>(
        spec.kernelText.empty()
            ? makeWorkload(spec.workload, spec.scale).kernel
            : parseKernelText(spec.kernelText));
    return job;
}

SimulationSlots::SimulationSlots(int slots) : free_(std::max(1, slots)) {}

SimulationSlots::Claim::Claim(SimulationSlots& slots, std::size_t want)
    : slots_(slots)
{
    std::unique_lock<std::mutex> lock(slots_.mu_);
    slots_.freed_.wait(lock, [this] { return slots_.free_ > 0; });
    count_ = static_cast<int>(std::min<std::size_t>(
        std::max<std::size_t>(want, 1),
        static_cast<std::size_t>(slots_.free_)));
    slots_.free_ -= count_;
}

SimulationSlots::Claim::~Claim()
{
    {
        const std::lock_guard<std::mutex> lock(slots_.mu_);
        slots_.free_ += count_;
    }
    slots_.freed_.notify_all();
}

std::vector<CachedRun>
runCachedBatch(const std::vector<ServeJobSpec>& jobs,
               const std::string& fingerprint, ResultCache& cache,
               RunnerOptions runner, SimulationSlots* slots)
{
    std::vector<CachedRun> runs(jobs.size());
    std::vector<SweepJob> misses;
    std::vector<std::size_t> missed; // miss -> job index

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ServeJobSpec& spec = jobs[i];
        CachedRun& run = runs[i];
        try {
            SweepJob job = resolveServeJob(spec);
            // A served job writes no files and runs on the one thread
            // its simulation slot pays for.
            if (!job.config.traceFile.empty())
                throwConfigError("sim.traceFile: a served job writes no "
                                 "files");
            if (job.config.shards != 1)
                throwConfigError("sim.shards: a served job runs on one "
                                 "thread (got " +
                                 std::to_string(job.config.shards) + ")");

            run.key = computeCacheKey(
                fingerprint, kernelFingerprint(spec),
                ConfigRegistry(job.config).semanticSnapshot());
            if (std::optional<std::string> hit = cache.lookup(run.key)) {
                run.cached = true;
                run.payload = std::move(*hit);
            } else {
                misses.push_back(std::move(job));
                missed.push_back(i);
            }
        } catch (const SimError& e) {
            RunResult r;
            r.status = "error";
            r.errorKind = e.kindName();
            r.errorDetail = e.detail();
            run.payload = serializeRunResult(r);
        }
    }

    if (misses.empty())
        return runs; // all hits: no slot claimed

    std::vector<SweepResult> results;
    {
        // The slots go back once the sweep drains, before the stores.
        std::optional<SimulationSlots::Claim> claim;
        if (slots) {
            claim.emplace(*slots, misses.size());
            runner.threads = claim->count();
        }
        runner.keepGoing = true; // errors become rows, the batch completes
        SweepRunner sweep(runner);
        for (SweepJob& job : misses)
            sweep.submit(std::move(job));
        results = sweep.runAll();
    }
    for (std::size_t m = 0; m < missed.size(); ++m) {
        CachedRun& run = runs[missed[m]];
        const RunResult& r = results[m].result;
        run.payload = serializeRunResult(r);
        if (r.status == "ok")
            cache.store(run.key, run.payload);
    }
    return runs;
}

} // namespace apres
