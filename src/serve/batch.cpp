/**
 * @file
 * runCachedBatch: resolve, look up, simulate the misses, store.
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

namespace {

bool
knownWorkload(const std::string& name)
{
    const auto& names = allWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

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
            SweepJob job;
            job.label = spec.label;
            ConfigRegistry registry(job.config);
            for (const auto& [key, value] : spec.overrides)
                registry.set(key, value);

            if (!spec.kernelText.empty()) {
                job.kernel = std::make_shared<const Kernel>(
                    parseKernelText(spec.kernelText));
            } else {
                if (!knownWorkload(spec.workload))
                    throwConfigError("unknown workload \"" +
                                     spec.workload + "\"");
                job.kernel = std::make_shared<const Kernel>(
                    makeWorkload(spec.workload, spec.scale).kernel);
            }

            run.key = computeCacheKey(fingerprint, kernelFingerprint(spec),
                                      registry.semanticSnapshot());
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
