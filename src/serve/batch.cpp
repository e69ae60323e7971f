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

std::vector<CachedRun>
runCachedBatch(const std::vector<ServeJobSpec>& jobs,
               const std::string& fingerprint, ResultCache& cache,
               RunnerOptions runner)
{
    std::vector<CachedRun> runs(jobs.size());
    runner.keepGoing = true; // errors become rows, the batch completes
    SweepRunner sweep(runner);
    std::vector<std::size_t> missed; // runner slot -> job index

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
                sweep.submit(std::move(job));
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

    const std::vector<SweepResult> results = sweep.runAll();
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
