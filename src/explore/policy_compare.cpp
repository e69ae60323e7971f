/**
 * @file
 * The one-run-per-cell comparison harness.
 */

#include "policy_compare.hpp"

#include <memory>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "isa/kernel_text.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "sim/config_registry.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

struct CellRef
{
    std::size_t kernel = 0;
    std::size_t policy = 0;
    std::string cacheKey; ///< empty when caching is off
};

} // namespace

CompareReport
runComparison(const CompareOptions& options)
{
    if (options.policies.size() < 2)
        throwConfigError("compare: need at least two policies");
    if (options.kernels.empty())
        throwConfigError("compare: need at least one kernel");

    // Build every kernel once; cells share them immutably.
    std::vector<std::shared_ptr<const Kernel>> kernels;
    kernels.reserve(options.kernels.size());
    for (const CompareKernel& spec : options.kernels) {
        if (!spec.workload.empty()) {
            kernels.push_back(std::make_shared<const Kernel>(
                makeWorkload(spec.workload, spec.scale).kernel));
        } else if (!spec.kernelText.empty()) {
            kernels.push_back(std::make_shared<const Kernel>(
                parseKernelText(spec.kernelText)));
        } else {
            throwConfigError("compare: kernel '" + spec.label +
                             "' has neither a workload nor kernel text");
        }
    }

    CompareReport report;
    for (const ComparePolicy& p : options.policies)
        report.policies.push_back(p.label());
    for (const CompareKernel& k : options.kernels)
        report.kernels.push_back(k.label);

    std::unique_ptr<ResultCache> cache;
    if (!options.cacheDir.empty())
        cache = std::make_unique<ResultCache>(options.cacheDir);

    // ipc[kernel][policy]
    std::vector<std::vector<double>> ipc(
        options.kernels.size(),
        std::vector<double>(options.policies.size(), 0.0));

    RunnerOptions runner_opts;
    runner_opts.threads = options.threads;
    SweepRunner runner(runner_opts);
    std::vector<CellRef> submitted;

    for (std::size_t ki = 0; ki < options.kernels.size(); ++ki) {
        for (std::size_t pi = 0; pi < options.policies.size(); ++pi) {
            GpuConfig cfg;
            ConfigRegistry reg(cfg);
            for (const auto& [key, value] : options.overrides)
                reg.set(key, value);
            reg.set("scheduler", options.policies[pi].scheduler);
            reg.set("prefetcher", options.policies[pi].prefetcher);

            std::string key;
            if (cache) {
                ServeJobSpec spec;
                spec.workload = options.kernels[ki].workload;
                spec.scale = options.kernels[ki].scale;
                spec.kernelText = options.kernels[ki].kernelText;
                key = computeCacheKey(serveFingerprint(),
                                      kernelFingerprint(spec),
                                      reg.semanticSnapshot());
                if (const auto payload = cache->lookup(key)) {
                    const JsonValue doc = JsonValue::parse(*payload);
                    ipc[ki][pi] = doc.at("stats").at("sim.ipc").asDouble();
                    ++report.cacheHits;
                    continue;
                }
            }

            SweepJob job;
            job.label = options.kernels[ki].label + "/" +
                        options.policies[pi].label();
            job.config = cfg;
            job.kernel = kernels[ki];
            runner.submit(std::move(job));
            submitted.push_back({ki, pi, key});
        }
    }

    if (!submitted.empty()) {
        const std::vector<SweepResult> results = runner.runAll();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunResult& r = results[i].result;
            if (r.status != "ok") {
                // A comparison with a missing cell would silently
                // report a partial table; fail the whole run instead.
                throwConfigError("compare: job '" + results[i].label +
                                 "' failed (" + r.errorKind + ": " +
                                 r.errorDetail + ")");
            }
            const CellRef& ref = submitted[i];
            ipc[ref.kernel][ref.policy] = r.ipc;
            ++report.simulations;
            if (cache && !ref.cacheKey.empty())
                cache->store(ref.cacheKey, serializeRunResult(r));
        }
    }

    for (std::size_t ki = 0; ki < options.kernels.size(); ++ki) {
        for (std::size_t a = 0; a < options.policies.size(); ++a) {
            for (std::size_t b = a + 1; b < options.policies.size(); ++b) {
                ComparePair pair;
                pair.kernel = options.kernels[ki].label;
                pair.baseline = options.policies[a].label();
                pair.candidate = options.policies[b].label();
                pair.ipcBaseline = ipc[ki][a];
                pair.ipcCandidate = ipc[ki][b];
                if (pair.ipcBaseline <= 0.0) {
                    throwConfigError("compare: baseline " + pair.baseline +
                                     " on " + pair.kernel +
                                     " produced zero IPC");
                }
                pair.speedup = pair.ipcCandidate / pair.ipcBaseline;
                report.pairs.push_back(std::move(pair));
            }
        }
    }
    return report;
}

void
CompareReport::writeJson(std::ostream& os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.field("tool", "apres_explore");
    json.field("schema", "apres-compare-report-v2");
    json.field("mode", "compare");

    json.beginArray("policies");
    for (const std::string& p : policies) {
        json.beginObject();
        json.field("label", p);
        json.endObject();
    }
    json.endArray();

    json.beginArray("kernels");
    for (const std::string& k : kernels) {
        json.beginObject();
        json.field("label", k);
        json.endObject();
    }
    json.endArray();

    json.beginArray("pairs");
    for (const ComparePair& pair : pairs) {
        json.beginObject();
        json.field("kernel", pair.kernel);
        json.field("baseline", pair.baseline);
        json.field("candidate", pair.candidate);
        json.field("ipcBaseline", pair.ipcBaseline);
        json.field("ipcCandidate", pair.ipcCandidate);
        json.field("speedup", pair.speedup);
        json.endObject();
    }
    json.endArray();

    json.field("simulations", simulations);
    json.field("cacheHits", cacheHits);
    json.endObject();
    json.finish();
}

void
CompareReport::writeCsv(std::ostream& os) const
{
    os << "kernel,baseline,candidate,ipcBaseline,ipcCandidate,speedup\n";
    for (const ComparePair& pair : pairs) {
        os << csvEscapeField(pair.kernel) << ','
           << csvEscapeField(pair.baseline) << ','
           << csvEscapeField(pair.candidate) << ','
           << formatDouble(pair.ipcBaseline) << ','
           << formatDouble(pair.ipcCandidate) << ','
           << formatDouble(pair.speedup) << '\n';
    }
}

} // namespace apres
