/**
 * @file
 * The one-run-per-cell comparison harness.
 */

#include "policy_compare.hpp"

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "serve/batch.hpp"

namespace apres {

CompareReport
runComparison(const CompareOptions& options)
{
    if (options.policies.size() < 2)
        throwConfigError("compare: need at least two policies");
    if (options.kernels.empty())
        throwConfigError("compare: need at least one kernel");

    CompareReport report;
    for (const ComparePolicy& p : options.policies)
        report.policies.push_back(p.label());
    for (const ServeJobSpec& k : options.kernels)
        report.kernels.push_back(k.label);

    // One job per (kernel, policy) cell, kernel-major.
    std::vector<ServeJobSpec> cells;
    for (const ServeJobSpec& kernel : options.kernels) {
        for (const ComparePolicy& policy : options.policies) {
            ServeJobSpec cell = kernel;
            cell.label = kernel.label + "/" + policy.label();
            cell.overrides.insert(cell.overrides.begin(),
                                  options.overrides.begin(),
                                  options.overrides.end());
            cell.overrides.emplace_back("scheduler", policy.scheduler);
            cell.overrides.emplace_back("prefetcher", policy.prefetcher);
            cells.push_back(std::move(cell));
        }
    }

    // Without a cache directory the cache is memory-only: nothing
    // outlives the comparison.
    ResultCache cache(options.cacheDir);
    RunnerOptions runner;
    runner.threads = options.threads;
    const std::vector<CachedRun> runs =
        runCachedBatch(cells, serveFingerprint(), cache, runner);

    // Every cell's status and IPC come from its payload, hit or fresh.
    std::vector<double> ipc(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonValue doc = JsonValue::parse(runs[i].payload);
        if (doc.at("status").asString() != "ok") {
            const JsonValue& error = doc.at("error");
            throwConfigError("compare: job '" + cells[i].label +
                             "' failed (" + error.at("kind").asString() +
                             ": " + error.at("detail").asString() + ")");
        }
        ipc[i] = doc.at("stats").at("sim.ipc").asDouble();
        if (runs[i].cached)
            ++report.cacheHits;
        else
            ++report.simulations;
    }

    const std::size_t np = options.policies.size();
    for (std::size_t ki = 0; ki < options.kernels.size(); ++ki) {
        for (std::size_t a = 0; a < np; ++a) {
            for (std::size_t b = a + 1; b < np; ++b) {
                ComparePair pair;
                pair.kernel = options.kernels[ki].label;
                pair.baseline = options.policies[a].label();
                pair.candidate = options.policies[b].label();
                pair.ipcBaseline = ipc[ki * np + a];
                pair.ipcCandidate = ipc[ki * np + b];
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
