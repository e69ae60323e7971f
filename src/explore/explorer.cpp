/**
 * @file
 * Exploration campaign: corpus loading, the steering loop, greedy
 * minimization, and the deterministic report.
 */

#include "explorer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/sim_error.hpp"
#include "common/trace.hpp"
#include "sim/config_registry.hpp"
#include "sim/runner.hpp"

namespace apres {
namespace {

/** Probe batches keep going: a failed probe row still lights bins. */
RunnerOptions
probeRunnerOptions()
{
    RunnerOptions opts;
    opts.keepGoing = true;
    return opts;
}

/** Candidate name: admission counter + signature content hash. */
std::string
candidateName(std::size_t index, const KernelSignature& sig)
{
    std::ostringstream os;
    os << "x";
    const std::string n = std::to_string(index);
    for (std::size_t i = n.size(); i < 3; ++i)
        os << '0';
    os << n << '_' << contentHash(serializeSignature(sig)).substr(0, 8);
    return os.str();
}

} // namespace

Explorer::Explorer(ExploreOptions options) : opts_(std::move(options))
{
    probes_ = opts_.probes.empty() ? defaultProbes() : opts_.probes;
}

std::vector<ProbeConfig>
Explorer::defaultProbes()
{
    // Three machine shapes chosen to expose different decision paths:
    // the full APRES stack on a small healthy machine, the same stack
    // squeezed (tiny L1, few MSHRs, adaptive bypass armed) so
    // saturation/bypass/early-eviction regimes light up, and a
    // non-APRES baseline so scheduler-independent bins (SLD walks,
    // plain MSHR behaviour) are reachable too.
    return {
        {"apres",
         {{"scheduler", "laws"}, {"prefetcher", "sap"}}},
        {"apres-tiny",
         {{"scheduler", "laws"},
          {"prefetcher", "sap"},
          {"l1.sizeBytes", "4096"},
          {"l1.numMshrs", "4"},
          {"lsu.adaptiveBypass", "true"}}},
        {"gto-sld",
         {{"scheduler", "gto"}, {"prefetcher", "sld"}}},
    };
}

void
Explorer::submitProbes(SweepRunner& runner, const KernelSignature& sig,
                       const std::string& name) const
{
    const auto kernel =
        std::make_shared<const Kernel>(buildKernel(sig, name));
    for (const ProbeConfig& probe : probes_) {
        GpuConfig cfg;
        ConfigRegistry reg(cfg);
        // A probe machine is small on purpose: candidate kernels are
        // tiny, and the regimes of interest (thrash, saturation,
        // stride detection) show up at any scale.
        reg.set("numSms", "2");
        reg.set("sm.warpsPerSm", "16");
        reg.set("sm.warpsPerBlock", "8");
        reg.set("maxCycles", "400000");
        reg.set("sim.metrics", "true");
        reg.set("sim.trace", "true");
        reg.set("sim.traceBufferEvents", "256");
        for (const auto& [key, value] : opts_.overrides)
            reg.set(key, value);
        for (const auto& [key, value] : probe.overrides)
            reg.set(key, value);

        SweepJob job;
        job.label = probe.label + ":" + name;
        job.config = cfg;
        job.kernel = kernel;
        // The tracer's per-type totals are the only coverage source
        // RunResult does not already carry; fold them in as policy
        // stats so bin extraction needs nothing but the result row.
        job.drive = [](Gpu& gpu) {
            RunResult r = gpu.run();
            if (const Tracer* t = gpu.tracer()) {
                for (const auto& [event, count] : t->eventTypeCounts())
                    r.policy.set("trace." + event,
                                 static_cast<double>(count));
            }
            return r;
        };
        runner.submit(std::move(job));
    }
}

std::vector<std::string>
Explorer::probeBins(const std::vector<SweepResult>& results,
                    std::size_t first) const
{
    std::vector<std::string> bins;
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        const auto probe_bins = coverageBins(probes_[i].label,
                                             results[first + i].result);
        bins.insert(bins.end(), probe_bins.begin(), probe_bins.end());
    }
    std::sort(bins.begin(), bins.end());
    bins.erase(std::unique(bins.begin(), bins.end()), bins.end());
    return bins;
}

std::vector<std::string>
Explorer::probeSignature(const KernelSignature& sig,
                         const std::string& name) const
{
    // The probes are independent simulations: run them as one batch.
    // Results come back in submission order, so the bins do not
    // depend on the worker count.
    SweepRunner runner(probeRunnerOptions());
    submitProbes(runner, sig, name);
    return probeBins(runner.runAll(), 0);
}

std::size_t
Explorer::loadCorpus()
{
    if (opts_.corpusDir.empty())
        return 0;
    namespace fs = std::filesystem;
    if (!fs::exists(opts_.corpusDir))
        return 0;

    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(opts_.corpusDir)) {
        if (entry.path().extension() == ".kt")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());

    // Every file is parsed (failing on the first bad one, in file
    // order) and queued before anything runs; then all their probes
    // run as one batch, and coverage grows in file order.
    SweepRunner runner(probeRunnerOptions());
    std::vector<CorpusEntry> loaded;
    for (const std::string& path : files) {
        std::ifstream in(path);
        if (!in)
            throwSerializationError("explore: cannot read corpus file " +
                                    path);
        std::string first_line;
        std::getline(in, first_line);
        const std::string marker = "# sig: ";
        if (first_line.rfind(marker, 0) != 0) {
            throwSerializationError(
                "explore: corpus file " + path +
                " has no '# sig:' header (not an explore corpus file)");
        }
        CorpusEntry entry;
        entry.signature = parseSignature(first_line.substr(marker.size()));
        entry.name = fs::path(path).stem().string();
        entry.loaded = true;
        submitProbes(runner, entry.signature, entry.name);
        loaded.push_back(std::move(entry));
    }
    const std::vector<SweepResult> results = runner.runAll();
    for (std::size_t f = 0; f < loaded.size(); ++f) {
        CorpusEntry& entry = loaded[f];
        entry.bins = probeBins(results, f * probes_.size());
        entry.newBins = coverage_.add(entry.bins);
        corpus_.push_back(std::move(entry));
    }
    return corpus_.size();
}

std::size_t
Explorer::pickParent(Rng& rng) const
{
    // Rarity-weighted tournament of 3: sample three members, keep the
    // one whose bins are rarest across the campaign so far.
    std::size_t best = rng.nextBounded(corpus_.size());
    double best_score = coverage_.rarity(corpus_[best].bins);
    for (int i = 0; i < 2; ++i) {
        const std::size_t cand = rng.nextBounded(corpus_.size());
        const double score = coverage_.rarity(corpus_[cand].bins);
        if (score > best_score) {
            best = cand;
            best_score = score;
        }
    }
    return best;
}

std::size_t
Explorer::run()
{
    loadedEntries_ = loadCorpus();
    initialCoverage_ = coverage_.size();

    Rng rng(opts_.seed);
    for (int round = 0; round < opts_.budget; ++round) {
        RoundRecord rec;
        rec.round = round;

        KernelSignature sig;
        if (corpus_.empty() || rng.nextDouble() < opts_.freshBias) {
            rec.mode = "fresh";
            sig = randomSignature(rng);
        } else {
            rec.mode = "mutate";
            const std::size_t parent = pickParent(rng);
            rec.parent = corpus_[parent].name;
            sig = corpus_[parent].signature;
            const int steps = 1 + static_cast<int>(rng.nextBounded(3));
            for (int s = 0; s < steps; ++s)
                sig = mutateSignature(sig, rng);
        }

        rec.name = candidateName(corpus_.size(), sig);
        const auto bins = probeSignature(sig, rec.name);
        rec.newBins = coverage_.add(bins);
        rec.accepted = !rec.newBins.empty();
        if (rec.accepted) {
            CorpusEntry entry;
            entry.name = rec.name;
            entry.signature = sig;
            entry.newBins = rec.newBins;
            entry.bins = bins;
            corpus_.push_back(std::move(entry));
        }
        rounds_.push_back(std::move(rec));
    }

    minimizeCorpus();
    writeCorpus();
    return coverage_.size() - initialCoverage_;
}

void
Explorer::minimizeCorpus()
{
    // Greedy backward elimination, newest first: an admitted kernel
    // is dropped when every bin it lights is lit by another kept
    // member. Loaded (checked-in) entries are never dropped — the
    // explorer must not invalidate an existing regression corpus.
    std::map<std::string, int> owners;
    for (const CorpusEntry& entry : corpus_) {
        for (const std::string& bin : entry.bins)
            ++owners[bin];
    }
    for (auto it = corpus_.rbegin(); it != corpus_.rend(); ++it) {
        if (it->loaded)
            continue;
        const bool redundant = std::all_of(
            it->bins.begin(), it->bins.end(),
            [&](const std::string& bin) { return owners[bin] >= 2; });
        if (redundant) {
            it->kept = false;
            for (const std::string& bin : it->bins)
                --owners[bin];
        }
    }
}

void
Explorer::writeCorpus() const
{
    if (opts_.corpusDir.empty())
        return;
    std::filesystem::create_directories(opts_.corpusDir);
    for (const CorpusEntry& entry : corpus_) {
        if (entry.loaded || !entry.kept)
            continue;
        const std::string path =
            opts_.corpusDir + "/" + entry.name + ".kt";
        std::ofstream out(path);
        if (!out)
            throwSerializationError("explore: cannot write corpus file " +
                                    path);
        out << kernelTextOf(entry.signature, entry.name);
    }
}

void
Explorer::writeReport(std::ostream& os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.field("tool", "apres_explore");
    json.field("schema", "apres-explore-report-v1");
    json.field("mode", "explore");
    json.field("seed", opts_.seed);
    json.field("budget", static_cast<std::uint64_t>(opts_.budget));
    json.field("freshBias", opts_.freshBias);

    json.beginArray("probes");
    for (const ProbeConfig& probe : probes_) {
        json.beginObject();
        json.field("label", probe.label);
        json.beginObject("overrides");
        for (const auto& [key, value] : probe.overrides)
            json.field(key, value);
        json.endObject();
        json.endObject();
    }
    json.endArray();

    json.field("corpusLoaded",
               static_cast<std::uint64_t>(loadedEntries_));
    json.field("initialCoverage",
               static_cast<std::uint64_t>(initialCoverage_));
    json.field("finalCoverage",
               static_cast<std::uint64_t>(coverage_.size()));
    json.field("newBins", static_cast<std::uint64_t>(coverage_.size() -
                                                     initialCoverage_));

    json.beginArray("rounds");
    for (const RoundRecord& rec : rounds_) {
        json.beginObject();
        json.field("round", static_cast<std::uint64_t>(rec.round));
        json.field("mode", rec.mode);
        if (!rec.parent.empty())
            json.field("parent", rec.parent);
        json.field("name", rec.name);
        json.field("accepted", rec.accepted);
        json.beginArray("newBins");
        for (const std::string& bin : rec.newBins) {
            json.beginObject();
            json.field("bin", bin);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.beginArray("corpus");
    for (const CorpusEntry& entry : corpus_) {
        json.beginObject();
        json.field("name", entry.name);
        json.field("loaded", entry.loaded);
        json.field("kept", entry.kept);
        json.field("signature", serializeSignature(entry.signature));
        json.field("bins", static_cast<std::uint64_t>(entry.bins.size()));
        json.field("newBins",
                   static_cast<std::uint64_t>(entry.newBins.size()));
        json.endObject();
    }
    json.endArray();

    json.beginObject("coverage");
    coverage_.writeJson(json);
    json.endObject();
    json.endObject();
    json.finish();
}

} // namespace apres
