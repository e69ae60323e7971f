/**
 * @file
 * Tests of the explore subsystem: signature genome round-trips,
 * coverage-bin extraction, the campaign's determinism contract, the
 * policy comparison harness, and the checked-in adversarial corpus as
 * regression workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/sim_error.hpp"
#include "common/trace.hpp"
#include "explore/coverage.hpp"
#include "explore/explorer.hpp"
#include "explore/policy_compare.hpp"
#include "explore/signature.hpp"
#include "isa/kernel_text.hpp"
#include "sim/config_registry.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

using namespace apres;

namespace {

namespace fs = std::filesystem;

/** Checked-in corpus files, sorted by name. */
std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    for (const auto& entry :
         fs::directory_iterator(APRES_EXPLORE_CORPUS_DIR)) {
        if (entry.path().extension() == ".kt")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Fast campaign options for determinism tests. */
ExploreOptions
quickOptions(std::uint64_t seed, int budget)
{
    ExploreOptions opts;
    opts.seed = seed;
    opts.budget = budget;
    opts.overrides = {{"maxCycles", "60000"}};
    return opts;
}

} // namespace

// ---------------------------------------------------------------------------
// Signature genome

TEST(Signature, SerializationRoundTrips)
{
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const KernelSignature sig = randomSignature(rng);
        const std::string text = serializeSignature(sig);
        const KernelSignature back = parseSignature(text);
        EXPECT_EQ(text, serializeSignature(back)) << "iteration " << i;
    }
}

TEST(Signature, MutationRoundTrips)
{
    Rng rng(43);
    KernelSignature sig = randomSignature(rng);
    for (int i = 0; i < 200; ++i) {
        sig = mutateSignature(sig, rng);
        const std::string text = serializeSignature(sig);
        EXPECT_EQ(text, serializeSignature(parseSignature(text)))
            << "iteration " << i;
    }
}

TEST(Signature, GenerationIsDeterministic)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(serializeSignature(randomSignature(a)),
                  serializeSignature(randomSignature(b)));
    }
}

TEST(Signature, EveryGenomeBuildsAndKernelTextRoundTrips)
{
    // The value tables must keep every random/mutated genome inside
    // the kernel-text contract: buildable, and the emitted text
    // parses back into an identical kernel.
    Rng rng(44);
    KernelSignature sig = randomSignature(rng);
    for (int i = 0; i < 100; ++i) {
        sig = (i % 3 == 0) ? randomSignature(rng)
                           : mutateSignature(sig, rng);
        const std::string text = kernelTextOf(sig, "roundtrip");
        const Kernel back = parseKernelText(text);
        std::ostringstream re;
        re << "# sig: " << serializeSignature(sig) << "\n";
        writeKernelText(back, re);
        EXPECT_EQ(text, re.str()) << "iteration " << i;
    }
}

TEST(Signature, ParseRejectsMalformedInput)
{
    EXPECT_THROW(parseSignature("not a signature"), SimError);
    EXPECT_THROW(parseSignature("sig v2 seed=1"), SimError);
    EXPECT_THROW(parseSignature("sig v1 seed=1 trips=4 barrier=0 store=1"),
                 SimError); // no loads
    EXPECT_THROW(
        parseSignature("sig v1 trips=4 | kind=strided bogus=1"),
        SimError);
    EXPECT_THROW(
        parseSignature("sig v1 trips=4 | kind=wat region=1"),
        SimError);
}

// ---------------------------------------------------------------------------
// Coverage bins

TEST(Coverage, BinsAreDeterministicSortedAndProbed)
{
    Rng rng(45);
    const KernelSignature sig = randomSignature(rng);
    GpuConfig cfg;
    ConfigRegistry reg(cfg);
    reg.set("numSms", "1");
    reg.set("maxCycles", "60000");
    reg.set("scheduler", "laws");
    reg.set("prefetcher", "sap");
    reg.set("sim.metrics", "true");
    const Kernel kernel = buildKernel(sig, "cov");
    const RunResult r = simulate(cfg, kernel);

    const auto bins = coverageBins("probe", r);
    EXPECT_FALSE(bins.empty());
    EXPECT_TRUE(std::is_sorted(bins.begin(), bins.end()));
    EXPECT_EQ(bins, coverageBins("probe", r));
    for (const std::string& bin : bins)
        EXPECT_EQ(bin.rfind("probe/", 0), 0u) << bin;
    // The run completed, so the status bin must be the ok one.
    EXPECT_NE(std::find(bins.begin(), bins.end(),
                        std::string("probe/status:ok")),
              bins.end());
}

TEST(Coverage, ErrorRowsOnlyContributeStatusBins)
{
    RunResult r;
    r.status = "error";
    r.errorKind = "DeadlockError";
    const auto bins = coverageBins("p", r);
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_EQ(bins[0], "p/completed:0");
    EXPECT_EQ(bins[1], "p/status:error:DeadlockError");
}

TEST(Coverage, MapTracksNoveltyAndRarity)
{
    CoverageMap map;
    const auto first = map.add({"a", "b"});
    EXPECT_EQ(first, (std::vector<std::string>{"a", "b"}));
    const auto second = map.add({"b", "c"});
    EXPECT_EQ(second, (std::vector<std::string>{"c"}));
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.timesLit("b"), 2u);
    EXPECT_TRUE(map.covers("a"));
    EXPECT_FALSE(map.covers("z"));
    // b (lit twice) contributes 1/2, a and c contribute 1 each.
    EXPECT_DOUBLE_EQ(map.rarity({"a", "b", "c"}), 2.5);
    EXPECT_DOUBLE_EQ(map.rarity({"z"}), 0.0);
}

// ---------------------------------------------------------------------------
// Campaign determinism

TEST(Explorer, SameSeedSameReportAndCoverage)
{
    Explorer a(quickOptions(11, 4));
    Explorer b(quickOptions(11, 4));
    a.run();
    b.run();
    std::ostringstream ra;
    std::ostringstream rb;
    a.writeReport(ra);
    b.writeReport(rb);
    EXPECT_EQ(ra.str(), rb.str());
    EXPECT_EQ(a.coverage().bins(), b.coverage().bins());
    ASSERT_EQ(a.corpus().size(), b.corpus().size());
    for (std::size_t i = 0; i < a.corpus().size(); ++i) {
        EXPECT_EQ(serializeSignature(a.corpus()[i].signature),
                  serializeSignature(b.corpus()[i].signature));
    }
}

TEST(Explorer, ReportIndependentOfWorkerCount)
{
    // A candidate's probes run as one parallel batch; the bins are
    // read in submission order, so the worker count cannot show.
    const char* saved = std::getenv("APRES_BENCH_JOBS");
    const std::string restore = saved ? saved : "";
    std::vector<std::string> reports;
    for (const char* jobs : {"1", "4"}) {
        ASSERT_EQ(setenv("APRES_BENCH_JOBS", jobs, 1), 0);
        Explorer explorer(quickOptions(5, 4));
        explorer.run();
        std::ostringstream report;
        explorer.writeReport(report);
        reports.push_back(report.str());
    }
    if (saved)
        setenv("APRES_BENCH_JOBS", restore.c_str(), 1);
    else
        unsetenv("APRES_BENCH_JOBS");
    EXPECT_EQ(reports[0], reports[1]);
}

TEST(Explorer, DifferentSeedsDiverge)
{
    Explorer a(quickOptions(11, 4));
    Explorer b(quickOptions(12, 4));
    a.run();
    b.run();
    std::ostringstream ra;
    std::ostringstream rb;
    a.writeReport(ra);
    b.writeReport(rb);
    EXPECT_NE(ra.str(), rb.str());
}

TEST(Explorer, CampaignFindsCoverageFromColdStart)
{
    Explorer explorer(quickOptions(11, 4));
    const std::size_t new_bins = explorer.run();
    EXPECT_GT(new_bins, 0u);
    EXPECT_FALSE(explorer.corpus().empty());
    EXPECT_EQ(explorer.rounds().size(), 4u);
}

TEST(Explorer, WritesSelfDescribingCorpusFiles)
{
    const fs::path dir =
        fs::temp_directory_path() / "apres_explore_test_corpus";
    fs::remove_all(dir);
    ExploreOptions opts = quickOptions(13, 3);
    opts.corpusDir = dir.string();
    Explorer explorer(opts);
    explorer.run();

    std::size_t kept = 0;
    for (const CorpusEntry& entry : explorer.corpus())
        kept += entry.kept ? 1 : 0;
    std::size_t files = 0;
    for (const auto& file : fs::directory_iterator(dir)) {
        ++files;
        const std::string text = readFile(file.path().string());
        EXPECT_EQ(text.rfind("# sig: ", 0), 0u);
        // Files must parse both as a signature and as kernel text.
        const std::string first = text.substr(0, text.find('\n'));
        parseSignature(first.substr(7));
        parseKernelText(text);
    }
    EXPECT_EQ(files, kept);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Checked-in corpus: regression workloads

TEST(Corpus, HasAtLeastFiveKernels)
{
    EXPECT_GE(corpusFiles().size(), 5u);
}

TEST(Corpus, FilesRegenerateExactlyFromTheirSignatures)
{
    // Every corpus file must be bitwise-regenerable from its own
    // `# sig:` header: this pins the generator (value tables, gen
    // seeding, barrier placement) — any drift silently changes what
    // the corpus tests, so it must fail here instead.
    for (const std::string& path : corpusFiles()) {
        const std::string text = readFile(path);
        ASSERT_EQ(text.rfind("# sig: ", 0), 0u) << path;
        const std::string header = text.substr(7, text.find('\n') - 7);
        const KernelSignature sig = parseSignature(header);
        const std::string name = fs::path(path).stem().string();
        EXPECT_EQ(kernelTextOf(sig, name), text) << path;
    }
}

TEST(Corpus, KernelsRunCleanUnderTheApresStack)
{
    // The adversarial kernels are regression workloads: each must
    // still parse, simulate without faulting under the full APRES
    // configuration, and actually execute instructions.
    for (const std::string& path : corpusFiles()) {
        const Kernel kernel = parseKernelText(readFile(path));
        GpuConfig cfg;
        ConfigRegistry reg(cfg);
        reg.set("numSms", "2");
        reg.set("sm.warpsPerSm", "16");
        reg.set("sm.warpsPerBlock", "8");
        reg.set("scheduler", "laws");
        reg.set("prefetcher", "sap");
        reg.set("maxCycles", "400000");
        const RunResult r = simulate(cfg, kernel);
        EXPECT_EQ(r.status, "ok") << path;
        EXPECT_GT(r.instructions, 0u) << path;
    }
}

TEST(Corpus, EveryKernelOwnsUniqueCoverage)
{
    // Minimization already dropped redundant members at generation
    // time; the checked-in set must stay minimal, i.e. every kernel
    // holds at least one bin no other corpus member lights. Uses the
    // campaign probes, so this also re-derives each member's
    // coverage from scratch (exactly: a run is a pure function of its
    // config and kernel).
    const auto files = corpusFiles();
    Explorer explorer{ExploreOptions{}};
    std::vector<std::vector<std::string>> all_bins;
    for (const std::string& path : files) {
        const std::string text = readFile(path);
        const std::string header = text.substr(7, text.find('\n') - 7);
        all_bins.push_back(
            explorer.probeSignature(parseSignature(header),
                                    fs::path(path).stem().string()));
    }
    std::map<std::string, int> owners;
    for (const auto& bins : all_bins) {
        for (const std::string& bin : bins)
            ++owners[bin];
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
        const bool unique = std::any_of(
            all_bins[i].begin(), all_bins[i].end(),
            [&](const std::string& bin) { return owners[bin] == 1; });
        EXPECT_TRUE(unique) << files[i] << " is redundant";
    }
}

// ---------------------------------------------------------------------------
// Policy comparison harness

TEST(Compare, OneRunPerKernelPolicyCell)
{
    CompareOptions opts;
    opts.policies = {{"lrr", "none"}, {"gto", "none"}, {"laws", "sap"}};
    for (const char* app : {"KM", "BFS"}) {
        ServeJobSpec k;
        k.label = app;
        k.workload = app;
        k.scale = 0.02;
        opts.kernels.push_back(k);
    }
    opts.overrides = {{"maxCycles", "2000000"}, {"numSms", "2"}};
    opts.threads = 2;

    const CompareReport report = runComparison(opts);
    EXPECT_EQ(report.simulations, 2u * 3u);
    EXPECT_EQ(report.cacheHits, 0u);
    ASSERT_EQ(report.pairs.size(), 2u * 3u); // kernels x C(3, 2)
    for (const ComparePair& pair : report.pairs) {
        EXPECT_GT(pair.ipcBaseline, 0.0) << pair.kernel;
        EXPECT_GT(pair.ipcCandidate, 0.0) << pair.kernel;
        EXPECT_EQ(pair.speedup, pair.ipcCandidate / pair.ipcBaseline);
    }
    const ComparePair& first = report.pairs[0];
    EXPECT_EQ(first.kernel, "KM");
    EXPECT_EQ(first.baseline, "lrr+none");
    EXPECT_EQ(first.candidate, "gto+none");

    // A cell's IPC is exactly the IPC of a direct run of its config.
    GpuConfig cfg;
    ConfigRegistry reg(cfg);
    for (const auto& [key, value] : opts.overrides)
        reg.set(key, value);
    const Kernel km = makeWorkload("KM", 0.02).kernel;
    EXPECT_EQ(first.ipcBaseline, Gpu(cfg, km).run().ipc);

    // Determinism: the same options produce a bitwise-identical
    // document, thread pool and all.
    std::ostringstream j1;
    std::ostringstream j2;
    report.writeJson(j1);
    runComparison(opts).writeJson(j2);
    EXPECT_EQ(j1.str(), j2.str());
}

TEST(Compare, WarmRerunsComeFromTheResultCache)
{
    const fs::path dir =
        fs::temp_directory_path() / "apres_explore_test_cache";
    fs::remove_all(dir);

    CompareOptions opts;
    opts.policies = {{"lrr", "none"}, {"gto", "none"}};
    ServeJobSpec k;
    k.label = "BFS";
    k.workload = "BFS";
    k.scale = 0.02;
    opts.kernels = {k};
    opts.overrides = {{"maxCycles", "2000000"}, {"numSms", "1"}};
    opts.cacheDir = dir.string();

    const CompareReport cold = runComparison(opts);
    EXPECT_EQ(cold.simulations, 2u);
    EXPECT_EQ(cold.cacheHits, 0u);

    const CompareReport warm = runComparison(opts);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.cacheHits, 2u);
    ASSERT_EQ(warm.pairs.size(), cold.pairs.size());
    EXPECT_EQ(warm.pairs[0].ipcBaseline, cold.pairs[0].ipcBaseline);
    EXPECT_EQ(warm.pairs[0].ipcCandidate, cold.pairs[0].ipcCandidate);
    EXPECT_EQ(warm.pairs[0].speedup, cold.pairs[0].speedup);
    fs::remove_all(dir);
}

TEST(Compare, RejectsMalformedOptions)
{
    CompareOptions opts;
    opts.policies = {{"lrr", "none"}};
    EXPECT_THROW(runComparison(opts), SimError);
    opts.policies = {{"lrr", "none"}, {"gto", "none"}};
    EXPECT_THROW(runComparison(opts), SimError); // no kernels
    ServeJobSpec k;
    k.label = "empty";
    opts.kernels = {k};
    EXPECT_THROW(runComparison(opts), SimError); // kernel has no source
}

// ---------------------------------------------------------------------------
// Trace event-type totals (the explore-facing Tracer hook)

TEST(TraceCounts, SurviveRingOverwritesAndExcludeEngine)
{
    Tracer tracer(1, 2); // 2-slot rings: overwrites guaranteed
    for (int i = 0; i < 10; ++i)
        tracer.record(0, TraceEventType::kL1Miss, i);
    tracer.record(tracer.memLane(), TraceEventType::kDramService, 11);
    tracer.record(tracer.engineLane(), TraceEventType::kFfIdleSpan, 12);

    EXPECT_EQ(tracer.eventTypeCount(TraceEventType::kL1Miss), 10u);
    EXPECT_EQ(tracer.eventTypeCount(TraceEventType::kDramService), 1u);
    // Engine-lane events are timing artifacts, not machine behaviour.
    EXPECT_EQ(tracer.eventTypeCount(TraceEventType::kFfIdleSpan), 0u);

    const auto counts = tracer.eventTypeCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0].first, "l1-miss");
    EXPECT_EQ(counts[0].second, 10u);
    EXPECT_EQ(counts[1].first, "dram-service");
    EXPECT_EQ(counts[1].second, 1u);
}
