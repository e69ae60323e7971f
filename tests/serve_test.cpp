/**
 * @file
 * Tests for the simulation service: cache-key anatomy (semantic vs
 * observation keys, kernel identity, schema fingerprint), the
 * two-tier ResultCache, protocol parsing, and the daemon end to end —
 * including the headline guarantee that a repeated batch is answered
 * bitwise-identically from cache with zero re-simulation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hpp"
#include "common/json_value.hpp"
#include "explore/policy_compare.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "sim/config_registry.hpp"
#include "sim_error_matchers.hpp"

namespace apres {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty scratch directory unique to @p tag and this process. */
std::string
scratchDir(const std::string& tag)
{
    const fs::path dir = fs::temp_directory_path() /
        ("apres_serve_test_" + std::to_string(::getpid()) + "_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::map<std::string, std::string>
semanticSnapshot(const std::vector<std::pair<std::string, std::string>>&
                     overrides = {})
{
    GpuConfig cfg;
    ConfigRegistry registry(cfg);
    for (const auto& [key, value] : overrides)
        registry.set(key, value);
    return registry.semanticSnapshot();
}

/** Build a run-request document from job specs. */
std::string
runRequest(const std::vector<ServeJobSpec>& jobs,
           double timeout_seconds = 0.0)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    if (timeout_seconds > 0.0) {
        json.beginObject("options");
        json.field("timeoutSeconds", timeout_seconds);
        json.endObject();
    }
    json.beginArray("jobs");
    for (const ServeJobSpec& job : jobs)
        writeServeJob(json, job);
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

/** A cheap KM job with the given L1 size (the semantic knob we vary). */
ServeJobSpec
kmJob(std::uint64_t l1_bytes, double scale = 0.05)
{
    ServeJobSpec job;
    job.workload = "KM";
    job.scale = scale;
    job.label = "km-l1-" + std::to_string(l1_bytes);
    job.overrides.emplace_back("l1.sizeBytes", std::to_string(l1_bytes));
    job.overrides.emplace_back("maxCycles", "2000000");
    return job;
}

/**
 * Extract the raw text of the "result" value of runs[index] from a
 * response document — string-aware brace matching, so the comparison
 * between two responses is genuinely bitwise, not parse-and-compare.
 */
std::string
rawResultText(const std::string& response, std::size_t index)
{
    const std::string marker = "\"result\": {";
    std::size_t pos = 0;
    for (std::size_t skipped = 0; skipped <= index; ++skipped) {
        pos = response.find(marker, pos);
        if (pos == std::string::npos)
            ADD_FAILURE() << "runs[" << index << "] has no result object";
        if (pos == std::string::npos)
            return "";
        pos += marker.size();
    }
    const std::size_t start = pos - 1; // at the '{'
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = start; i < response.size(); ++i) {
        const char c = response[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            if (--depth == 0)
                return response.substr(start, i - start + 1);
        }
    }
    ADD_FAILURE() << "unbalanced result object";
    return "";
}

// --------------------------------------------------------------------
// Cache-key anatomy.
// --------------------------------------------------------------------

TEST(CacheKey, SemanticOverrideChangesKey)
{
    ServeJobSpec job;
    job.workload = "KM";
    const std::string kfp = kernelFingerprint(job);
    const std::string base =
        computeCacheKey("fp", kfp, semanticSnapshot());
    const std::string bigger_l1 = computeCacheKey(
        "fp", kfp, semanticSnapshot({{"l1.sizeBytes", "65536"}}));
    const std::string other_seed = computeCacheKey(
        "fp", kfp, semanticSnapshot({{"seed", "12345"}}));
    EXPECT_NE(base, bigger_l1);
    EXPECT_NE(base, other_seed);
    EXPECT_NE(bigger_l1, other_seed);
    EXPECT_EQ(base.size(), 32u);
}

TEST(CacheKey, ObservationKeysDoNotChangeKey)
{
    ServeJobSpec job;
    job.workload = "KM";
    const std::string kfp = kernelFingerprint(job);
    const std::string base =
        computeCacheKey("fp", kfp, semanticSnapshot());
    // Tracing, auditing and fast-forward are observation-only: they
    // never change what a run computes (proven by the ff-equivalence
    // and observation-purity suites), so they must not fragment the
    // cache.
    const std::vector<std::pair<std::string, std::string>> observation = {
        {"sim.trace", "true"},
        {"sim.traceFile", "/tmp/t.json"},
        {"sim.traceBufferEvents", "1234"},
        {"sim.audit", "true"},
        {"sim.auditInterval", "77"},
        {"sim.fastForward", "false"},
        {"sim.watchdogCycles", "123456"},
        // The parallel engine is bitwise identical to serial for every
        // shard count (equivalence suite), so the shard count is an
        // execution knob, not a semantic one.
        {"sim.shards", "4"},
        {"sim.shards", "0"},
    };
    for (const auto& kv : observation) {
        EXPECT_EQ(base, computeCacheKey("fp", kfp, semanticSnapshot({kv})))
            << kv.first;
    }
    // Metrics add the metrics.* stats, so they change the result.
    EXPECT_NE(base, computeCacheKey("fp", kfp,
                                    semanticSnapshot({{"sim.metrics",
                                                       "true"}})));
}

TEST(CacheKey, FingerprintAndKernelIdentityChangeKey)
{
    ServeJobSpec km;
    km.workload = "KM";
    ServeJobSpec km2 = km;
    km2.scale = 2.0;
    ServeJobSpec text;
    text.kernelText = "kernel t 4\ngen 0 uniform addr=4096\n"
                      "load r0 gen=0\n";

    const auto snapshot = semanticSnapshot();
    const std::string a =
        computeCacheKey("fp-a", kernelFingerprint(km), snapshot);
    EXPECT_NE(a, computeCacheKey("fp-b", kernelFingerprint(km), snapshot));
    EXPECT_NE(a, computeCacheKey("fp-a", kernelFingerprint(km2), snapshot));
    EXPECT_NE(a, computeCacheKey("fp-a", kernelFingerprint(text), snapshot));

    EXPECT_EQ(kernelFingerprint(km), "workload:KM@1");
    EXPECT_EQ(kernelFingerprint(km2), "workload:KM@2");
    EXPECT_EQ(kernelFingerprint(text).rfind("text:", 0), 0u);
}

TEST(CacheKey, GoldenKeysArePinned)
{
    // Hard-coded expected keys for two known configurations. Every
    // deployed cache is addressed by these values: if ContentHasher,
    // the semantic snapshot (a key added, renamed or re-kinded), the
    // kernel fingerprint format or the serialization order drifts,
    // every existing cache entry is silently orphaned and re-simulated.
    // This test turns that silent invalidation into a loud failure —
    // when the change is intentional, bump kStatsSchemaVersion and
    // regenerate these literals.
    {
        // Config 1: all defaults, the named KM workload at scale 1.
        ServeJobSpec km;
        km.workload = "KM";
        EXPECT_EQ(computeCacheKey("apres-results-v3",
                                  kernelFingerprint(km),
                                  semanticSnapshot()),
                  "d566f9d4ba45ec48ce5d1cd56d427b72");
    }
    {
        // Config 2: the APRES stack with a 64 KiB L1 and a pinned
        // seed over an inline kernel (text fingerprint path).
        ServeJobSpec text;
        text.kernelText = "kernel t 4\ngen 0 uniform addr=0x1000\n"
                          "load r0 gen=0\n";
        EXPECT_EQ(kernelFingerprint(text),
                  "text:25c5583523273acb4cb51887e8c7a1d3");
        EXPECT_EQ(computeCacheKey("apres-results-v3",
                                  kernelFingerprint(text),
                                  semanticSnapshot({
                                      {"scheduler", "laws"},
                                      {"prefetcher", "sap"},
                                      {"l1.sizeBytes", "65536"},
                                      {"seed", "12345"},
                                  })),
                  "ddcd4f9422cbef5db92c37a8ef9f3e47");
    }
}

// --------------------------------------------------------------------
// ResultCache tiers.
// --------------------------------------------------------------------

TEST(ResultCache, MemoryTierHitsAndMisses)
{
    ResultCache cache; // memory-only
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.store("k1", "{\"x\": 1}");
    const auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "{\"x\": 1}");
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(cache.memoryEntries(), 1u);
}

TEST(ResultCache, DiskTierPersistsAcrossInstances)
{
    const std::string dir = scratchDir("disk_persist");
    {
        ResultCache cache(dir);
        cache.store("deadbeef", "{\"ipc\": 1.5}");
    }
    ResultCache warm(dir);
    EXPECT_EQ(warm.memoryEntries(), 0u);
    const auto hit = warm.lookup("deadbeef");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "{\"ipc\": 1.5}");
    EXPECT_EQ(warm.stats().diskHits, 1u);
    // The disk hit was promoted: the second lookup is a memory hit.
    ASSERT_TRUE(warm.lookup("deadbeef").has_value());
    EXPECT_EQ(warm.stats().memoryHits, 1u);
}

TEST(ResultCache, CorruptDiskEntryIsDiscardedNotServed)
{
    const std::string dir = scratchDir("disk_corrupt");
    const fs::path bad = fs::path(dir) / "0123456789abcdef.json";
    std::ofstream(bad) << "{\"truncated\": ";
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup("0123456789abcdef").has_value());
    EXPECT_EQ(cache.stats().invalidDiskEntries, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    // The poisoned file is gone; a later store works normally.
    EXPECT_FALSE(fs::exists(bad));
    cache.store("0123456789abcdef", "{\"ok\": true}");
    EXPECT_TRUE(cache.lookup("0123456789abcdef").has_value());
}

// --------------------------------------------------------------------
// Protocol parsing.
// --------------------------------------------------------------------

TEST(Protocol, ParsesControlRequests)
{
    EXPECT_EQ(parseServeRequest("{\"type\": \"ping\"}").type,
              ServeRequest::Type::kPing);
    EXPECT_EQ(parseServeRequest("{\"type\": \"stats\"}").type,
              ServeRequest::Type::kStats);
    EXPECT_EQ(parseServeRequest("{\"type\": \"shutdown\"}").type,
              ServeRequest::Type::kShutdown);
}

TEST(Protocol, ParsesRunRequestWithOptionsAndOverrides)
{
    const ServeRequest req = parseServeRequest(
        "{\"type\": \"run\","
        " \"options\": {\"timeoutSeconds\": 2.5},"
        " \"jobs\": [{\"workload\": \"KM\", \"scale\": 0.5,"
        "   \"overrides\": {\"l1.sizeBytes\": 65536,"
        "                   \"scheduler\": \"laws\","
        "                   \"dram.rowBufferModel\": true,"
        "                   \"seed\": 18446744073709551615}}]}");
    EXPECT_EQ(req.type, ServeRequest::Type::kRun);
    EXPECT_DOUBLE_EQ(req.timeoutSeconds, 2.5);
    ASSERT_EQ(req.jobs.size(), 1u);
    const ServeJobSpec& job = req.jobs[0];
    EXPECT_EQ(job.workload, "KM");
    EXPECT_EQ(job.label, "KM"); // defaults to the workload
    EXPECT_DOUBLE_EQ(job.scale, 0.5);
    ASSERT_EQ(job.overrides.size(), 4u);
    // Number lexemes survive untouched: a 64-bit seed must not go
    // through a double.
    EXPECT_EQ(job.overrides[3].first, "seed");
    EXPECT_EQ(job.overrides[3].second, "18446744073709551615");
    EXPECT_EQ(job.overrides[2].second, "true");
}

TEST(Protocol, RejectsMalformedRequests)
{
    expectSimError(SimErrorKind::kSerialization, "",
                   [] { parseServeRequest("not json"); });
    expectSimError(SimErrorKind::kSerialization, "",
                   [] { parseServeRequest("{\"type\": \"dance\"}"); });
    expectSimError(SimErrorKind::kSerialization, "non-empty",
                   [] {
                       parseServeRequest(
                           "{\"type\": \"run\", \"jobs\": []}");
                   });
    // A job must carry exactly one kernel identity.
    expectSimError(SimErrorKind::kSerialization, "exactly one",
                   [] {
                       parseServeRequest(
                           "{\"type\": \"run\", \"jobs\": [{"
                           "\"workload\": \"KM\","
                           " \"kernelText\": \"k\"}]}");
                   });
    expectSimError(SimErrorKind::kSerialization, "exactly one",
                   [] {
                       parseServeRequest(
                           "{\"type\": \"run\", \"jobs\": [{}]}");
                   });
    expectSimError(SimErrorKind::kConfig, "timeoutSeconds",
                   [] {
                       parseServeRequest(
                           "{\"type\": \"run\","
                           " \"options\": {\"timeoutSeconds\": -1},"
                           " \"jobs\": [{\"workload\": \"KM\"}]}");
                   });
}

TEST(Protocol, RejectsUnknownRunOptions)
{
    // timeoutSeconds is the only run option; any other key is a typed
    // ConfigError that names it, never a silent no-op.
    for (const std::string key : {"retries", "turbo"}) {
        expectSimError(SimErrorKind::kConfig, "options." + key, [&] {
            parseServeRequest("{\"type\": \"run\","
                              " \"options\": {\"timeoutSeconds\": 1, \"" +
                              key + "\": 1},"
                              " \"jobs\": [{\"workload\": \"KM\"}]}");
        });
    }
}

// --------------------------------------------------------------------
// Daemon behavior through the transport-free handler.
// --------------------------------------------------------------------

TEST(ServeDaemon, WarmBatchIsBitwiseIdenticalWithZeroSimulation)
{
    ServeOptions opts;
    opts.cacheDir = scratchDir("warm_batch");
    ServeDaemon daemon(opts);

    // Eight distinct semantic configurations.
    std::vector<ServeJobSpec> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(kmJob(8192u << i));
    const std::string request = runRequest(jobs);

    const std::string cold = daemon.handleRequest(request);
    EXPECT_EQ(daemon.simulationsRun(), 8u);

    const std::string warm = daemon.handleRequest(request);
    // The headline guarantee: zero re-simulation on the warm batch...
    EXPECT_EQ(daemon.simulationsRun(), 8u);
    EXPECT_EQ(daemon.cache().stats().hits(), 8u);

    const JsonValue warm_doc = JsonValue::parse(warm);
    const JsonValue& runs = warm_doc.at("runs");
    ASSERT_EQ(runs.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(runs.at(i).at("cached").asBool()) << i;
        EXPECT_EQ(runs.at(i).at("result").at("status").asString(), "ok");
        // ...and every cached payload is byte-for-byte the one the
        // cold run produced.
        EXPECT_EQ(rawResultText(cold, i), rawResultText(warm, i)) << i;
        EXPECT_FALSE(rawResultText(cold, i).empty()) << i;
    }
}

TEST(ServeDaemon, DiskCacheSurvivesRestartAndFingerprintFlipInvalidates)
{
    const std::string dir = scratchDir("restart");
    const std::vector<ServeJobSpec> jobs = {kmJob(32768), kmJob(65536)};
    const std::string request = runRequest(jobs);

    ServeOptions opts;
    opts.cacheDir = dir;
    {
        ServeDaemon daemon(opts);
        daemon.handleRequest(request);
        EXPECT_EQ(daemon.simulationsRun(), 2u);
    }
    {
        // Same fingerprint, fresh process: everything comes off disk.
        ServeDaemon daemon(opts);
        const std::string warm = daemon.handleRequest(request);
        EXPECT_EQ(daemon.simulationsRun(), 0u);
        EXPECT_EQ(daemon.cache().stats().diskHits, 2u);
        const JsonValue doc = JsonValue::parse(warm);
        for (std::size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(doc.at("runs").at(i).at("cached").asBool());
    }
    {
        // Flipping the schema fingerprint orphans every entry: the
        // same jobs miss and re-simulate.
        ResultCache cache(dir);
        const std::vector<CachedRun> runs =
            runCachedBatch(jobs, "fp-two", cache, RunnerOptions{});
        ASSERT_EQ(runs.size(), 2u);
        for (const CachedRun& run : runs)
            EXPECT_TRUE(run.simulated());
        EXPECT_EQ(cache.stats().hits(), 0u);
    }
}

TEST(ServeDaemon, ObservationOverridesHitTheSemanticEntry)
{
    ServeOptions opts;
    ServeDaemon daemon(opts);
    daemon.handleRequest(runRequest({kmJob(32768)}));
    ASSERT_EQ(daemon.simulationsRun(), 1u);

    // The same semantic config with auditing toggled must be answered
    // from cache.
    ServeJobSpec observed = kmJob(32768);
    observed.overrides.emplace_back("sim.audit", "true");
    const std::string response =
        daemon.handleRequest(runRequest({observed}));
    EXPECT_EQ(daemon.simulationsRun(), 1u);
    const JsonValue doc = JsonValue::parse(response);
    EXPECT_TRUE(doc.at("runs").at(0).at("cached").asBool());

    // So is in-memory tracing, at the one shard a served job may use.
    ServeJobSpec traced = kmJob(32768);
    traced.overrides.emplace_back("sim.trace", "true");
    traced.overrides.emplace_back("sim.shards", "1");
    const JsonValue traced_doc =
        JsonValue::parse(daemon.handleRequest(runRequest({traced})));
    EXPECT_EQ(daemon.simulationsRun(), 1u);
    EXPECT_TRUE(traced_doc.at("runs").at(0).at("cached").asBool());
}

/** How many metrics.* stats runs[0] of @p response carries. */
std::size_t
metricsStatCount(const std::string& response)
{
    const JsonValue doc = JsonValue::parse(response);
    std::size_t n = 0;
    for (const auto& member :
         doc.at("runs").at(0).at("result").at("stats").members()) {
        if (member.first.rfind("metrics.", 0) == 0)
            ++n;
    }
    return n;
}

bool
firstRunCached(const std::string& response)
{
    return JsonValue::parse(response).at("runs").at(0).at("cached").asBool();
}

TEST(ServeDaemon, CachedPayloadDoesNotDependOnTheStoringRequest)
{
    // sim.metrics adds the metrics.* stats: asking for them misses on
    // the plain entry, and the plain request keeps hitting its own.
    ServeOptions opts;
    ServeDaemon daemon(opts);
    const std::string plain = runRequest({kmJob(32768, 0.01)});
    ServeJobSpec metrics = kmJob(32768, 0.01);
    metrics.overrides.emplace_back("sim.metrics", "true");

    const std::string plain_cold = daemon.handleRequest(plain);
    ASSERT_EQ(daemon.simulationsRun(), 1u);
    EXPECT_EQ(metricsStatCount(plain_cold), 0u);

    const std::string metrics_cold =
        daemon.handleRequest(runRequest({metrics}));
    EXPECT_EQ(daemon.simulationsRun(), 2u);
    EXPECT_FALSE(firstRunCached(metrics_cold));
    EXPECT_GT(metricsStatCount(metrics_cold), 0u);

    const std::string plain_warm = daemon.handleRequest(plain);
    EXPECT_EQ(daemon.simulationsRun(), 2u);
    EXPECT_TRUE(firstRunCached(plain_warm));
    EXPECT_EQ(metricsStatCount(plain_warm), 0u);

    // A payload an observation-only request stores is byte for byte
    // the one the plain request stored: the config echo leaves the
    // observation keys out.
    ServeDaemon fresh(opts);
    ServeJobSpec observed = kmJob(32768, 0.01);
    observed.overrides.emplace_back("sim.audit", "true");
    observed.overrides.emplace_back("sim.fastForward", "false");
    const std::string observed_cold =
        fresh.handleRequest(runRequest({observed}));
    EXPECT_EQ(fresh.simulationsRun(), 1u);
    EXPECT_EQ(rawResultText(observed_cold, 0), rawResultText(plain_cold, 0));
}

TEST(ServeDaemon, JobsThatWriteFilesOrStartThreadsAreRefused)
{
    // A request cannot make the daemon write a file it names or start
    // engine threads outside the simulation budget: such a job is an
    // unkeyed ConfigError row naming the key, never run or cached.
    const std::string dir = scratchDir("no_side_effects");
    const std::string trace_path = dir + "/trace.json";
    ServeOptions opts;
    ServeDaemon daemon(opts);
    ServeJobSpec traced = kmJob(32768);
    traced.label = "traced";
    traced.overrides.emplace_back("sim.trace", "true");
    traced.overrides.emplace_back("sim.traceFile", trace_path);
    std::vector<ServeJobSpec> jobs = {traced};
    for (const char* shards : {"0", "2", "4096"}) {
        ServeJobSpec sharded = kmJob(32768);
        sharded.label = std::string("shards-") + shards;
        sharded.overrides.emplace_back("sim.shards", shards);
        jobs.push_back(sharded);
    }

    const JsonValue doc =
        JsonValue::parse(daemon.handleRequest(runRequest(jobs)));
    const JsonValue& runs = doc.at("runs");
    ASSERT_EQ(runs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JsonValue& result = runs.at(i).at("result");
        EXPECT_FALSE(runs.at(i).has("key")) << i;
        EXPECT_EQ(result.at("status").asString(), "error") << i;
        EXPECT_EQ(result.at("error").at("kind").asString(), "ConfigError");
        EXPECT_NE(result.at("error").at("detail").asString().find(
                      i == 0 ? "sim.traceFile" : "sim.shards"),
                  std::string::npos) << i;
    }
    EXPECT_EQ(daemon.simulationsRun(), 0u);
    EXPECT_EQ(doc.at("simulations").asUint64(), 0u);
    EXPECT_EQ(daemon.cache().memoryEntries(), 0u);
    EXPECT_FALSE(fs::exists(trace_path));

    // compare runs its cells through the same path.
    CompareOptions compare;
    compare.policies = {{"lrr", "none"}, {"laws", "sap"}};
    compare.kernels = {kmJob(32768)};
    compare.overrides = {{"sim.shards", "2"}};
    expectSimError(SimErrorKind::kConfig, "sim.shards",
                   [&] { runComparison(compare); });
}

TEST(ServeDaemon, ScaleBeyondSixtyFourBitTripsIsAnErrorRow)
{
    // The trip count of KM at this scale does not fit in 64 bits: the
    // job is rejected, not cached under workload:KM@1e+300.
    ServeOptions opts;
    ServeDaemon daemon(opts);
    ServeJobSpec huge;
    huge.label = "huge";
    huge.workload = "KM";
    huge.scale = 1e300;
    const JsonValue doc =
        JsonValue::parse(daemon.handleRequest(runRequest({huge})));
    const JsonValue& run = doc.at("runs").at(0);
    EXPECT_FALSE(run.has("key"));
    EXPECT_EQ(run.at("result").at("status").asString(), "error");
    EXPECT_EQ(run.at("result").at("error").at("kind").asString(),
              "ConfigError");
    EXPECT_NE(run.at("result").at("error").at("detail").asString().find(
                  "scale 1e+300"),
              std::string::npos);
    EXPECT_EQ(daemon.simulationsRun(), 0u);
    EXPECT_EQ(daemon.cache().memoryEntries(), 0u);
}

TEST(ServeDaemon, SharesOneCacheWithCompare)
{
    // apres_explore compare keys and stores its cells the way the
    // daemon does, so a cell either front end stored is a hit for the
    // other.
    const std::string dir = scratchDir("shared_with_compare");
    ServeJobSpec km;
    km.label = "KM";
    km.workload = "KM";
    km.scale = 0.02;
    CompareOptions compare;
    compare.policies = {{"lrr", "none"}, {"laws", "sap"}};
    compare.kernels = {km};
    compare.overrides = {{"numSms", "2"}};
    compare.cacheDir = dir;
    const CompareReport report = runComparison(compare);
    ASSERT_EQ(report.simulations, 2u);
    ASSERT_EQ(report.pairs.size(), 1u);

    const auto ipcOf = [](const JsonValue& response) {
        return response.at("runs").at(0).at("result").at("stats").at(
            "sim.ipc").asDouble();
    };
    ServeOptions opts;
    opts.cacheDir = dir;
    ServeDaemon daemon(opts);
    ServeJobSpec apres_cell = km;
    apres_cell.overrides = {
        {"numSms", "2"}, {"scheduler", "laws"}, {"prefetcher", "sap"}};
    const JsonValue hit =
        JsonValue::parse(daemon.handleRequest(runRequest({apres_cell})));
    EXPECT_EQ(hit.at("simulations").asUint64(), 0u);
    EXPECT_TRUE(hit.at("runs").at(0).at("cached").asBool());
    EXPECT_EQ(ipcOf(hit), report.pairs[0].ipcCandidate);

    // The reverse direction: a cell the daemon simulated and stored
    // comes back to compare as a cache hit.
    ServeJobSpec gto_cell = km;
    gto_cell.overrides = {
        {"numSms", "2"}, {"scheduler", "gto"}, {"prefetcher", "none"}};
    const JsonValue stored =
        JsonValue::parse(daemon.handleRequest(runRequest({gto_cell})));
    ASSERT_FALSE(stored.at("runs").at(0).at("cached").asBool());
    compare.policies = {{"lrr", "none"}, {"gto", "none"}};
    const CompareReport warm = runComparison(compare);
    EXPECT_EQ(warm.simulations, 0u);
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(warm.pairs[0].ipcCandidate, ipcOf(stored));
}

TEST(ServeDaemon, FailuresBecomeRowsAndAreNeverCached)
{
    ServeOptions opts;
    ServeDaemon daemon(opts);

    // One good job, one invalid workload, one config that fails inside
    // simulate(), an L1 too small for one 8-way set of 128 B lines
    // (zero sets: a divide by zero in the cache's set index unless the
    // Gpu rejects it first), and an L2 of 2^32 one-byte sets (each key
    // inside its bound, but the count overflows the 32-bit set index
    // to zero) — keep-going semantics must deliver all five rows.
    ServeJobSpec good = kmJob(32768);
    ServeJobSpec unknown;
    unknown.workload = "NOPE";
    unknown.label = "unknown";
    ServeJobSpec broken = kmJob(32768);
    broken.label = "broken";
    broken.overrides.emplace_back("scheduler", "gto");
    broken.overrides.emplace_back("prefetcher", "sap");
    ServeJobSpec zero_sets = kmJob(1000);
    ServeJobSpec overflow_sets = kmJob(32768);
    overflow_sets.label = "l2-overflow";
    overflow_sets.overrides.emplace_back("l2.sizeBytes", "4294967296");
    overflow_sets.overrides.emplace_back("l2.ways", "1");
    overflow_sets.overrides.emplace_back("l2.lineSize", "1");

    const std::string request =
        runRequest({good, unknown, broken, zero_sets, overflow_sets});
    const std::string first = daemon.handleRequest(request);
    const JsonValue doc = JsonValue::parse(first);
    const JsonValue& runs = doc.at("runs");
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_EQ(runs.at(0).at("result").at("status").asString(), "ok");
    EXPECT_EQ(runs.at(1).at("result").at("status").asString(), "error");
    EXPECT_EQ(runs.at(1).at("result").at("error").at("kind").asString(),
              "ConfigError");
    EXPECT_FALSE(runs.at(1).has("key")); // never keyed
    EXPECT_EQ(runs.at(2).at("result").at("status").asString(), "error");
    const JsonValue& zero_row = runs.at(3).at("result");
    EXPECT_EQ(zero_row.at("status").asString(), "error");
    EXPECT_EQ(zero_row.at("error").at("kind").asString(), "ConfigError");
    EXPECT_NE(zero_row.at("error").at("detail").asString().find(
                  "l1.sizeBytes=1000"),
              std::string::npos);
    const JsonValue& overflow_row = runs.at(4).at("result");
    EXPECT_EQ(overflow_row.at("status").asString(), "error");
    EXPECT_EQ(overflow_row.at("error").at("kind").asString(), "ConfigError");
    EXPECT_NE(overflow_row.at("error").at("detail").asString().find(
                  "l2.sizeBytes=4294967296"),
              std::string::npos);

    // Only the clean result was memoized: the repeat serves the good
    // job from cache and re-runs the broken one.
    const std::uint64_t after_first = daemon.simulationsRun();
    const std::string second = daemon.handleRequest(request);
    const JsonValue doc2 = JsonValue::parse(second);
    EXPECT_TRUE(doc2.at("runs").at(0).at("cached").asBool());
    EXPECT_FALSE(doc2.at("runs").at(2).at("cached").asBool());
    EXPECT_FALSE(doc2.at("runs").at(3).at("cached").asBool());
    EXPECT_FALSE(doc2.at("runs").at(4).at("cached").asBool());
    EXPECT_GT(daemon.simulationsRun(), after_first);

    // Malformed kernel text fails its own row, ahead of a healthy job:
    // a zero-line irregular generator would divide by zero inside the
    // simulation and take the daemon down with it.
    ServeJobSpec bad_kernel;
    bad_kernel.label = "bad-kernel";
    bad_kernel.kernelText =
        "kernel k 4\ngen 0 irregular base=0 lines=0\nload r0 gen=0\n";
    const JsonValue mixed =
        JsonValue::parse(daemon.handleRequest(runRequest({bad_kernel, good})));
    const JsonValue& bad_row = mixed.at("runs").at(0).at("result");
    EXPECT_EQ(bad_row.at("status").asString(), "error");
    EXPECT_EQ(bad_row.at("error").at("kind").asString(), "KernelError");
    EXPECT_NE(bad_row.at("error").at("detail").asString().find("line 2"),
              std::string::npos);
    EXPECT_EQ(mixed.at("runs").at(1).at("result").at("status").asString(),
              "ok");
}

TEST(ServeDaemon, TimeoutBecomesErrorRowThroughServicePath)
{
    ServeOptions opts;
    opts.threads = 2;
    ServeDaemon daemon(opts);

    // KM at 5x scale runs ~8 s; a 1.5 s deadline forces the timeout
    // path while the ~20 ms job in the same batch still completes — the service always runs with
    // keep-going semantics. The margins are wide on both sides so
    // sanitizer-instrumented builds (~10x slower) stay on the same
    // side of the deadline.
    ServeJobSpec slow;
    slow.workload = "KM";
    slow.scale = 5.0;
    slow.label = "slow";
    ServeJobSpec quick = kmJob(32768, /*scale=*/0.01);
    const std::string response = daemon.handleRequest(
        runRequest({slow, quick}, /*timeout_seconds=*/1.5));

    const JsonValue doc = JsonValue::parse(response);
    const JsonValue& runs = doc.at("runs");
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs.at(0).at("result").at("status").asString(), "timeout");
    EXPECT_EQ(runs.at(0).at("result").at("error").at("kind").asString(),
              "Timeout");
    EXPECT_EQ(runs.at(1).at("result").at("status").asString(), "ok");

    // Timeouts are environmental; the repeat re-runs the slow job.
    const std::string again = daemon.handleRequest(
        runRequest({slow, quick}, 1.5));
    const JsonValue doc2 = JsonValue::parse(again);
    EXPECT_FALSE(doc2.at("runs").at(0).at("cached").asBool());
    EXPECT_TRUE(doc2.at("runs").at(1).at("cached").asBool());
}

TEST(ServeDaemon, InlineKernelTextJobsAreCached)
{
    ServeOptions opts;
    ServeDaemon daemon(opts);
    ServeJobSpec job;
    job.label = "inline";
    job.kernelText =
        "kernel inline_k 64\n"
        "gen 0 strided base=4096 warp=2048 iter=98304 sm=0\n"
        "load r0 gen=0\n"
        "alu r1 r0\n";
    const std::string request = runRequest({job});
    daemon.handleRequest(request);
    EXPECT_EQ(daemon.simulationsRun(), 1u);
    const std::string warm = daemon.handleRequest(request);
    EXPECT_EQ(daemon.simulationsRun(), 1u);
    const JsonValue doc = JsonValue::parse(warm);
    EXPECT_TRUE(doc.at("runs").at(0).at("cached").asBool());
    EXPECT_EQ(doc.at("runs").at(0).at("result").at("status").asString(),
              "ok");
}

TEST(ServeDaemon, MalformedRequestBecomesErrorResponse)
{
    ServeOptions opts;
    ServeDaemon daemon(opts);
    const JsonValue doc =
        JsonValue::parse(daemon.handleRequest("{\"type\": \"run\"}"));
    EXPECT_EQ(doc.at("type").asString(), "error");
    EXPECT_EQ(doc.at("kind").asString(), "SerializationError");
}

// --------------------------------------------------------------------
// End to end over a real socket.
// --------------------------------------------------------------------

TEST(ServeSocket, RoundTripPingRunShutdown)
{
    const std::string dir = scratchDir("socket");
    ServeOptions opts;
    opts.socketPath = dir + "/apres.sock";
    opts.cacheDir = dir + "/cache";
    ServeDaemon daemon(opts);
    daemon.start();

    const JsonValue pong = JsonValue::parse(
        serveRoundTrip(opts.socketPath, "{\"type\": \"ping\"}"));
    EXPECT_EQ(pong.at("type").asString(), "pong");

    // Cold batch over the wire, then warm: the warm hit must be at
    // least 100x faster than simulating (KM at full scale runs for
    // seconds; a cache hit is a map lookup plus one round trip).
    ServeJobSpec job;
    job.workload = "KM";
    job.label = "km-full";
    const std::string request = runRequest({job});

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const std::string cold = serveRoundTrip(opts.socketPath, request);
    const auto t1 = clock::now();
    const std::string warm = serveRoundTrip(opts.socketPath, request);
    const auto t2 = clock::now();

    const JsonValue cold_doc = JsonValue::parse(cold);
    const JsonValue warm_doc = JsonValue::parse(warm);
    EXPECT_FALSE(cold_doc.at("runs").at(0).at("cached").asBool());
    EXPECT_TRUE(warm_doc.at("runs").at(0).at("cached").asBool());
    EXPECT_EQ(rawResultText(cold, 0), rawResultText(warm, 0));

    const double cold_s =
        std::chrono::duration<double>(t1 - t0).count();
    const double warm_s =
        std::chrono::duration<double>(t2 - t1).count();
    // Only meaningful when the simulation was actually slow (CI
    // machines vary); KM at scale 1 comfortably is.
    ASSERT_GT(cold_s, 0.2) << "KM ran suspiciously fast; "
                              "speedup assertion would be vacuous";
    EXPECT_GE(cold_s / warm_s, 100.0)
        << "cold " << cold_s << " s vs warm " << warm_s << " s";

    const JsonValue stats = JsonValue::parse(
        serveRoundTrip(opts.socketPath, "{\"type\": \"stats\"}"));
    EXPECT_EQ(stats.at("type").asString(), "stats");
    EXPECT_EQ(stats.at("simulations").asUint64(), 1u);

    const JsonValue bye = JsonValue::parse(
        serveRoundTrip(opts.socketPath, "{\"type\": \"shutdown\"}"));
    EXPECT_EQ(bye.at("type").asString(), "bye");
    daemon.wait();
    EXPECT_FALSE(daemon.running());
    daemon.stop();
    EXPECT_FALSE(fs::exists(opts.socketPath));
}

} // namespace
} // namespace apres
