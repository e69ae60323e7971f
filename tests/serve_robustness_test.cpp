/**
 * @file
 * Robustness tests for the serving layer: the deterministic fault
 * injector itself, LRU eviction and journal recovery in the bounded
 * disk cache, the memory tier's caps in every disk mode, the startup
 * scrub, the degradation ladder, and — over a live socket — overload
 * shedding (a request larger than the socket buffer included),
 * accept-backoff under fd exhaustion, oversize rejection, the read
 * deadline, and concurrent dispatch under the simulation budget.
 *
 * Every test arms FaultInjector and resets it on teardown; the rest
 * of the suite (serve_test.cpp) runs with injection disarmed, which
 * is the observation-purity proof: those bitwise-identity tests pass
 * unmodified with the seam compiled in.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "serve/serve_config.hpp"
#include "sim_error_matchers.hpp"

namespace apres {
namespace {

namespace fs = std::filesystem;

std::string
scratchDir(const std::string& tag)
{
    const fs::path dir = fs::temp_directory_path() /
        ("apres_robust_test_" + std::to_string(::getpid()) + "_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Sockets live in /tmp directly: sun_path is only ~108 bytes. */
std::string
socketPath(const std::string& tag)
{
    return (fs::temp_directory_path() /
            ("apres_rb_" + std::to_string(::getpid()) + "_" + tag +
             ".sock"))
        .string();
}

/**
 * A KM run request of @p jobs jobs; tiny scale keeps it fast. Job j
 * runs under seed @p seed + j, so distinct seeds are distinct keys.
 */
std::string
kmRunRequest(const std::string& label, double scale = 0.01,
             int jobs = 1, int seed = 0)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.beginArray("jobs");
    for (int j = 0; j < jobs; ++j) {
        ServeJobSpec job;
        job.label = label + "-" + std::to_string(j);
        job.workload = "KM";
        job.scale = scale;
        if (seed != 0)
            job.overrides.emplace_back("seed", std::to_string(seed + j));
        writeServeJob(json, job);
    }
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

/** Every test starts and ends with the injector disarmed. */
class FaultInjection : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

using ResultCacheRobustness = FaultInjection;
using ServeOverload = FaultInjection;
using ServeConcurrency = FaultInjection;

// --------------------------------------------------------------------
// The injector itself.
// --------------------------------------------------------------------

TEST_F(FaultInjection, DisabledIsSilentAndCountsNothing)
{
    EXPECT_FALSE(FaultInjector::instance().enabled());
    EXPECT_EQ(faultInjectAt("cache.write"), 0);
    EXPECT_EQ(FaultInjector::instance().calls("cache.write"), 0u);
}

TEST_F(FaultInjection, OccurrenceWindowsAreDeterministic)
{
    FaultInjector::instance().configure(
        "t.site=enospc@2;t.other=eio@3+");
    EXPECT_EQ(faultInjectAt("t.site"), 0);       // call 1
    EXPECT_EQ(faultInjectAt("t.site"), ENOSPC);  // call 2: fires
    EXPECT_EQ(faultInjectAt("t.site"), 0);       // call 3
    EXPECT_EQ(faultInjectAt("t.other"), 0);
    EXPECT_EQ(faultInjectAt("t.other"), 0);
    EXPECT_EQ(faultInjectAt("t.other"), EIO);    // 3+ fires forever
    EXPECT_EQ(faultInjectAt("t.other"), EIO);
    EXPECT_EQ(FaultInjector::instance().calls("t.site"), 3u);
    EXPECT_EQ(FaultInjector::instance().fired("t.site"), 1u);
    EXPECT_EQ(FaultInjector::instance().fired("t.other"), 2u);
}

TEST_F(FaultInjection, ThrowActionThrows)
{
    FaultInjector::instance().configure("t.throw=throw");
    EXPECT_THROW(faultInjectAt("t.throw"), std::runtime_error);
}

TEST_F(FaultInjection, MalformedSpecsAreRejected)
{
    expectSimError(SimErrorKind::kConfig, "fault injection", [] {
        FaultInjector::instance().configure("nonsense");
    });
    expectSimError(SimErrorKind::kConfig, "badaction", [] {
        FaultInjector::instance().configure("a.b=badaction");
    });
    expectSimError(SimErrorKind::kConfig, "occurrence", [] {
        FaultInjector::instance().configure("a.b=eio@0");
    });
    expectSimError(SimErrorKind::kConfig, "occurrence", [] {
        FaultInjector::instance().configure("a.b=eio@5-2");
    });
    EXPECT_FALSE(FaultInjector::instance().enabled());
}

// --------------------------------------------------------------------
// Bounded disk tier: LRU eviction, journal recovery, scrub.
// --------------------------------------------------------------------

TEST_F(ResultCacheRobustness, EvictsLeastRecentlyUsedAtEntryCap)
{
    const std::string dir = scratchDir("lru_entries");
    ResultCache cache(dir, CacheLimits{0, 2});
    cache.store("aaaa", "{\"n\": 1}");
    cache.store("bbbb", "{\"n\": 2}");
    cache.store("cccc", "{\"n\": 3}"); // evicts aaaa (oldest)

    EXPECT_EQ(cache.diskEntries(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "aaaa.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "bbbb.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "cccc.json"));
    // An entry evicted from disk also leaves memory.
    EXPECT_FALSE(cache.lookup("aaaa").has_value());
}

TEST_F(ResultCacheRobustness, LookupRefreshesRecency)
{
    const std::string dir = scratchDir("lru_touch");
    ResultCache cache(dir, CacheLimits{0, 2});
    cache.store("aaaa", "{\"n\": 1}");
    cache.store("bbbb", "{\"n\": 2}");
    ASSERT_TRUE(cache.lookup("aaaa").has_value()); // aaaa now newest
    cache.store("cccc", "{\"n\": 3}");             // evicts bbbb

    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "aaaa.json"));
}

TEST_F(ResultCacheRobustness, EvictsByBytesAndCountsReclaim)
{
    const std::string dir = scratchDir("lru_bytes");
    std::string doc = "{\"pad\": \"" + std::string(89, 'x') + "\"}";
    ASSERT_EQ(doc.size(), 100u);
    ResultCache cache(dir, CacheLimits{250, 0});
    cache.store("aaaa", doc);
    cache.store("bbbb", doc);
    cache.store("cccc", doc); // 300 bytes > 250: evicts aaaa

    EXPECT_EQ(cache.diskEntries(), 2u);
    EXPECT_EQ(cache.diskBytes(), 200u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().evictedBytes, 100u);
}

TEST_F(ResultCacheRobustness, MemoryTierStaysWithinCapsInEveryMode)
{
    // Five 100-byte payloads against an entry cap of 2 and a byte cap
    // of 250 (two payloads), in each rung of the ladder: the memory
    // tier must hold the newest two and drop the oldest.
    const std::string doc = "{\"pad\": \"" + std::string(89, 'x') + "\"}";
    ASSERT_EQ(doc.size(), 100u);
    for (const CacheLimits limits : {CacheLimits{0, 2}, CacheLimits{250, 0}}) {
        for (const CacheDiskMode mode :
             {CacheDiskMode::kReadWrite, CacheDiskMode::kReadOnly,
              CacheDiskMode::kMemoryOnly}) {
            SCOPED_TRACE(std::string(cacheDiskModeName(mode)) + " maxBytes=" +
                         std::to_string(limits.maxBytes));
            FaultInjector::instance().reset();
            const std::string dir =
                mode == CacheDiskMode::kMemoryOnly
                    ? ""
                    : scratchDir(std::string("mem_caps_") +
                                 cacheDiskModeName(mode));
            ResultCache cache(dir, limits);
            if (mode == CacheDiskMode::kReadOnly)
                FaultInjector::instance().configure("cache.write=enospc");
            const std::vector<std::string> keys = {"k0", "k1", "k2", "k3",
                                                   "k4"};
            for (const std::string& key : keys) {
                cache.store(key, doc);
                EXPECT_LE(cache.memoryEntries(), 2u) << key;
            }
            EXPECT_EQ(cache.diskMode(), mode);
            EXPECT_EQ(cache.memoryEntries(), 2u);
            EXPECT_FALSE(cache.lookup("k0").has_value());
            EXPECT_TRUE(cache.lookup("k3").has_value());
            EXPECT_TRUE(cache.lookup("k4").has_value());
        }
    }
}

TEST_F(ResultCacheRobustness, RecencySurvivesRestartViaJournal)
{
    const std::string dir = scratchDir("lru_journal");
    {
        ResultCache cache(dir);
        cache.store("aaaa", "{\"n\": 1}");
        cache.store("bbbb", "{\"n\": 2}");
        cache.store("cccc", "{\"n\": 3}");
        ASSERT_TRUE(cache.lookup("aaaa").has_value()); // aaaa newest
    } // dtor persists journal.lru

    ASSERT_TRUE(fs::exists(fs::path(dir) / "journal.lru"));
    // Reopen with a cap of 2: the scrub must evict by journaled
    // recency — bbbb is the oldest, not aaaa.
    ResultCache warm(dir, CacheLimits{0, 2});
    EXPECT_EQ(warm.diskEntries(), 2u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "aaaa.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "cccc.json"));
}

TEST_F(ResultCacheRobustness, ScrubRepairsCrashArtifacts)
{
    const std::string dir = scratchDir("scrub");
    // A crashed writer's temp file, a truncated entry and an empty
    // entry; plus one healthy survivor.
    std::ofstream(fs::path(dir) / "aaaa.json.tmp.12345") << "{\"n\":";
    std::ofstream(fs::path(dir) / "bbbb.json") << "{\"truncated\": ";
    std::ofstream(fs::path(dir) / "cccc.json");
    std::ofstream(fs::path(dir) / "dddd.json") << "{\"n\": 4}";

    ResultCache cache(dir);
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.scrubOrphanTmps, 1u);
    EXPECT_EQ(stats.scrubCorruptEntries, 2u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "aaaa.json.tmp.12345"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "cccc.json"));
    EXPECT_EQ(cache.diskEntries(), 1u);
    EXPECT_TRUE(cache.lookup("dddd").has_value());
}

// --------------------------------------------------------------------
// Write-path failures and the degradation ladder.
// --------------------------------------------------------------------

TEST_F(ResultCacheRobustness, EnospcOnWriteDegradesToReadOnly)
{
    const std::string dir = scratchDir("degrade_write");
    {
        ResultCache seed(dir);
        seed.store("aaaa", "{\"n\": 1}");
    }
    ResultCache cache(dir, CacheLimits{});
    ASSERT_EQ(cache.diskMode(), CacheDiskMode::kReadWrite);

    FaultInjector::instance().configure("cache.write=enospc");
    cache.store("bbbb", "{\"n\": 2}");
    EXPECT_EQ(cache.diskMode(), CacheDiskMode::kReadOnly);
    EXPECT_EQ(cache.stats().writeFailures, 1u);
    EXPECT_EQ(cache.stats().degradations, 1u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
    // Read-only: existing disk entries still serve, new stores stay
    // memory-only and are counted.
    FaultInjector::instance().reset();
    EXPECT_TRUE(cache.lookup("aaaa").has_value());
    EXPECT_TRUE(cache.lookup("bbbb").has_value()); // memory tier
    cache.store("cccc", "{\"n\": 3}");
    EXPECT_EQ(cache.stats().storesSkippedDegraded, 1u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "cccc.json"));
}

TEST_F(ResultCacheRobustness, EioOnReadDegradesToMemoryOnly)
{
    const std::string dir = scratchDir("degrade_read");
    {
        ResultCache seed(dir);
        seed.store("aaaa", "{\"n\": 1}");
    }
    ResultCache cache(dir); // entry on disk, not in this memory tier
    FaultInjector::instance().configure("cache.read=eio");
    EXPECT_FALSE(cache.lookup("aaaa").has_value());
    EXPECT_EQ(cache.diskMode(), CacheDiskMode::kMemoryOnly);
    EXPECT_EQ(cache.stats().degradations, 1u);
    // Memory-only is terminal: nothing persists, nothing reads disk.
    FaultInjector::instance().reset();
    cache.store("bbbb", "{\"n\": 2}");
    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
}

TEST_F(ResultCacheRobustness, FsyncAndRenameFailuresAreCounted)
{
    {
        const std::string dir = scratchDir("fsync_fail");
        ResultCache cache(dir);
        FaultInjector::instance().configure("cache.fsync=eio@1");
        cache.store("aaaa", "{\"n\": 1}");
        EXPECT_EQ(cache.stats().fsyncFailures, 1u);
        EXPECT_EQ(cache.diskMode(), CacheDiskMode::kReadOnly);
        EXPECT_FALSE(fs::exists(fs::path(dir) / "aaaa.json"));
        // No half-written temp file survives a failed publish.
        std::size_t files = 0;
        for (const auto& e : fs::directory_iterator(dir)) {
            (void)e;
            ++files;
        }
        EXPECT_EQ(files, 0u);
    }
    FaultInjector::instance().reset();
    {
        const std::string dir = scratchDir("rename_fail");
        ResultCache cache(dir);
        FaultInjector::instance().configure("cache.rename=eio@1");
        cache.store("aaaa", "{\"n\": 1}");
        EXPECT_EQ(cache.stats().renameFailures, 1u);
        EXPECT_FALSE(fs::exists(fs::path(dir) / "aaaa.json"));
        EXPECT_TRUE(cache.lookup("aaaa").has_value()); // memory tier
    }
}

// --------------------------------------------------------------------
// serve.* config registry.
// --------------------------------------------------------------------

TEST(ServeConfig, RoundTripsAndRejectsGarbage)
{
    ServeOptions opts;
    ServeConfigRegistry registry(opts);
    registry.set("serve.queueDepth", "32");
    registry.set("serve.cacheMaxBytes", "1048576");
    EXPECT_EQ(opts.queueDepth, 32);
    EXPECT_EQ(opts.cacheMaxBytes, 1048576u);
    EXPECT_EQ(registry.get("serve.queueDepth"), "32");
    expectSimError(SimErrorKind::kConfig, "serve.queueDepth",
                   [&] { registry.set("serve.queueDepth", "0"); });
    expectSimError(SimErrorKind::kConfig, "serve.queueDepth",
                   [&] { registry.set("serve.queueDepth", "soon"); });
    expectSimError(SimErrorKind::kConfig, "serve.nope",
                   [&] { registry.set("serve.nope", "1"); });
    EXPECT_EQ(opts.queueDepth, 32); // untouched by failed sets
    registry.set("serve.threads", "256");
    EXPECT_EQ(opts.threads, 256);
    expectSimError(SimErrorKind::kConfig, "serve.threads",
                   [&] { registry.set("serve.threads", "257"); });
    EXPECT_EQ(opts.threads, 256);
    EXPECT_EQ(registry.keys().size(), 8u);
}

// --------------------------------------------------------------------
// Live-socket overload behavior.
// --------------------------------------------------------------------

/** Parse a response and return its "type". */
std::string
responseType(const std::string& response)
{
    return JsonValue::parse(response).at("type").asString();
}

TEST_F(ServeOverload, FullQueueShedsTypedAndRetrySucceeds)
{
    // One dispatcher stuck on a deterministically slow job (250 ms),
    // queue depth 1: a burst of 6 must shed at least one connection
    // with a typed overloaded document, and every shed client that
    // retries with backoff must eventually be served.
    FaultInjector::instance().configure("job.execute=sleep:250");
    ServeOptions opts;
    opts.socketPath = socketPath("overload");
    opts.queueDepth = 1;
    opts.threads = 1;
    ServeDaemon daemon(opts);
    daemon.start();

    const std::string request = kmRunRequest("burst");
    std::atomic<int> overloaded{0};
    std::atomic<int> servedFirstTry{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 6; ++i) {
        clients.emplace_back([&] {
            const std::string response =
                serveRoundTrip(opts.socketPath, request);
            if (responseType(response) == "overloaded") {
                const JsonValue doc = JsonValue::parse(response);
                EXPECT_EQ(doc.at("reason").asString(), "queueFull");
                EXPECT_GE(doc.at("retryAfterMs").asUint64(), 50u);
                ++overloaded;
            } else {
                EXPECT_EQ(responseType(response), "result");
                ++servedFirstTry;
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    EXPECT_GE(overloaded.load(), 1);
    EXPECT_GE(servedFirstTry.load(), 1);
    EXPECT_GE(daemon.loadStats().shedQueueFull, 1u);

    // The well-behaved client rides out the same storm with retries.
    int attempts = 0;
    const std::string response =
        serveRoundTripWithRetry(opts.socketPath, request, &attempts);
    EXPECT_EQ(responseType(response), "result");
    EXPECT_GE(attempts, 1);
    daemon.stop();
}

TEST_F(ServeOverload, AcceptBacksOffThroughFdExhaustion)
{
    // The first three accept() calls fail with injected EMFILE. The
    // pending connection must survive the backoff episode and be
    // served once descriptors "free up" — no crash, no shed, and the
    // backoff is counted instead of log-spammed.
    FaultInjector::instance().configure("socket.accept=emfile@1-3");
    ServeOptions opts;
    opts.socketPath = socketPath("emfile");
    ServeDaemon daemon(opts);
    daemon.start();

    const std::string response =
        serveRoundTrip(opts.socketPath, "{\"type\": \"ping\"}");
    EXPECT_EQ(responseType(response), "pong");
    EXPECT_GE(daemon.loadStats().acceptBackoffs, 3u);
    EXPECT_EQ(FaultInjector::instance().fired("socket.accept"), 3u);
    daemon.stop();
}

TEST_F(ServeOverload, OversizeRequestGetsTypedReject)
{
    ServeOptions opts;
    opts.socketPath = socketPath("oversize");
    opts.maxRequestBytes = 256;
    ServeDaemon daemon(opts);
    daemon.start();

    std::string request = "{\"type\": \"ping\", \"pad\": \"";
    request += std::string(512, 'x');
    request += "\"}";
    const std::string response =
        serveRoundTrip(opts.socketPath, request);
    const JsonValue doc = JsonValue::parse(response);
    EXPECT_EQ(doc.at("type").asString(), "error");
    EXPECT_EQ(doc.at("kind").asString(), "RequestTooLarge");
    EXPECT_EQ(daemon.loadStats().rejectedOversize, 1u);

    // A request under the cap still works on the same daemon.
    EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                          "{\"type\": \"ping\"}")),
              "pong");
    daemon.stop();
}

/**
 * A raw client connection to @p path that gives up reading after 5 s,
 * so a daemon that never answers fails the test instead of hanging it.
 */
int
connectRaw(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST_F(ServeOverload, IncompleteRequestTimesOutTyped)
{
    // A client that writes half a request and never half-closes gets
    // a typed Timeout once serve.ioTimeoutMs passes, and the one
    // dispatcher is free again for the next request.
    ServeOptions opts;
    opts.socketPath = socketPath("read_deadline");
    opts.threads = 1;
    opts.ioTimeoutMs = 300;
    ServeDaemon daemon(opts);
    daemon.start();

    const int fd = connectRaw(opts.socketPath);
    ASSERT_GE(fd, 0);
    const std::string partial = "{\"type\":\"pi";
    ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    const auto start = std::chrono::steady_clock::now();
    std::string response;
    char buf[4096];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
        response.append(buf, static_cast<std::size_t>(n));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ::close(fd);

    const JsonValue doc = JsonValue::parse(response);
    EXPECT_EQ(doc.at("type").asString(), "error");
    EXPECT_EQ(doc.at("kind").asString(), "Timeout");
    EXPECT_LT(elapsed, std::chrono::seconds(2));
    EXPECT_EQ(daemon.loadStats().ioTimeouts, 1u);
    EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                          "{\"type\": \"ping\"}")),
              "pong");
    daemon.stop();
}

TEST_F(ServeOverload, RequestLargerThanTheSocketBufferIsShedIntact)
{
    // One dispatcher pinned on a 600 ms job and one ping queued behind
    // it fill a depth-1 queue. A 1 MiB ping, more than the socket
    // buffer holds, is shed; its client must read the whole typed
    // document, so the shed has to take the request off the socket.
    FaultInjector::instance().configure("job.execute=sleep:600@1");
    ServeOptions opts;
    opts.socketPath = socketPath("big_shed");
    opts.queueDepth = 1;
    opts.threads = 1;
    ServeDaemon daemon(opts);
    daemon.start();

    std::thread slow([&] {
        EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                              kmRunRequest("slow"))),
                  "result");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread queued([&] {
        EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                              "{\"type\": \"ping\"}")),
                  "pong");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::string big = "{\"type\": \"ping\", \"pad\": \"";
    big += std::string(1 << 20, 'x');
    big += "\"}";
    std::string response;
    EXPECT_NO_THROW(response = serveRoundTrip(opts.socketPath, big));
    slow.join();
    queued.join();
    const JsonValue doc = JsonValue::parse(response);
    EXPECT_EQ(doc.at("type").asString(), "overloaded");
    EXPECT_EQ(doc.at("reason").asString(), "queueFull");
    EXPECT_GE(doc.at("retryAfterMs").asUint64(), 250u);
    EXPECT_EQ(daemon.loadStats().shedQueueFull, 1u);
    daemon.stop();
}

TEST_F(ServeOverload, StatsResponseCarriesRobustnessCounters)
{
    const std::string dir = scratchDir("stats_counters");
    ServeOptions opts;
    opts.socketPath = socketPath("stats");
    opts.cacheDir = dir;
    opts.cacheMaxBytes = 1 << 20;
    opts.threads = 3;
    ServeDaemon daemon(opts);
    const std::string response =
        daemon.handleRequest("{\"type\": \"stats\"}");
    const JsonValue doc = JsonValue::parse(response);
    const JsonValue& cache = doc.at("cache");
    EXPECT_EQ(cache.at("diskMode").asString(), "readWrite");
    EXPECT_EQ(cache.at("maxBytes").asUint64(), 1u << 20);
    EXPECT_EQ(cache.at("evictions").asUint64(), 0u);
    const JsonValue& server = doc.at("server");
    EXPECT_EQ(server.at("queueDepth").asUint64(), 16u);
    EXPECT_EQ(server.at("threads").asUint64(), 3u);
    EXPECT_EQ(server.at("shedQueueFull").asUint64(), 0u);
}

// --------------------------------------------------------------------
// Concurrent dispatch under one simulation budget.
// --------------------------------------------------------------------

TEST_F(ServeConcurrency, WarmHitIsAnsweredWhileAColdJobSimulates)
{
    ServeOptions opts;
    opts.socketPath = socketPath("warm_during_cold");
    opts.threads = 2;
    ServeDaemon daemon(opts);
    daemon.start();
    const std::string warm = kmRunRequest("warm");
    ASSERT_EQ(responseType(serveRoundTrip(opts.socketPath, warm)), "result");

    // A cold job pinned for 2 s on the first connection; the warm hit
    // on the second must come back while it still runs, not ~1.9 s
    // later behind it.
    FaultInjector::instance().configure("job.execute=sleep:2000");
    std::thread cold([&] {
        const std::string response = serveRoundTrip(
            opts.socketPath, kmRunRequest("cold", 0.01, 1, 77));
        EXPECT_EQ(responseType(response), "result");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    const JsonValue hit =
        JsonValue::parse(serveRoundTrip(opts.socketPath, warm));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(1000));
    EXPECT_TRUE(hit.at("runs").at(0).at("cached").asBool());
    cold.join();
    EXPECT_EQ(daemon.simulationsRun(), 2u);
    daemon.stop();
}

TEST_F(ServeConcurrency, BatchesShareOneSimulationBudget)
{
    // Two concurrent 2-job batches at serve.threads=2, every job
    // sleeping N ms: four sleeps on at most two slots take >= 2N. Two
    // pools of two workers each would finish in about N.
    constexpr int kSleepMs = 300;
    FaultInjector::instance().configure("job.execute=sleep:" +
                                        std::to_string(kSleepMs));
    ServeOptions opts;
    opts.socketPath = socketPath("budget");
    opts.threads = 2;
    ServeDaemon daemon(opts);
    daemon.start();

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&, c] {
            const std::string response = serveRoundTrip(
                opts.socketPath,
                kmRunRequest("batch" + std::to_string(c), 0.01, 2,
                             100 + 10 * c));
            EXPECT_EQ(responseType(response), "result");
        });
    }
    for (std::thread& t : clients)
        t.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(elapsed, std::chrono::milliseconds(2 * kSleepMs));
    EXPECT_EQ(daemon.simulationsRun(), 4u);
    daemon.stop();
}

} // namespace
} // namespace apres
