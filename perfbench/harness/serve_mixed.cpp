/**
 * @file
 * serve-mixed: the real apres_serve binary (2 worker threads, one
 * dispatcher, a persistent disk cache capped below the keys the run
 * produces) driven by one client over 2 concurrent AF_UNIX connections
 * in a closed loop. About 90% of requests are warm (a hot-set key
 * stored before timing), about 10% cold (a fresh seed: a small 15-SM
 * simulation, a disk store and an LRU eviction).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_value.hpp"
#include "harness/bench_math.hpp"
#include "harness/workloads.hpp"
#include "serve/daemon.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr const char* kSocket = "serve.sock";
constexpr const char* kCacheDir = "serve-cache";
constexpr int kHotKeys = 16;
constexpr int kCacheMaxEntries = 48;
constexpr int kConnections = 2;
constexpr int kSetups = 9;
constexpr std::size_t kMinWarm = 1000;
constexpr std::size_t kMinCold = 100;
constexpr double kHotScale = 0.01;
constexpr double kColdScale = 0.02;

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

apres::ServeJobSpec
jobSpec(const std::string& app, const std::string& policy, double scale,
        std::uint64_t seed)
{
    apres::ServeJobSpec spec;
    spec.label = app + "/" + policy + "/" + std::to_string(seed);
    spec.workload = app;
    spec.scale = scale;
    if (policy != "base") {
        const std::size_t plus = policy.find('+');
        spec.overrides = {{"scheduler", policy.substr(0, plus)},
                          {"prefetcher", policy.substr(plus + 1)}};
    }
    spec.overrides.emplace_back("seed", std::to_string(seed));
    return spec;
}

// CCWS is left out: its cells simulate an order of magnitude slower,
// and a cold request should cost tens of milliseconds.
const std::vector<std::string> kPolicies = {"base", "laws+sap", "pa+str",
                                            "gto+sld"};

/** The hot set: one key per app (KM twice), policies in rotation. */
std::vector<apres::ServeJobSpec>
hotSet(std::uint64_t seed)
{
    const std::vector<std::string> apps = {"BFS", "BP",  "CS",  "HISTO",
                                           "HS",  "KM",  "LUD", "MUM",
                                           "NW",  "PA",  "PF",  "SP",
                                           "SPMV", "SRAD", "ST", "KM"};
    std::vector<apres::ServeJobSpec> hot;
    for (int k = 0; k < kHotKeys; ++k) {
        hot.push_back(jobSpec(apps[k], kPolicies[k % kPolicies.size()],
                              kHotScale, seed * 100 + k));
    }
    return hot;
}

/** Request @p i of the run's sequence: warm hot key or cold job. */
struct Planned
{
    bool cold = false;
    int hot = 0;
    apres::ServeJobSpec spec;
};

/**
 * Requests come in blocks of ten with exactly one cold request at a
 * seed-chosen slot. Cold requests walk every (app, policy) pair and
 * warm ones every hot key, from seed-chosen offsets, so every seed
 * gives the same mix in a different order.
 */
Planned
plan(std::uint64_t seed, std::uint64_t i)
{
    static const std::vector<std::string> kColdApps = {
        "BFS", "HISTO", "KM", "MUM", "PA", "PF", "SPMV"};
    const std::uint64_t block = i / 10;
    const std::uint64_t offset = mix(seed);
    Planned p;
    p.cold = i % 10 == mix(offset ^ block) % 10;
    if (!p.cold) {
        p.hot = static_cast<int>((7 * i + offset) % kHotKeys);
        return p;
    }
    const std::uint64_t pair =
        (block + offset) % (kColdApps.size() * kPolicies.size());
    // Fresh seeds live above every hot-set seed: a new cache key.
    p.spec = jobSpec(kColdApps[pair % kColdApps.size()],
                     kPolicies[pair / kColdApps.size()], kColdScale,
                     (seed + 1) * 1'000'000'000ull + i);
    return p;
}

/** The raw "result" object of a one-run response, byte for byte. */
std::string
resultPayload(const std::string& response)
{
    std::size_t pos = response.find("\"result\":");
    if (pos == std::string::npos)
        return {};
    pos = response.find('{', pos);
    if (pos == std::string::npos)
        return {};
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = pos; i < response.size(); ++i) {
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
        } else if (c == '}' && --depth == 0) {
            return response.substr(pos, i - pos + 1);
        }
    }
    return {};
}

apres::StatSet
payloadStats(const std::string& payload)
{
    apres::StatSet stats;
    const apres::JsonValue doc = apres::JsonValue::parse(payload);
    for (const auto& [key, value] : doc.at("stats").members()) {
        if (value.isNumber())
            stats.set(key, value.asDouble());
    }
    return stats;
}

/** A spawned apres_serve; killed on destruction if still running. */
class Daemon
{
  public:
    explicit Daemon(const std::string& binary)
    {
        const std::string entries = std::to_string(kCacheMaxEntries);
        const std::string threads = std::to_string(kConnections);
        std::vector<std::string> args = {binary,      "--socket",
                                         kSocket,     "--cache-dir",
                                         kCacheDir,   "--threads",
                                         threads,     "--cache-max-entries",
                                         entries};
        std::vector<char*> argv;
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "serve.log",
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + binary);
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int pid() const { return pid_; }

    /** Ping until the first pong (the daemon is ready). */
    void waitReady()
    {
        const auto start = Clock::now();
        while (secondsSince(start) < 30.0) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("apres_serve exited at startup "
                                         "(see serve.log)");
            }
            try {
                const std::string r =
                    apres::serveRoundTrip(kSocket, R"({"type":"ping"})");
                if (r.find("\"pong\"") != std::string::npos)
                    return;
            } catch (const std::exception&) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        throw std::runtime_error("apres_serve never answered a ping");
    }

    /** Ask it to shut down and reap it. */
    void shutdown()
    {
        apres::serveRoundTrip(kSocket, R"({"type":"shutdown"})");
        const auto start = Clock::now();
        while (secondsSince(start) < 10.0) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        throw std::runtime_error("apres_serve did not exit on shutdown");
    }

  private:
    pid_t pid_ = -1;
};

struct Latencies
{
    std::vector<double> warm; ///< seconds
    std::vector<double> cold;
    double coldSeconds = 0.0;
    double coldInstructions = 0.0;
    double wall = 0.0;
    std::uint64_t requests = 0;
};

/** One request; @return its payload, empty on any failure (counted). */
std::string
request(const apres::ServeJobSpec& spec, bool expect_cached, double* latency,
        Outcome& out, std::mutex& out_mu)
{
    const std::string text = runRequest(spec);
    std::string response;
    const auto start = Clock::now();
    try {
        response = apres::serveRoundTrip(kSocket, text);
    } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(out_mu);
        out.check(false, std::string("transport failure: ") + e.what());
        return {};
    }
    if (latency)
        *latency = secondsSince(start);
    std::string why;
    std::string payload;
    try {
        const apres::JsonValue doc = apres::JsonValue::parse(response);
        const apres::JsonValue& run = doc.at("runs").at(0);
        if (doc.at("type").asString() != "result")
            why = "response type " + doc.at("type").asString();
        else if (run.at("result").at("status").asString() != "ok")
            why = "run status " + run.at("result").at("status").asString();
        else if (run.at("cached").asBool() != expect_cached)
            why = expect_cached ? "warm request was not a cache hit"
                                : "cold request was answered from cache";
        else
            payload = resultPayload(response);
    } catch (const std::exception& e) {
        why = std::string("unparsable response: ") + e.what();
    }
    std::lock_guard<std::mutex> lock(out_mu);
    out.check(!payload.empty(), spec.label + ": " + why);
    return payload;
}

/**
 * The closed loop: kConnections callers share the planned sequence
 * until @p seconds have passed and the sample minimums are met.
 */
Latencies
runLoop(const Options& opts, const std::vector<apres::ServeJobSpec>& hot,
        const std::vector<std::string>& originals, std::uint64_t first,
        double seconds, SpanLog& spans, Outcome& out)
{
    Latencies lat;
    std::mutex mu;
    std::atomic<std::uint64_t> next{first};
    std::atomic<std::size_t> warm_done{0};
    std::atomic<std::size_t> cold_done{0};
    const auto start = Clock::now();
    const auto keep_going = [&] {
        if (secondsSince(start) > 6.0 * seconds)
            return false; // the minimums stay a floor, not a hang
        return secondsSince(start) < seconds || warm_done < kMinWarm ||
               cold_done < kMinCold;
    };
    const auto caller = [&] {
        while (keep_going()) {
            try {
                const Planned p = plan(opts.seed, next++);
                const apres::ServeJobSpec& spec = p.cold ? p.spec : hot[p.hot];
                double seconds_taken = 0.0;
                std::string payload;
                {
                    SpanScope span(spans, p.cold ? "serve.cold_request"
                                                 : "serve.warm_request");
                    payload = request(spec, !p.cold, &seconds_taken, out, mu);
                }
                if (payload.empty())
                    continue;
                if (p.cold) {
                    const double inst =
                        payloadStats(payload).get("sim.instructions");
                    std::lock_guard<std::mutex> lock(mu);
                    lat.cold.push_back(seconds_taken);
                    lat.coldSeconds += seconds_taken;
                    lat.coldInstructions += inst;
                    ++cold_done;
                } else {
                    std::lock_guard<std::mutex> lock(mu);
                    if (payload != originals[p.hot])
                        out.fail(spec.label + ": warm payload differs from its "
                                              "cold original");
                    lat.warm.push_back(seconds_taken);
                    ++warm_done;
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                out.fail(std::string("client error: ") + e.what());
            }
        }
    };
    std::vector<std::thread> callers;
    for (int c = 0; c < kConnections; ++c)
        callers.emplace_back(caller);
    for (std::thread& t : callers)
        t.join();
    lat.wall = secondsSince(start);
    lat.requests = next - first;
    return lat;
}

double
ms(double seconds)
{
    return 1e3 * seconds;
}

/** Median in-process ServeDaemon::handleRequest time of warm requests. */
double
inProcessWarmSeconds(const std::vector<apres::ServeJobSpec>& hot,
                     SpanLog& spans, Outcome& out)
{
    apres::ServeOptions options;
    options.cacheDir = "inproc-cache";
    options.threads = kConnections;
    apres::ServeDaemon daemon(options);
    for (const apres::ServeJobSpec& spec : hot)
        daemon.handleRequest(runRequest(spec)); // store the hot set
    std::vector<double> times;
    for (int round = 0; round < 20; ++round) {
        for (const apres::ServeJobSpec& spec : hot) {
            const std::string text = runRequest(spec);
            const auto start = Clock::now();
            std::string response;
            {
                SpanScope span(spans, "serve.handle_request");
                response = daemon.handleRequest(text);
            }
            times.push_back(secondsSince(start));
            if (round == 0) {
                out.check(response.find("\"cached\": true") !=
                              std::string::npos,
                          spec.label + ": in-process warm request missed");
            }
        }
    }
    return median(times);
}

} // namespace

void
runServeMixed(const Options& opts, SpanLog& spans, Outcome& out)
{
    if (opts.serveBinary.empty())
        throw std::runtime_error("serve-mixed needs --serve-bin");
    const std::vector<apres::ServeJobSpec> hot = hotSet(opts.seed);
    std::mutex mu;

    // Store the hot set (its cold originals) before anything is timed.
    std::vector<std::string> originals;
    {
        Daemon daemon(opts.serveBinary);
        daemon.waitReady();
        for (const apres::ServeJobSpec& spec : hot)
            originals.push_back(request(spec, false, nullptr, out, mu));
        daemon.shutdown();
    }

    // Set-up: spawn plus the startup cache scrub, until the first pong.
    std::vector<double> setups;
    std::optional<Daemon> daemon;
    for (int r = 0; r < kSetups; ++r) {
        if (daemon) {
            daemon->shutdown();
            daemon.reset();
        }
        const auto start = Clock::now();
        daemon.emplace(opts.serveBinary);
        daemon->waitReady();
        setups.push_back(secondsSince(start));
    }
    // One untimed pass promotes the hot set from disk to memory.
    for (std::size_t k = 0; k < hot.size(); ++k) {
        const std::string payload = request(hot[k], true, nullptr, out, mu);
        if (!payload.empty() && payload != originals[k])
            out.fail(hot[k].label + ": disk hit differs from its cold "
                                    "original");
    }

    const bool traced = opts.trace;
    SpanLog off(false);
    const Latencies plain = runLoop(opts, hot, originals, 0,
                                    traced ? opts.seconds / 2 : opts.seconds,
                                    off, out);
    Latencies traced_lat;
    if (traced) {
        traced_lat = runLoop(opts, hot, originals, plain.requests + 1,
                             opts.seconds / 2, spans, out);
    }

    const apres::JsonValue stats = apres::JsonValue::parse(
        apres::serveRoundTrip(kSocket, R"({"type":"stats"})"));
    // Counters sit at the top level or in the "cache"/"server" groups.
    const auto count = [&stats](const char* key) {
        const apres::JsonValue* v = stats.find(key);
        for (const char* group : {"cache", "server"}) {
            if (!v)
                v = stats.at(group).find(key);
        }
        return v ? static_cast<double>(v->asUint64()) : 0.0;
    };
    const double cold_requests =
        static_cast<double>(plain.cold.size() + traced_lat.cold.size());
    out.check(count("simulations") == cold_requests,
              "daemon simulations (" + std::to_string(count("simulations")) +
                  ") != cold requests (" + std::to_string(cold_requests) +
                  ")");
    const double rss = peakRssMb(daemon->pid());
    daemon->shutdown();
    daemon.reset();

    const double warm_p99 = reportablePercentile(plain.warm.size(), 99.0);
    const double cold_p90 = reportablePercentile(plain.cold.size(), 90.0);
    MetricMap& rep = out.report;
    rep["setup_s"] = {median(setups), "s"};
    rep["sim_minst_per_s"] = {
        apres::ratio(plain.coldInstructions / 1e6, plain.coldSeconds),
        "Minst/s"};
    rep["warm_p50_ms"] = {ms(median(plain.warm)), "ms"};
    rep["warm_p99_ms"] = {ms(percentile(plain.warm, warm_p99)), "ms"};
    rep["cold_p50_ms"] = {ms(median(plain.cold)), "ms"};
    rep["cold_p90_ms"] = {ms(percentile(plain.cold, cold_p90)), "ms"};
    rep["req_per_s"] = {static_cast<double>(plain.requests) / plain.wall,
                        "1/s"};
    rep["peak_rss_mb"] = {rss, "MB"};
    rep["warm_samples"] = {static_cast<double>(plain.warm.size()), "count"};
    rep["cold_samples"] = {static_cast<double>(plain.cold.size()), "count"};
    rep["warm_tail_percentile"] = {warm_p99, "pct"};
    rep["cold_tail_percentile"] = {cold_p90, "pct"};

    if (!traced) {
        out.endToEnd["setup_s"] = rep["setup_s"];
        out.endToEnd["sim_minst_per_s"] = rep["sim_minst_per_s"];
        // A cold request is the operation that simulates; the warm
        // median (sub-ms, bound by cross-CPU wakeups) spreads wider
        // run to run than any bound allows, so it is a layer figure.
        out.endToEnd["p50_ms"] = rep["cold_p50_ms"];
        out.endToEnd["ops_per_s"] = rep["req_per_s"];
        out.endToEnd["peak_rss_mb"] = rep["peak_rss_mb"];
        return;
    }

    MetricMap& l = out.layers;
    l["serve.warm_p50_ms"] = rep["warm_p50_ms"];
    l["serve.warm_p99_ms"] = rep["warm_p99_ms"];
    l["serve.cold_p50_ms"] = rep["cold_p50_ms"];
    l["serve.cold_p90_ms"] = rep["cold_p90_ms"];
    l["serve.memory_hits"] = {count("memoryHits"), "count"};
    l["serve.disk_hits"] = {count("diskHits"), "count"};
    l["serve.misses"] = {count("misses"), "count"};
    l["serve.stores"] = {count("stores"), "count"};
    l["serve.evictions"] = {count("evictions"), "count"};
    l["serve.sheds"] = {count("shedQueueFull") + count("shedDeadline") +
                            count("shedShutdown"),
                        "count"};
    l["serve.simulations"] = {count("simulations"), "count"};
    const double hits = count("memoryHits") + count("diskHits");
    l["serve.hit_frac"] = {apres::ratio(hits, hits + count("misses")),
                           "frac"};
    l["trace.overhead_frac"] = {
        median(traced_lat.warm) / median(plain.warm) - 1.0, "frac"};

    // In-process probes on the same jobs: the hot set and the first
    // cold jobs of the sequence.
    std::vector<apres::ServeJobSpec> probe_jobs(hot.begin(), hot.begin() + 8);
    for (std::uint64_t i = 0; probe_jobs.size() < 12; ++i) {
        const Planned p = plan(opts.seed, i);
        if (p.cold)
            probe_jobs.push_back(p.spec);
    }
    const std::vector<ProbedJob> probed =
        probeLayers(probe_jobs, "probe-cache", true, spans, out);
    for (std::size_t k = 0; k < 8; ++k) {
        // The serialized payload ends in a newline the response drops.
        std::string payload = probed[k].payload;
        while (!payload.empty() && payload.back() == '\n')
            payload.pop_back();
        out.check(payload == originals[k],
                  hot[k].label + ": in-process payload differs from the "
                                 "daemon's");
    }
    l["serve.transport_ms"] = {
        ms(median(traced_lat.warm) - inProcessWarmSeconds(hot, spans, out)),
        "ms"};

    CountAggregate counts;
    for (const std::string& payload : originals)
        counts.add(payloadStats(payload), 15);
    counts.emit(l);
}

} // namespace perfbench
