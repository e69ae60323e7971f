/**
 * @file
 * apres_serve: a long-running simulation service over a local socket.
 *
 * The daemon accepts batched run requests as JSON over an AF_UNIX
 * stream socket (protocol.hpp), answers cache hits straight from the
 * two-tier content-addressed ResultCache, and runs the misses on the
 * sweep worker pool (SweepRunner, which runs each config as given, so
 * a job's identity never depends on its batch position). Every
 * uncached "ok" result is serialized canonically, stored under its
 * content hash, and — on every later request for the same semantic
 * configuration — returned bitwise-identical with zero re-simulation.
 * The cache caps (serve.cacheMaxBytes / serve.cacheMaxEntries) bound
 * both tiers, so with a cap set the daemon's memory stays bounded
 * however many distinct results it serves.
 *
 * Concurrency: serve.threads dispatchers serve up to that many
 * requests at once, and one daemon-wide budget of serve.threads
 * simulation slots (SimulationSlots, batch.hpp) bounds the
 * simulations running at once. A request claims slots only after its
 * lookups, for its misses, so a request whose jobs all hit never
 * waits behind another request's simulation unless every dispatcher
 * is busy with misses; a lone batch still fans out to every slot.
 *
 * Framing: one request per connection. The client writes the request
 * document and shuts down its write side; the daemon reads to EOF,
 * responds, and closes.
 *
 * Overload control: the accept loop only admits a connection when the
 * bounded admission queue (serve.queueDepth) has room; otherwise the
 * client gets a typed {"type":"overloaded","retryAfterMs":...} shed
 * response immediately instead of queueing silently. The dispatchers
 * drain the queue; a request that waited past
 * serve.requestDeadlineMs is shed the same way without being parsed.
 * Socket reads and writes carry deadlines (serve.ioTimeoutMs) so a
 * slow or half-open client cannot pin a dispatcher, and requests over
 * serve.maxRequestBytes are rejected with a typed RequestTooLarge
 * error. accept() running out of file descriptors (EMFILE/ENFILE)
 * backs off exponentially instead of log-spamming at poll frequency.
 *
 * ServeDaemon::handleRequest is the transport-free core: tests and
 * the socket loop share it, so protocol/cache behavior is exercised
 * without sockets.
 */

#ifndef APRES_SERVE_DAEMON_HPP
#define APRES_SERVE_DAEMON_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batch.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace apres {

/** Upper bound of serve.threads. */
constexpr int kMaxServeThreads = 256;

/**
 * Daemon configuration. Every field is reachable as a serve.* key
 * through ServeConfigRegistry (serve_config.hpp); the apres_serve
 * flags are sugar over the same keys.
 */
struct ServeOptions
{
    /** Filesystem path of the AF_UNIX listening socket. */
    std::string socketPath;

    /** Persistent cache directory; empty keeps the cache in memory. */
    std::string cacheDir;

    /**
     * Requests served and simulations run at once; <= 0 selects
     * defaultJobCount(). Clamped to kMaxServeThreads.
     */
    int threads = 0;

    /** Admission-queue depth; connections beyond it are shed. */
    int queueDepth = 16;

    /**
     * Maximum time a connection may wait in the queue before it is
     * shed with reason "deadline" instead of served; 0 disables.
     */
    std::uint64_t requestDeadlineMs = 0;

    /** Base of the backlog-scaled retryAfterMs hint in sheds. */
    std::uint64_t retryAfterMs = 250;

    /** Requests larger than this are rejected (RequestTooLarge). */
    std::uint64_t maxRequestBytes = 16ull * 1024 * 1024;

    /** Per-connection socket read/write deadline; 0 disables. */
    std::uint64_t ioTimeoutMs = 10000;

    /** Cache size cap in payload bytes, per tier; 0 = unlimited. */
    std::uint64_t cacheMaxBytes = 0;

    /** Cache entry-count cap, per tier; 0 = unlimited. */
    std::uint64_t cacheMaxEntries = 0;
};

/** Serving-layer counters (one snapshot; monotonically growing). */
struct ServeLoadStats
{
    std::uint64_t requestsServed = 0;   ///< connections fully handled
    std::uint64_t shedQueueFull = 0;    ///< rejected at admission
    std::uint64_t shedDeadline = 0;     ///< expired waiting in queue
    std::uint64_t shedShutdown = 0;     ///< queued at shutdown
    std::uint64_t rejectedOversize = 0; ///< over maxRequestBytes
    std::uint64_t ioTimeouts = 0;       ///< read/write deadline hit
    std::uint64_t acceptBackoffs = 0;   ///< EMFILE/ENFILE backoff naps
};

class ServeDaemon
{
  public:
    /** Builds the cache (and its directory); does not open sockets. */
    explicit ServeDaemon(ServeOptions options);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon&) = delete;
    ServeDaemon& operator=(const ServeDaemon&) = delete;

    /**
     * Bind the socket, start the dispatcher pool and the background
     * accept loop. Throws SimError(kConfig) when the socket cannot be
     * bound (stale paths are unlinked first).
     */
    void start();

    /** Stop accepting, join all threads, unlink the socket. Idempotent. */
    void stop();

    /**
     * Ask the accept loop to exit without blocking or allocating —
     * safe from a signal handler. Follow with stop()/wait() to join.
     */
    void requestStop() { stopRequested_.store(true); }

    /** Block until a shutdown request (or stop()) ends the loop. */
    void wait();

    /** True from start() until shutdown/stop. */
    bool running() const { return running_.load(); }

    /**
     * The transport-free request handler: one request document in,
     * one response document out. Malformed requests become
     * {"type":"error", ...} responses; only transport failures and
     * daemon-construction errors throw.
     */
    std::string handleRequest(const std::string& request_json);

    const ResultCache& cache() const { return cache_; }

    /** Serving-layer counters (sheds, rejects, timeouts). */
    ServeLoadStats loadStats() const;

    /**
     * Simulations actually executed since construction — the
     * instrumented counter behind the "zero re-simulation on a warm
     * batch" guarantee (it must not move when every job hits).
     */
    std::uint64_t simulationsRun() const
    {
        return simulations_.load(std::memory_order_relaxed);
    }

    const ServeOptions& options() const { return opts_; }

  private:
    struct PendingConn
    {
        int fd = -1;
        std::chrono::steady_clock::time_point enqueuedAt;
    };

    void acceptLoop();
    void dispatchLoop();
    void handleConnection(int fd);
    std::string handleRun(const ServeRequest& request);

    /** Best-effort typed shed response + close. */
    void shedConnection(int fd, const char* reason);

    /** Backlog-scaled retryAfterMs hint. */
    std::uint64_t retryHintMs() const;

    void joinAll();

    ServeOptions opts_;
    const std::string fingerprint_; ///< serveFingerprint()
    const int threads_; ///< resolved serve.threads
    ResultCache cache_;
    SimulationSlots slots_;
    std::atomic<std::uint64_t> simulations_{0};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    int listenFd_ = -1;
    std::thread loop_;

    // Admission queue, fed by the accept loop, drained by dispatchers.
    mutable std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<PendingConn> queue_;
    bool queueClosed_ = false;
    std::vector<std::thread> dispatchers_;

    std::atomic<std::uint64_t> requestsServed_{0};
    std::atomic<std::uint64_t> shedQueueFull_{0};
    std::atomic<std::uint64_t> shedDeadline_{0};
    std::atomic<std::uint64_t> shedShutdown_{0};
    std::atomic<std::uint64_t> rejectedOversize_{0};
    std::atomic<std::uint64_t> ioTimeouts_{0};
    std::atomic<std::uint64_t> acceptBackoffs_{0};
};

/**
 * Client side: connect to @p socket_path, send @p request_json, shut
 * down the write side and return the daemon's response document.
 * Throws SimError(kConfig) on connection/transport failure.
 */
std::string serveRoundTrip(const std::string& socket_path,
                           const std::string& request_json);

/**
 * Client-side retry policy for serveRoundTripWithRetry: jittered
 * exponential backoff with a bounded budget, honoring the daemon's
 * retryAfterMs hint as a lower bound on every nap.
 */
struct ServeRetryPolicy
{
    /** Retries after the first attempt; 0 = plain serveRoundTrip. */
    int budget = 0;

    /** First backoff nap; doubles per retry (before jitter). */
    std::uint64_t baseMs = 100;

    /** Backoff ceiling. */
    std::uint64_t maxMs = 5000;

    /** Jitter seed; 0 derives one from pid + clock. */
    std::uint64_t seed = 0;
};

/**
 * serveRoundTrip that retries on typed overloaded responses and on
 * transport failures (daemon restarting), sleeping
 * max(retryAfterMs hint, jittered exponential backoff) between
 * attempts. Returns the final response (possibly still "overloaded"
 * when the budget ran out); rethrows the final transport failure.
 * @p attempts_out, when non-null, receives the attempt count.
 */
std::string serveRoundTripWithRetry(const std::string& socket_path,
                                    const std::string& request_json,
                                    const ServeRetryPolicy& policy,
                                    int* attempts_out = nullptr);

} // namespace apres

#endif // APRES_SERVE_DAEMON_HPP
