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
 * drain the queue, and at shutdown shed what is left the same way.
 * Served and shed connections end in one routine: read the request to
 * EOF, build the response, write it, close. Socket reads and writes
 * carry deadlines (serve.ioTimeoutMs; at most 1 s for a shed) so a
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

  private:
    void acceptLoop();
    void dispatchLoop();
    std::string handleRun(const ServeRequest& request);

    /**
     * The one routine that ends a connection: read the request, build
     * the response, write it, close @p fd. A non-null @p shed_reason
     * ("queueFull", "shutdown") answers with the typed shed document
     * and discards the request.
     */
    void answer(int fd, const char* shed_reason);

    /** The retryAfterMs hint: 250 ms x (1 + backlog), at most 30 s. */
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
    std::deque<int> queue_; ///< accepted descriptors
    bool queueClosed_ = false;
    std::vector<std::thread> dispatchers_;

    std::atomic<std::uint64_t> requestsServed_{0};
    std::atomic<std::uint64_t> shedQueueFull_{0};
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
 * serveRoundTrip that retries on typed overloaded responses and on
 * transport failures (daemon restarting): up to 8 retries, sleeping
 * max(retryAfterMs hint, jittered exponential backoff) between
 * attempts. The backoff starts at 100 ms and doubles per retry up to
 * 5 s, with jitter seeded from the pid and the clock. Returns the
 * final response (possibly still "overloaded" when the retries ran
 * out); rethrows the final transport failure. @p attempts_out, when
 * non-null, receives the attempt count.
 */
std::string serveRoundTripWithRetry(const std::string& socket_path,
                                    const std::string& request_json,
                                    int* attempts_out = nullptr);

} // namespace apres

#endif // APRES_SERVE_DAEMON_HPP
