/**
 * @file
 * Daemon implementation: overload-controlled socket plumbing (bounded
 * admission queue, dispatcher pool, socket deadlines, typed sheds) +
 * batch handling over the result cache and the simulation-slot budget.
 * One read loop and one write loop move every request and response,
 * the client's included.
 */

#include "daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace {

using Clock = std::chrono::steady_clock;

/** Base of the backlog-scaled retryAfterMs hint in a shed. */
constexpr std::uint64_t kRetryAfterMs = 250;

/** Upper bound of a shed's read and write deadlines. */
constexpr std::uint64_t kShedTimeoutMs = 1000;

/** Wrap an errno into a config-kind SimError with a prefix. */
[[noreturn]] void
throwErrno(const std::string& what, int err = errno)
{
    throwConfigError(what + ": " + std::strerror(err));
}

sockaddr_un
socketAddress(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        throwConfigError("socket path too long (max " +
                         std::to_string(sizeof addr.sun_path - 1) +
                         " bytes): " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/** How a socket transfer ended. */
enum class IoOutcome { kOk, kTooLarge, kTimeout, kError };

/**
 * Arm SO_RCVTIMEO or SO_SNDTIMEO (@p option) with what is left until
 * @p deadline, for the next blocking call. False once it has passed.
 */
bool
armDeadline(int fd, int option, Clock::time_point deadline)
{
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count();
    if (remaining <= 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(remaining / 1000);
    tv.tv_usec = static_cast<suseconds_t>((remaining % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
    return true;
}

/** The outcome of a call that failed (not with EINTR); errno to @p err. */
IoOutcome
failure(int* err)
{
    *err = errno;
    return *err == EAGAIN || *err == EWOULDBLOCK ? IoOutcome::kTimeout
                                                 : IoOutcome::kError;
}

/**
 * Read @p fd to EOF into @p out, keeping at most @p max_bytes: past
 * the cap the rest is still read, so the peer can finish writing, but
 * discarded, and the outcome is kTooLarge. @p timeout_ms > 0 bounds
 * the whole read; 0 waits as long as the peer takes and makes no
 * setsockopt call. A failure's errno goes to @p err.
 */
IoOutcome
readToEof(int fd, std::uint64_t max_bytes, std::uint64_t timeout_ms,
          std::string* out, int* err)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    bool too_large = false;
    char buf[16384];
    for (;;) {
        if (timeout_ms > 0 && !armDeadline(fd, SO_RCVTIMEO, deadline))
            return IoOutcome::kTimeout;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return failure(err);
        }
        if (n == 0)
            return too_large ? IoOutcome::kTooLarge : IoOutcome::kOk;
        if (!too_large) {
            out->append(buf, static_cast<std::size_t>(n));
            if (out->size() > max_bytes) {
                too_large = true;
                out->clear();
            }
        }
    }
}

/**
 * Write all of @p text to @p fd under the same optional deadline as
 * readToEof. MSG_NOSIGNAL: a peer that hung up is an EPIPE error, not
 * a process-killing SIGPIPE.
 */
IoOutcome
writeAll(int fd, const std::string& text, std::uint64_t timeout_ms,
         int* err)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::size_t off = 0;
    while (off < text.size()) {
        if (timeout_ms > 0 && !armDeadline(fd, SO_SNDTIMEO, deadline))
            return IoOutcome::kTimeout;
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return failure(err);
        }
        off += static_cast<std::size_t>(n);
    }
    return IoOutcome::kOk;
}

} // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : opts_(std::move(options)),
      fingerprint_(serveFingerprint()),
      threads_(std::clamp(opts_.threads > 0 ? opts_.threads
                                            : defaultJobCount(),
                          1, kMaxServeThreads)),
      cache_(opts_.cacheDir,
             CacheLimits{opts_.cacheMaxBytes, opts_.cacheMaxEntries}),
      slots_(threads_)
{
}

ServeDaemon::~ServeDaemon()
{
    stop();
}

void
ServeDaemon::start()
{
    if (running_.load())
        fatal("ServeDaemon::start called twice");
    if (opts_.socketPath.empty())
        throwConfigError("apres_serve: no socket path configured");

    const sockaddr_un addr = socketAddress(opts_.socketPath);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throwErrno("socket");
    // A stale socket file from a dead daemon would make bind fail;
    // unlink first (a live daemon on the path will still conflict at
    // connect time, which is the better failure mode).
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throwErrno("bind " + opts_.socketPath, saved);
    }
    if (::listen(listenFd_, 64) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throwErrno("listen " + opts_.socketPath, saved);
    }

    stopRequested_.store(false);
    {
        const std::lock_guard<std::mutex> lock(qmu_);
        queueClosed_ = false;
    }
    running_.store(true);
    dispatchers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
    loop_ = std::thread([this] { acceptLoop(); });
}

void
ServeDaemon::joinAll()
{
    if (loop_.joinable())
        loop_.join();
    {
        const std::lock_guard<std::mutex> lock(qmu_);
        queueClosed_ = true;
    }
    qcv_.notify_all();
    for (std::thread& t : dispatchers_) {
        if (t.joinable())
            t.join();
    }
    dispatchers_.clear();
}

void
ServeDaemon::stop()
{
    stopRequested_.store(true);
    joinAll();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opts_.socketPath.c_str());
    }
    running_.store(false);
}

void
ServeDaemon::wait()
{
    joinAll();
}

std::uint64_t
ServeDaemon::retryHintMs() const
{
    std::size_t backlog;
    {
        const std::lock_guard<std::mutex> lock(qmu_);
        backlog = queue_.size();
    }
    const std::uint64_t hint =
        kRetryAfterMs * (1 + static_cast<std::uint64_t>(backlog));
    return std::min<std::uint64_t>(hint, 30000);
}

void
ServeDaemon::acceptLoop()
{
    // EMFILE/ENFILE backoff state: fd exhaustion is an environmental
    // episode, not a per-iteration event — log it once and nap with
    // exponential growth instead of spamming at poll frequency.
    std::uint64_t fdBackoffMs = 0;
    bool fdEpisodeLogged = false;

    while (!stopRequested_.load()) {
        // Poll with a timeout so a stop()/shutdown request is noticed
        // even when no client ever connects.
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200 /* ms */);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            logWarn("apres_serve: poll failed: ", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;

        int err = faultInjectAt("socket.accept");
        int fd = -1;
        if (err == 0) {
            fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                err = errno;
        }
        if (fd < 0) {
            if (err == EINTR)
                continue;
            if (err == EMFILE || err == ENFILE || err == ENOMEM ||
                err == ENOBUFS) {
                if (!fdEpisodeLogged) {
                    logWarn("apres_serve: accept failed (",
                            std::strerror(err),
                            "); backing off until descriptors free up");
                    fdEpisodeLogged = true;
                }
                fdBackoffMs = std::min<std::uint64_t>(
                    fdBackoffMs == 0 ? 25 : fdBackoffMs * 2, 1000);
                acceptBackoffs_.fetch_add(1,
                                          std::memory_order_relaxed);
                // Nap in slices so a stop request stays responsive.
                for (std::uint64_t slept = 0;
                     slept < fdBackoffMs && !stopRequested_.load();
                     slept += 25) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(25));
                }
                continue;
            }
            logWarn("apres_serve: accept failed: ", std::strerror(err));
            continue;
        }
        if (fdEpisodeLogged)
            logWarn("apres_serve: accept recovered");
        fdBackoffMs = 0;
        fdEpisodeLogged = false;

        // Admission control: a full queue sheds immediately with a
        // typed response instead of queueing without bound.
        bool admitted = false;
        {
            const std::lock_guard<std::mutex> lock(qmu_);
            if (static_cast<int>(queue_.size()) <
                std::max(1, opts_.queueDepth)) {
                queue_.push_back(fd);
                admitted = true;
            }
        }
        if (admitted) {
            qcv_.notify_one();
        } else {
            shedQueueFull_.fetch_add(1, std::memory_order_relaxed);
            answer(fd, "queueFull");
        }
    }
    {
        const std::lock_guard<std::mutex> lock(qmu_);
        queueClosed_ = true;
    }
    qcv_.notify_all();
    running_.store(false);
}

void
ServeDaemon::dispatchLoop()
{
    for (;;) {
        int fd = -1;
        bool closed = false;
        {
            std::unique_lock<std::mutex> lk(qmu_);
            qcv_.wait(lk, [this] {
                return queueClosed_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // closed and drained
            fd = queue_.front();
            queue_.pop_front();
            closed = queueClosed_;
        }
        // Shutting down: shed the backlog instead of serving it — a
        // queued simulation batch could hold the stop for minutes.
        if (closed)
            shedShutdown_.fetch_add(1, std::memory_order_relaxed);
        answer(fd, closed ? "shutdown" : nullptr);
    }
}

void
ServeDaemon::answer(int fd, const char* shed_reason)
{
    // A shed ignores its request but still reads it, keeping none of
    // it, so a client that writes before it reads never sees EPIPE. A
    // client too slow to take the hint is not worth waiting for: a
    // shed waits at most 1 s each way.
    const bool shed = shed_reason != nullptr;
    std::uint64_t timeout_ms = opts_.ioTimeoutMs;
    if (shed && (timeout_ms == 0 || timeout_ms > kShedTimeoutMs))
        timeout_ms = kShedTimeoutMs;
    std::string request;
    int err = 0;
    const IoOutcome read =
        readToEof(fd, shed ? 0 : opts_.maxRequestBytes, timeout_ms,
                  &request, &err);

    std::string response;
    if (shed) {
        response = overloadedResponse(shed_reason, retryHintMs());
    } else if (read == IoOutcome::kTooLarge) {
        rejectedOversize_.fetch_add(1, std::memory_order_relaxed);
        response = errorResponse(
            "RequestTooLarge",
            "request exceeds serve.maxRequestBytes = " +
                std::to_string(opts_.maxRequestBytes) + " bytes");
    } else if (read == IoOutcome::kTimeout) {
        ioTimeouts_.fetch_add(1, std::memory_order_relaxed);
        response = errorResponse(
            "Timeout", "request not complete within serve.ioTimeoutMs = " +
                           std::to_string(opts_.ioTimeoutMs) + " ms");
    } else if (read == IoOutcome::kError) {
        logWarn("apres_serve: request read failed: ", std::strerror(err));
        response = errorResponse("InternalError",
                                 std::string("request read failed: ") +
                                     std::strerror(err));
    } else {
        try {
            response = handleRequest(request);
        } catch (const SimError& e) {
            response = errorResponse(e.kindName(), e.detail());
        } catch (const std::exception& e) {
            response = errorResponse("InternalError", e.what());
        }
    }

    const IoOutcome wrote = writeAll(fd, response, timeout_ms, &err);
    if (!shed && wrote == IoOutcome::kTimeout) {
        ioTimeouts_.fetch_add(1, std::memory_order_relaxed);
        logWarn("apres_serve: response write timed out; client too "
                "slow or gone");
    } else if (!shed && wrote == IoOutcome::kError) {
        logWarn("apres_serve: client went away mid-response: ",
                std::strerror(err));
    }
    ::close(fd);
    if (!shed)
        requestsServed_.fetch_add(1, std::memory_order_relaxed);
}

ServeLoadStats
ServeDaemon::loadStats() const
{
    ServeLoadStats s;
    s.requestsServed = requestsServed_.load(std::memory_order_relaxed);
    s.shedQueueFull = shedQueueFull_.load(std::memory_order_relaxed);
    s.shedShutdown = shedShutdown_.load(std::memory_order_relaxed);
    s.rejectedOversize =
        rejectedOversize_.load(std::memory_order_relaxed);
    s.ioTimeouts = ioTimeouts_.load(std::memory_order_relaxed);
    s.acceptBackoffs = acceptBackoffs_.load(std::memory_order_relaxed);
    return s;
}

std::string
ServeDaemon::handleRequest(const std::string& request_json)
{
    ServeRequest request;
    try {
        request = parseServeRequest(request_json);
    } catch (const SimError& e) {
        return errorResponse(e.kindName(), e.detail());
    }

    std::ostringstream os;
    JsonWriter json(os);
    switch (request.type) {
      case ServeRequest::Type::kPing:
        json.beginObject();
        json.field("type", "pong");
        json.field("fingerprint", fingerprint_);
        json.endObject();
        json.finish();
        return os.str();

      case ServeRequest::Type::kStats: {
        const ResultCacheStats stats = cache_.stats();
        const ServeLoadStats load = loadStats();
        json.beginObject();
        json.field("type", "stats");
        json.field("fingerprint", fingerprint_);
        json.beginObject("cache");
        json.field("memoryHits", stats.memoryHits);
        json.field("diskHits", stats.diskHits);
        json.field("misses", stats.misses);
        json.field("stores", stats.stores);
        json.field("invalidDiskEntries", stats.invalidDiskEntries);
        json.field("memoryEntries",
                   static_cast<std::uint64_t>(cache_.memoryEntries()));
        json.field("evictions", stats.evictions);
        json.field("evictedBytes", stats.evictedBytes);
        json.field("writeFailures", stats.writeFailures);
        json.field("fsyncFailures", stats.fsyncFailures);
        json.field("renameFailures", stats.renameFailures);
        json.field("scrubOrphanTmps", stats.scrubOrphanTmps);
        json.field("scrubCorruptEntries", stats.scrubCorruptEntries);
        json.field("degradations", stats.degradations);
        json.field("storesSkippedDegraded",
                   stats.storesSkippedDegraded);
        json.field("diskEntries",
                   static_cast<std::uint64_t>(cache_.diskEntries()));
        json.field("diskBytes", cache_.diskBytes());
        json.field("diskMode", cacheDiskModeName(cache_.diskMode()));
        json.field("maxBytes", opts_.cacheMaxBytes);
        json.field("maxEntries", opts_.cacheMaxEntries);
        json.endObject();
        json.beginObject("server");
        json.field("queueDepth",
                   static_cast<std::uint64_t>(
                       std::max(1, opts_.queueDepth)));
        json.field("threads", static_cast<std::uint64_t>(threads_));
        json.field("requestsServed", load.requestsServed);
        json.field("shedQueueFull", load.shedQueueFull);
        json.field("shedShutdown", load.shedShutdown);
        json.field("rejectedOversize", load.rejectedOversize);
        json.field("ioTimeouts", load.ioTimeouts);
        json.field("acceptBackoffs", load.acceptBackoffs);
        json.endObject();
        json.field("simulations", simulationsRun());
        json.endObject();
        json.finish();
        return os.str();
      }

      case ServeRequest::Type::kShutdown:
        stopRequested_.store(true);
        json.beginObject();
        json.field("type", "bye");
        json.endObject();
        json.finish();
        return os.str();

      case ServeRequest::Type::kRun:
        return handleRun(request);
    }
    return errorResponse("InternalError", "unreachable request type");
}

std::string
ServeDaemon::handleRun(const ServeRequest& request)
{
    RunnerOptions runner;
    runner.jobTimeoutSeconds = request.timeoutSeconds;
    const std::vector<CachedRun> runs =
        runCachedBatch(request.jobs, fingerprint_, cache_, runner, &slots_);
    simulations_.fetch_add(
        static_cast<std::uint64_t>(std::count_if(
            runs.begin(), runs.end(),
            [](const CachedRun& run) { return run.simulated(); })),
        std::memory_order_relaxed);

    // Cached payloads are spliced verbatim so repeated requests stay
    // bitwise identical.
    const ResultCacheStats stats = cache_.stats();
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "result");
    json.field("fingerprint", fingerprint_);
    json.beginObject("cache");
    json.field("memoryHits", stats.memoryHits);
    json.field("diskHits", stats.diskHits);
    json.field("misses", stats.misses);
    json.endObject();
    json.field("simulations", simulationsRun());
    json.beginArray("runs");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        json.beginObject();
        json.field("label", request.jobs[i].label);
        if (!runs[i].key.empty())
            json.field("key", runs[i].key);
        json.field("cached", runs[i].cached);
        json.raw("result", runs[i].payload);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

std::string
serveRoundTrip(const std::string& socket_path,
               const std::string& request_json)
{
    const sockaddr_un addr = socketAddress(socket_path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        throwErrno("connect " + socket_path, saved);
    }
    std::string response;
    int err = 0;
    const char* failed = nullptr;
    if (writeAll(fd, request_json, 0, &err) != IoOutcome::kOk) {
        failed = "write";
    } else if (::shutdown(fd, SHUT_WR) != 0) {
        failed = "shutdown";
        err = errno;
    } else if (readToEof(fd, response.max_size(), 0, &response, &err) !=
               IoOutcome::kOk) {
        failed = "read";
    }
    ::close(fd);
    if (failed)
        throwErrno(failed, err);
    return response;
}

namespace {

/** Is @p response a typed overloaded shed? Extracts retryAfterMs. */
bool
isOverloadedResponse(const std::string& response,
                     std::uint64_t* retry_after_ms)
{
    *retry_after_ms = 0;
    try {
        const JsonValue doc = JsonValue::parse(response);
        if (!doc.isObject() ||
            doc.at("type").asString() != "overloaded") {
            return false;
        }
        if (const JsonValue* hint = doc.find("retryAfterMs"))
            *retry_after_ms = hint->asUint64();
        return true;
    } catch (const SimError&) {
        return false;
    }
}

} // namespace

std::string
serveRoundTripWithRetry(const std::string& socket_path,
                        const std::string& request_json, int* attempts_out)
{
    constexpr int kRetries = 8; // after the first attempt
    constexpr std::uint64_t kFirstNapMs = 100; // doubles per retry...
    constexpr std::uint64_t kMaxNapMs = 5000;  // ...up to this
    const std::uint64_t seed =
        static_cast<std::uint64_t>(::getpid()) ^
        static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
    std::minstd_rand rng(
        static_cast<std::uint32_t>(seed ^ (seed >> 32)) | 1u);

    for (int attempt = 0;; ++attempt) {
        if (attempts_out)
            *attempts_out = attempt + 1;
        // A transport failure propagates: no retry reaches a daemon
        // that is not there.
        std::string response = serveRoundTrip(socket_path, request_json);
        std::uint64_t hint_ms = 0;
        // A real answer (result, error, pong, ...), or the last shed.
        if (!isOverloadedResponse(response, &hint_ms) || attempt == kRetries)
            return response;

        // Jittered exponential backoff, floored by the daemon's hint:
        // full-jitter on [delay/2, delay] decorrelates a thundering
        // herd of clients all shed at the same instant.
        const std::uint64_t delay =
            std::min(kFirstNapMs << attempt, kMaxNapMs);
        const std::uint64_t jittered =
            delay / 2 + rng() % (delay / 2 + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max(jittered, hint_ms)));
    }
}

} // namespace apres
