/**
 * @file
 * Sweep runner implementation.
 */

#include "runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace apres {

int
defaultJobCount()
{
    if (const char* env = std::getenv("APRES_BENCH_JOBS")) {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1 &&
            parsed <= 1'000'000) {
            return static_cast<int>(parsed);
        }
        logWarn("ignoring APRES_BENCH_JOBS=\"", env,
                "\" (want a positive integer); using hardware concurrency");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(RunnerOptions options) : opts(options) {}

std::size_t
SweepRunner::submit(SweepJob job)
{
    if (!job.kernel)
        fatal("SweepRunner::submit: job \"" + job.label +
              "\" has no kernel");
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
}

std::size_t
SweepRunner::submit(std::string label, const GpuConfig& config,
                    std::shared_ptr<const Kernel> kernel)
{
    SweepJob job;
    job.label = std::move(label);
    job.config = config;
    job.kernel = std::move(kernel);
    return submit(std::move(job));
}

namespace {

/** Thrown by the interrupt hook when a job's deadline expires. */
struct JobTimeout
{
};

/**
 * Run @p job once into @p slot. Fault isolation: the run sits under
 * try/catch plus an optional cooperative wall-clock deadline, and a
 * failure becomes a machine-readable error row instead of tearing the
 * process down.
 */
void
runJob(const SweepJob& job, double timeout_seconds, SweepResult& slot)
{
    const auto start = std::chrono::steady_clock::now();
    slot.label = job.label;
    RunResult& r = slot.result;
    try {
        // Chaos seam: sleep actions make deterministically slow jobs
        // for overload tests, throw actions exercise the error-row
        // path. One relaxed load when disarmed.
        faultInjectAt("job.execute");
        Gpu gpu(job.config, *job.kernel);
        if (timeout_seconds > 0.0) {
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::duration<double>(timeout_seconds);
            gpu.setInterruptCheck([deadline] {
                if (std::chrono::steady_clock::now() >= deadline)
                    throw JobTimeout{};
            });
        }
        r = job.drive ? job.drive(gpu) : gpu.run();
        r.status = "ok";
    } catch (const JobTimeout&) {
        r = RunResult{};
        r.status = "timeout";
        r.errorKind = "Timeout";
        std::ostringstream msg;
        msg << "job \"" << job.label
            << "\" exceeded the per-job deadline of " << timeout_seconds
            << " s";
        r.errorDetail = msg.str();
    } catch (const SimError& e) {
        r = RunResult{};
        r.status = "error";
        r.errorKind = e.kindName();
        r.errorDetail = e.detail();
    } catch (const std::exception& e) {
        r = RunResult{};
        r.status = "error";
        r.errorKind = "InternalError";
        r.errorDetail = e.what();
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    slot.wallSeconds = wall.count();
}

/** Progress reporting shared by the workers (serialized by a mutex). */
class ProgressLine
{
  public:
    ProgressLine(bool enabled, std::size_t total)
        : on(enabled && total > 0), n(total),
          tty(isatty(fileno(stderr)) != 0),
          stride(n >= 10 ? n / 10 : 1)
    {
    }

    void
    jobDone(const std::string& label)
    {
        if (!on)
            return;
        const std::lock_guard<std::mutex> lock(mu);
        ++done;
        // On a terminal: rewrite one line per completion. Elsewhere
        // (CI logs, redirects): one line every ~10% to bound output.
        if (tty) {
            std::fprintf(stderr, "\r[apres-sweep] %zu/%zu done (%s)\033[K",
                         done, n, label.c_str());
            if (done == n)
                std::fputc('\n', stderr);
            std::fflush(stderr);
        } else if (done == n || done % stride == 0) {
            std::fprintf(stderr, "[apres-sweep] %zu/%zu done\n", done, n);
        }
    }

  private:
    const bool on;
    const std::size_t n;
    const bool tty;
    const std::size_t stride;
    std::mutex mu;
    std::size_t done = 0;
};

} // namespace

std::vector<SweepResult>
SweepRunner::runAll()
{
    if (ran)
        fatal("SweepRunner::runAll may only be called once");
    ran = true;

    std::vector<SweepResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const int want = opts.threads > 0 ? opts.threads : defaultJobCount();
    const std::size_t workers = std::min<std::size_t>(
        static_cast<std::size_t>(want), jobs.size());

    ProgressLine progress(opts.progress, jobs.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < jobs.size(); i = next++) {
            runJob(jobs[i], opts.jobTimeoutSeconds, results[i]);
            progress.jobDone(results[i].label);
        }
    };

    if (workers <= 1) {
        work(); // run inline: exact same code path, no thread overhead
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t)
            pool.emplace_back(work);
        for (std::thread& t : pool)
            t.join();
    }
    return results;
}

std::string
failureSummary(const std::vector<SweepResult>& results)
{
    std::ostringstream out;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepResult& r = results[i];
        if (r.result.status == "ok")
            continue;
        ++failed;
        out << "  job " << i << " [" << r.label
            << "]: " << r.result.status;
        if (!r.result.errorKind.empty())
            out << " (" << r.result.errorKind << ")";
        if (!r.result.errorDetail.empty()) {
            // First line only: invariant dumps run long.
            const std::string& d = r.result.errorDetail;
            out << ": " << d.substr(0, d.find('\n'));
        }
        out << "\n";
    }
    if (failed == 0)
        return "";
    return std::to_string(failed) + " of " + std::to_string(results.size()) +
        " sweep job(s) did not complete:\n" + out.str();
}

} // namespace apres
