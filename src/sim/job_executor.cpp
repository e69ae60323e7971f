/**
 * @file
 * Job-execution core implementation.
 */

#include "job_executor.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace {

/** Thrown by the interrupt hook when a job's deadline expires. */
struct JobTimeout
{
};

} // namespace

JobExecutor::JobExecutor(JobExecutionPolicy policy) : policy_(policy) {}

JobOutcome
JobExecutor::execute(const SweepJob& job) const
{
    if (!job.kernel)
        fatal("JobExecutor::execute: job \"" + job.label +
              "\" has no kernel");

    JobOutcome outcome;
    const int attempts = 1 + std::max(0, policy_.retries);
    const auto job_start = std::chrono::steady_clock::now();

    // Fault isolation: every attempt (same config) runs under try/catch
    // plus an optional cooperative wall-clock deadline. A failure
    // becomes a machine-readable error row instead of tearing the
    // process down.
    for (int attempt = 0; attempt < attempts; ++attempt) {
        outcome.failure = nullptr;
        RunResult r;
        try {
            // Chaos seam: sleep actions make deterministically slow
            // jobs for overload tests, throw actions exercise the
            // error-row path. One relaxed load when disarmed.
            faultInjectAt("job.execute");
            executions_.fetch_add(1, std::memory_order_relaxed);
            Gpu gpu(job.config, *job.kernel);
            if (policy_.timeoutSeconds > 0.0) {
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(policy_.timeoutSeconds);
                gpu.setInterruptCheck([deadline] {
                    if (std::chrono::steady_clock::now() >= deadline)
                        throw JobTimeout{};
                });
            }
            r = gpu.run();
            if (job.inspect)
                job.inspect(gpu, r);
            r.status = "ok";
        } catch (const JobTimeout&) {
            r = RunResult{};
            r.status = "timeout";
            r.errorKind = "Timeout";
            {
                std::ostringstream msg;
                msg << "job \"" << job.label
                    << "\" exceeded the per-job deadline of "
                    << policy_.timeoutSeconds << " s (attempt "
                    << attempt + 1 << "/" << attempts << ")";
                r.errorDetail = msg.str();
            }
            outcome.failure = std::make_exception_ptr(
                SimError(SimErrorKind::kDeadlock, r.errorDetail));
        } catch (const SimError& e) {
            r = RunResult{};
            r.status = "error";
            r.errorKind = e.kindName();
            r.errorDetail = e.detail();
            outcome.failure = std::make_exception_ptr(e);
        } catch (const std::exception& e) {
            r = RunResult{};
            r.status = "error";
            r.errorKind = "InternalError";
            r.errorDetail = e.what();
            outcome.failure = std::make_exception_ptr(
                std::runtime_error(r.errorDetail));
        }
        outcome.result = std::move(r);
        if (!outcome.failure)
            break;
        if (attempt + 1 < attempts) {
            logWarn("sweep job \"", job.label, "\" failed (",
                    outcome.result.errorKind, "); retrying (attempt ",
                    attempt + 2, "/", attempts, ")");
        }
    }

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - job_start;
    outcome.wallSeconds = wall.count();
    return outcome;
}

} // namespace apres
