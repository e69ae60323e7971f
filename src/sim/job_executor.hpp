/**
 * @file
 * Pure job-execution core shared by every simulation frontend.
 *
 * A "job" is one simulation: a GpuConfig over an immutable Kernel.
 * JobExecutor::execute runs exactly one job — with fault isolation,
 * an optional cooperative wall-clock deadline and identical retries —
 * and reports the outcome as data (a RunResult row plus the failure,
 * if any). It never touches threads, queues or process state, so the
 * same core backs the CLI sweep runner (runner.hpp), the apres_serve
 * daemon's worker pool, and unit tests driving single jobs.
 *
 * Determinism contract: execute() runs job.config exactly as given.
 * A job is a pure function of (config, kernel), which is what makes
 * memoizing results in a content-addressed cache sound.
 */

#ifndef APRES_SIM_JOB_EXECUTOR_HPP
#define APRES_SIM_JOB_EXECUTOR_HPP

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "sim/gpu.hpp"

namespace apres {

/** One simulation to run: a config over a (shared, immutable) kernel. */
struct SweepJob
{
    std::string label;                     ///< for reports and progress
    GpuConfig config;                      ///< run exactly as given
    std::shared_ptr<const Kernel> kernel;  ///< must be non-null

    /**
     * Optional post-run hook, called on the worker thread with the
     * finished Gpu before it is destroyed. Lets drivers harvest
     * statistics RunResult does not carry (per-PC LSU stats, DRAM row
     * hits) without serializing the sweep. The hook must only touch
     * this job's own state.
     */
    std::function<void(const Gpu&, RunResult&)> inspect;
};

/** Failure handling applied to every job an executor runs. */
struct JobExecutionPolicy
{
    /**
     * Re-run attempts after a failed or timed-out job. Every attempt
     * runs the same config, so a retry only helps against environmental
     * flakes — a deterministic failure fails all attempts identically,
     * which is itself diagnostic.
     */
    int retries = 0;

    /**
     * Per-job wall-clock deadline in seconds; 0 disables. Enforced
     * cooperatively through Gpu::setInterruptCheck (polled every ~16K
     * simulated cycles), so an expired job aborts at the next poll,
     * not instantaneously.
     */
    double timeoutSeconds = 0.0;
};

/** Everything one execution produced. */
struct JobOutcome
{
    /**
     * The job's result row. Always populated: a failed job carries
     * status "error"/"timeout" plus errorKind/errorDetail instead of
     * statistics, so batch reports stay complete and self-describing.
     */
    RunResult result;

    /** Wall-clock seconds across all attempts. */
    double wallSeconds = 0.0;

    /** The final attempt's failure; null when the job succeeded. */
    std::exception_ptr failure;

    bool ok() const { return failure == nullptr; }
};

/**
 * Executes jobs one at a time under a fixed policy. Stateless apart
 * from an execution counter; safe to share across threads.
 */
class JobExecutor
{
  public:
    explicit JobExecutor(JobExecutionPolicy policy = {});

    /**
     * Run @p job. Exceptions from the simulation become the outcome's
     * failure — execute() itself only throws on driver misuse (null
     * kernel).
     */
    JobOutcome execute(const SweepJob& job) const;

    /**
     * Simulations actually started (attempts, not jobs), across all
     * threads. The service's cache tests assert this stays flat on a
     * fully warm batch — cache hits must mean zero re-simulation.
     */
    std::uint64_t executions() const
    {
        return executions_.load(std::memory_order_relaxed);
    }

    const JobExecutionPolicy& policy() const { return policy_; }

  private:
    JobExecutionPolicy policy_;
    mutable std::atomic<std::uint64_t> executions_{0};
};

} // namespace apres

#endif // APRES_SIM_JOB_EXECUTOR_HPP
