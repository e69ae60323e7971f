/**
 * @file
 * Parallel experiment runner: a thread-pool sweep engine for
 * (GpuConfig, Kernel) job lists.
 *
 * Reproducing the paper's evaluation means running 15 workloads x ~10
 * scheduler/prefetcher configurations per figure; each simulation is
 * independent, so the sweep parallelizes perfectly. The runner hands
 * every job a complete private Gpu instance on a worker thread and
 * collects RunResults in submission order, so a parallel sweep is
 * bit-identical to the sequential one:
 *
 *  - a simulation is a pure function of (GpuConfig, Kernel); kernels
 *    and their address generators are immutable during runs and may be
 *    shared across threads, and a job runs its config exactly as
 *    submitted,
 *  - there is no work stealing and no cross-job state: workers pull
 *    the next job index from one atomic counter and write into their
 *    own result slot.
 *
 * Thread count comes from RunnerOptions::threads, the APRES_BENCH_JOBS
 * environment variable, or std::thread::hardware_concurrency(), in
 * that order of precedence (see defaultJobCount()).
 *
 * The runner is the only code that runs a simulation job. Every front
 * end goes through it: bench_paper, apres_sim and perfbench directly,
 * apres_serve and apres_explore compare through runCachedBatch
 * (serve/batch.hpp), and the explorer's probes as one batch per
 * candidate. Each job runs once, under fault isolation and an optional
 * cooperative deadline; the simulator is deterministic, so re-running
 * a failed job would only repeat its failure.
 */

#ifndef APRES_SIM_RUNNER_HPP
#define APRES_SIM_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/gpu.hpp"

namespace apres {

/**
 * Where a job's GpuConfig::seed comes from. Only one policy is left —
 * the config's own seed, which no statistic depends on — so this enum
 * and RunnerOptions::seedMode survive only because the benchmark
 * harness (perfbench/harness/{paper_suite,layers}.cpp) assigns them.
 * Delete both with the next change to the benchmark.
 */
enum class SeedMode {
    kUseConfigSeed, ///< run job.config untouched
};

/** How a sweep executes. */
struct RunnerOptions
{
    /** Worker threads; <= 0 selects defaultJobCount(). */
    int threads = 0;

    /** Kept for the benchmark harness only; see SeedMode. */
    SeedMode seedMode = SeedMode::kUseConfigSeed;

    /** Emit a progress line to stderr while the sweep runs. */
    bool progress = false;

    /**
     * Per-job wall-clock deadline in seconds ("--job-timeout"); 0
     * disables. Enforced cooperatively through Gpu::setInterruptCheck
     * (polled every ~16K simulated cycles), so an expired job aborts
     * at the next poll, not instantaneously.
     */
    double jobTimeoutSeconds = 0.0;

    /**
     * Fault isolation mode ("--keep-going"). A failed/timed-out job
     * always becomes an error row (RunResult::status/errorKind/
     * errorDetail) instead of tearing down the process. With
     * keepGoing the sweep still runs every remaining job and returns
     * the full result vector; without it the sweep stops picking new
     * jobs and runAll() rethrows the first failure after the workers
     * drain (jobs that never ran are marked "skipped").
     */
    bool keepGoing = false;
};

/** One simulation to run: a config over a (shared, immutable) kernel. */
struct SweepJob
{
    std::string label;                     ///< for reports and progress
    GpuConfig config;                      ///< run exactly as given
    std::shared_ptr<const Kernel> kernel;  ///< must be non-null

    /**
     * Optional driver, called on the worker thread in place of
     * gpu.run(); it returns the run's RunResult (Gpu::finish()). A
     * driver may call gpu.run() and then read the Gpu for statistics
     * RunResult does not carry (per-PC LSU stats, tracer totals), or
     * step it itself (TimelineRecorder::record). It must only touch
     * this job's own state.
     */
    std::function<RunResult(Gpu&)> drive;
};

/** One finished job, in submission order. */
struct SweepResult
{
    std::string label;        ///< copied from the job
    RunResult result;         ///< the simulation's outcome
    double wallSeconds = 0.0; ///< wall-clock time of this job
};

/**
 * Worker-thread count for sweeps: APRES_BENCH_JOBS when it parses as a
 * positive integer (a warning is emitted otherwise), else
 * std::thread::hardware_concurrency(), never less than 1.
 */
int defaultJobCount();

/**
 * The sweep engine. Submit jobs, then runAll() once.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(RunnerOptions options = {});

    /** Enqueue one job. @return its index (== result slot). */
    std::size_t submit(SweepJob job);

    /** Convenience submit without a driver. */
    std::size_t submit(std::string label, const GpuConfig& config,
                       std::shared_ptr<const Kernel> kernel);

    /** Number of submitted jobs. */
    std::size_t size() const { return jobs.size(); }

    /**
     * Run every submitted job and return results in submission order.
     * Blocks until the sweep drains. May be called once.
     *
     * Fault isolation: each job runs under try/catch and (when
     * configured) a wall-clock deadline; see RunnerOptions::keepGoing
     * for how failures propagate.
     */
    std::vector<SweepResult> runAll();

    /** The thread count runAll() will use (after defaulting). */
    int threadCount() const;

  private:
    RunnerOptions opts;
    std::vector<SweepJob> jobs;
    bool ran = false;
};

/**
 * Human-readable summary of the failed rows in @p results, one line
 * per failure; empty when every job ran clean. Drivers print this and
 * exit non-zero under --keep-going.
 */
std::string failureSummary(const std::vector<SweepResult>& results);

} // namespace apres

#endif // APRES_SIM_RUNNER_HPP
