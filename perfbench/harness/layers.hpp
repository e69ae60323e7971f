/**
 * @file
 * What every workload of the benchmark shares: the run options and
 * outcome, the in-memory span log of the traced run, the catalogue of
 * per-layer metrics, the deterministic count aggregate, and the layer
 * probe that times the benchmark's own calls into each module.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "serve/protocol.hpp"
#include "sim/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** The command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBinary; ///< apres_serve, for serve-mixed
    std::string spanFile;    ///< where the traced run writes its spans
};

/** A measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** Everything one run produced. */
struct Outcome
{
    std::uint64_t attempted = 0; ///< simulations or requests
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the report
    MetricMap endToEnd;                ///< untraced run
    MetricMap layers;                  ///< traced run
    MetricMap report; ///< the issue-named figures this workload has
    std::vector<std::string> notes;

    /** Count one failed operation and remember why. */
    void fail(const std::string& why);

    /** Count one operation; fails it with @p why unless @p ok. */
    void check(bool ok, const std::string& why);
};

/**
 * In-memory spans (name, parent, start, end) of the traced run. A
 * disabled log records nothing. Thread-safe.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; @return its id (-1 when disabled). */
    int begin(const std::string& name, int parent = -1);

    /** Close span @p id (no-op for -1). */
    void end(int id);

    /** Host seconds of every closed span called @p name. */
    std::vector<double> durations(const std::string& name) const;

    /** Chrome trace_event JSON of every span. */
    void write(std::ostream& os) const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
        bool closed = false;
    };

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(SpanLog& log, const std::string& name, int parent = -1)
        : log_(log), id_(log.begin(name, parent))
    {
    }
    ~SpanScope() { log_.end(id_); }
    int id() const { return id_; }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    SpanLog& log_;
    int id_;
};

/** Every per-layer metric (name, unit), in report order. */
const std::vector<std::pair<std::string, std::string>>& layerCatalogue();

/**
 * Add every catalogue metric missing from @p layers as 0: a layer the
 * workload does not exercise.
 */
void fillUnexercisedLayers(MetricMap& layers);

/**
 * Sums of the deterministic core, memory and policy counts over the
 * StatSets of one workload's simulations.
 */
class CountAggregate
{
  public:
    void add(const apres::StatSet& stats, int num_sms);
    void emit(MetricMap& layers) const;

  private:
    apres::StatSet sum_;
    double smCycles_ = 0.0;
    double runs_ = 0.0;
};

/** GpuConfig of a serve job spec, built as the daemon builds it. */
apres::GpuConfig configOf(const apres::ServeJobSpec& spec);

/** A one-job serve "run" request for @p spec. */
std::string runRequest(const apres::ServeJobSpec& spec);

/** What the layer probe learned about one job. */
struct ProbedJob
{
    std::string digest;  ///< statDigest of its StatSet
    std::string payload; ///< serializeRunResult
};

/**
 * Time the benchmark's own calls into each module on @p jobs:
 * makeWorkload, parseServeRequest, computeCacheKey, Gpu::Gpu,
 * Gpu::run (ff and sim.shards=4), RunResult::toStatSet,
 * serializeRunResult and ResultCache::store/lookup (a cache in
 * @p cache_dir capped below the job count, so stores evict). Fills
 * the workloads.*, sim.* and serve.* host-time layers. With
 * @p with_sweep the jobs also run as one SweepRunner batch to fill
 * sweep.*. Every check counts in @p out.
 */
std::vector<ProbedJob> probeLayers(
    const std::vector<apres::ServeJobSpec>& jobs,
    const std::string& cache_dir, bool with_sweep, SpanLog& spans,
    Outcome& out);

/** Per-batch sweep.* figures from job wall times and the batch wall. */
void addSweepLayers(const std::vector<std::vector<double>>& job_walls,
                    const std::vector<double>& batch_walls, int workers,
                    std::uint64_t failed_jobs, MetricMap& layers);

/** Peak resident set (VmHWM) of process @p pid (0 = self), in MB. */
double peakRssMb(int pid = 0);

/** Worker threads for batches: the CPUs this process may run on. */
int hostThreads();

/** The sharded engine's fixed shard count in every workload. */
inline constexpr int kShards = 4;

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
