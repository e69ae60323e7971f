/**
 * @file
 * Opt-in metrics: fixed-bucket histograms with explicit
 * underflow/overflow bins.
 *
 * Where the tracer (trace.hpp) answers "what happened, in order", the
 * metrics registry answers "how is it distributed": load-to-use
 * latency, MSHR occupancy at access time, WGT group lifetime, and
 * prefetch timeliness (issue-to-demand-arrival distance). Components
 * sample through a nullable MetricsRegistry pointer, so when metrics
 * are off (the default) every site is a single null test and nothing
 * is allocated.
 *
 * The registry folds into RunResult::policy under a "metrics." key
 * prefix, which flows through toStatSet(), --json and --csv like any
 * other stat. Sampling is pure observation: enabling metrics changes
 * no simulation outcome (tests/ff_equivalence_test.cpp pins this).
 *
 * MetricsHistogram is integer-valued with a distinct underflow bin,
 * and its bucket arithmetic is exact at the edges of the uint64 range.
 */

#ifndef APRES_COMMON_METRICS_HPP
#define APRES_COMMON_METRICS_HPP

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace apres {

/**
 * Fixed-bucket histogram over uint64 samples.
 *
 * Regular bucket i covers [lo + i*width, lo + (i+1)*width); samples
 * below @p lo land in the underflow bin, samples at or past the last
 * regular bucket in the overflow bin. Index arithmetic subtracts @p lo
 * before dividing, so a sample of UINT64_MAX classifies correctly
 * instead of wrapping.
 */
class MetricsHistogram
{
  public:
    /**
     * @param name        reporting key stem ("loadToUse", ...)
     * @param lo          lower bound of the first regular bucket
     * @param width       width of each regular bucket (> 0)
     * @param num_buckets number of regular buckets (> 0)
     */
    MetricsHistogram(std::string name, std::uint64_t lo,
                     std::uint64_t width, std::size_t num_buckets)
        : name_(std::move(name)), lo_(lo), width_(width),
          buckets_(num_buckets, 0)
    {
        assert(width > 0);
        assert(num_buckets > 0);
    }

    /** Record one sample. */
    void
    add(std::uint64_t x)
    {
        ++count_;
        sum_ += static_cast<double>(x);
        if (x < lo_) {
            ++underflow_;
            return;
        }
        const std::uint64_t idx = (x - lo_) / width_;
        if (idx >= buckets_.size())
            ++overflow_;
        else
            ++buckets_[static_cast<std::size_t>(idx)];
    }

    const std::string& name() const { return name_; }

    /** Total samples (all bins). */
    std::uint64_t count() const { return count_; }

    /** Sum of all samples (double: may lose ulps, never wraps). */
    double sum() const { return sum_; }

    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Regular (non-under/overflow) bucket count. */
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Samples in regular bucket @p i. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return buckets_.at(i);
    }

    /** Inclusive lower bound of regular bucket @p i. */
    std::uint64_t bucketLo(std::size_t i) const
    {
        return lo_ + static_cast<std::uint64_t>(i) * width_;
    }

    /** Accumulate @p other (must have the identical shape). */
    void
    merge(const MetricsHistogram& other)
    {
        assert(other.lo_ == lo_ && other.width_ == width_ &&
               other.buckets_.size() == buckets_.size());
        count_ += other.count_;
        sum_ += other.sum_;
        underflow_ += other.underflow_;
        overflow_ += other.overflow_;
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
    }

    /**
     * Fold into @p out as "<prefix><name>.count|sum|underflow|b<i>|
     * overflow" keys.
     */
    void
    report(StatSet& out, const std::string& prefix) const
    {
        const std::string stem = prefix + name_;
        out.set(stem + ".count", static_cast<double>(count_));
        out.set(stem + ".sum", sum_);
        out.set(stem + ".underflow", static_cast<double>(underflow_));
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            out.set(stem + ".b" + std::to_string(i),
                    static_cast<double>(buckets_[i]));
        }
        out.set(stem + ".overflow", static_cast<double>(overflow_));
    }

  private:
    std::string name_;
    std::uint64_t lo_;
    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

/**
 * The set of histograms one simulation (or one SM, in tests that
 * merge) accumulates. Histogram members are public so sampling sites
 * write `m->loadToUse.add(x)` directly.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry()
        : loadToUse("loadToUse", 0, 32, 24),
          mshrOccupancy("mshrOccupancy", 0, 4, 16),
          wgtGroupLifetime("wgtGroupLifetime", 0, 64, 16),
          prefetchTimeliness("prefetchTimeliness", 0, 64, 16)
    {
    }

    /// Cycles from LSU accept to last-line completion of a load.
    MetricsHistogram loadToUse;
    /// Allocated L1 MSHR entries observed at each demand access.
    MetricsHistogram mshrOccupancy;
    /// Cycles a WGT group lived before its outcome-driven move.
    MetricsHistogram wgtGroupLifetime;
    /// Cycles between prefetch issue and first demand hit on the line.
    MetricsHistogram prefetchTimeliness;

    /** Accumulate @p other's histograms. */
    void
    merge(const MetricsRegistry& other)
    {
        loadToUse.merge(other.loadToUse);
        mshrOccupancy.merge(other.mshrOccupancy);
        wgtGroupLifetime.merge(other.wgtGroupLifetime);
        prefetchTimeliness.merge(other.prefetchTimeliness);
    }

    /** Fold every histogram into @p out as "metrics.<name>.*" keys. */
    void
    report(StatSet& out) const
    {
        loadToUse.report(out, "metrics.");
        mshrOccupancy.report(out, "metrics.");
        wgtGroupLifetime.report(out, "metrics.");
        prefetchTimeliness.report(out, "metrics.");
    }
};

} // namespace apres

#endif // APRES_COMMON_METRICS_HPP
