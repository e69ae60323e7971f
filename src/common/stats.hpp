/**
 * @file
 * Lightweight statistics containers.
 *
 * Hot paths keep plain integer counters inside module-local stat
 * structs; this header provides the aggregation side: a running
 * mean/min/max accumulator and a named key/value set used when a
 * simulation run is reported or compared.
 */

#ifndef APRES_COMMON_STATS_HPP
#define APRES_COMMON_STATS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace apres {

/**
 * Incremental mean/min/max accumulator (no sample storage).
 *
 * Used for request latency tracking: millions of samples, only the
 * aggregate moments are reported.
 */
class RunningStat
{
  public:
    /** Record one sample. */
    void
    add(double x)
    {
        if (n == 0 || x < lo)
            lo = x;
        if (n == 0 || x > hi)
            hi = x;
        ++n;
        total += x;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }

    /** Mean of all samples; 0 when empty. */
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }

    /** Smallest sample; 0 when empty. */
    double min() const { return n ? lo : 0.0; }

    /** Largest sample; 0 when empty. */
    double max() const { return n ? hi : 0.0; }

    /** Sum of all samples. */
    double sum() const { return total; }

    /** Forget all samples. */
    void
    reset()
    {
        n = 0;
        total = 0.0;
        lo = 0.0;
        hi = 0.0;
    }

  private:
    std::uint64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Named scalar statistics, used to report and diff simulation runs.
 *
 * Keys are dotted paths ("l1.missRate", "sm0.ipc"). Insertion order is
 * not preserved; dumps are sorted for stable diffs.
 */
class StatSet
{
  public:
    /** Set (or overwrite) a named value. */
    void set(const std::string& name, double value);

    /** Add @p value to a named value (creating it at 0). */
    void accumulate(const std::string& name, double value);

    /** Fetch a value; @p fallback when absent. */
    double get(const std::string& name, double fallback = 0.0) const;

    /** True when the stat exists. */
    bool has(const std::string& name) const;

    /** Merge another set, summing overlapping keys. */
    void mergeSum(const StatSet& other);

    /** All entries, sorted by key. */
    const std::map<std::string, double>& entries() const { return values; }

    /** Human-readable sorted dump, one "key = value" per line. */
    void dump(std::ostream& os) const;

  private:
    std::map<std::string, double> values;
};

/** Safe ratio: returns 0 when the denominator is 0. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace apres

#endif // APRES_COMMON_STATS_HPP
