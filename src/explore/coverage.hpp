/**
 * @file
 * Behavioral coverage: turning one finished run into a set of
 * discrete "bins" and accumulating them across a campaign.
 *
 * A bin names one observable regime of the simulated machine — "the
 * SAP stride detector mismatched ~2^6 times under the tiny-L1 probe",
 * "the load-to-use histogram's 4th bucket is populated", "LAWS
 * demoted groups at all". The taxonomy (DESIGN.md §17) is built from
 * observation surfaces that already exist:
 *
 *  - policy counters (laws.*, sap.*, ccws.*, ...) and the structural
 *    L1/LSU/prefetch counters, binned by power-of-two magnitude —
 *    the regime matters (did MSHRs saturate once or constantly?),
 *    the exact count does not;
 *  - metrics.* histogram buckets (sim.metrics), binned by occupancy;
 *  - miss-rate-style ratios, binned by decile;
 *  - tracer event-type totals (folded into RunResult::policy as
 *    "trace.<event>" by the explorer's job driver), binned by
 *    magnitude — these light up paths like SAP WQ drains that no
 *    aggregate statistic exposes;
 *  - run status (completed, error kind).
 *
 * Every bin is prefixed with the probe label that produced it, so the
 * same kernel behaving differently under two machine shapes counts as
 * distinct coverage. Bins are plain strings: the map serializes to
 * JSON for reports, diffs cleanly in CI, and needs no registry.
 */

#ifndef APRES_EXPLORE_COVERAGE_HPP
#define APRES_EXPLORE_COVERAGE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/gpu.hpp"

namespace apres {

class JsonWriter;

/**
 * The bins @p result lights up, each prefixed "<probe>/". Sorted and
 * deduplicated; pure function of its inputs.
 */
std::vector<std::string> coverageBins(const std::string& probe,
                                      const RunResult& result);

/** Accumulated campaign coverage: bin -> times lit. */
class CoverageMap
{
  public:
    /**
     * Fold @p bins in. @return the bins that were not covered before
     * this call (the candidate's novelty), in sorted order.
     */
    std::vector<std::string> add(const std::vector<std::string>& bins);

    /** True when @p bin has been lit at least once. */
    bool covers(const std::string& bin) const;

    /** Times @p bin has been lit (0 = never). */
    std::uint64_t timesLit(const std::string& bin) const;

    /** Distinct bins lit so far. */
    std::size_t size() const { return bins_.size(); }

    const std::map<std::string, std::uint64_t>& bins() const
    {
        return bins_;
    }

    /**
     * Rarity score of a bin set: sum of 1/timesLit over its covered
     * bins. Kernels holding rare bins score high and make better
     * mutation parents.
     */
    double rarity(const std::vector<std::string>& bins) const;

    /** Emit {"total": N, "bins": [{"name","count"}...]} (sorted). */
    void writeJson(JsonWriter& json) const;

  private:
    std::map<std::string, std::uint64_t> bins_;
};

} // namespace apres

#endif // APRES_EXPLORE_COVERAGE_HPP
