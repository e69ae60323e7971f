/**
 * @file
 * DRAM partition timing model.
 *
 * Each of the six memory partitions (Table III) is modelled as a fixed
 * access latency plus a service-rate channel: one 128 B transfer can
 * start every @ref DramConfig::serviceInterval core cycles, so
 * requests arriving faster than the channel drains accumulate queueing
 * delay — the effect Section I attributes to limited bandwidth.
 *
 * An optional bank/row-buffer extension (off by default, so the
 * paper-shaped flat model stays the reference) charges a shorter
 * service interval when a request hits the open row of its bank and a
 * longer one on a row conflict — the first-order effect of FR-FCFS
 * scheduling on GDDR5: sequential (prefetch-friendly) streams see more
 * bandwidth than scattered ones.
 */

#ifndef APRES_MEM_DRAM_HPP
#define APRES_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace apres {

/** Timing parameters of one DRAM partition. */
struct DramConfig
{
    /** Minimum request-to-data latency in core cycles (Table III). */
    Cycle baseLatency = 440;

    /**
     * Core cycles between consecutive line transfers on one partition
     * (flat model). Default 6 approximates ~21 B/core-cycle/partition
     * of GDDR5 bandwidth at the 1.4 GHz core clock.
     */
    Cycle serviceInterval = 6;

    /** Enable the bank/row-buffer timing extension. */
    bool rowBufferModel = false;

    /** Banks per partition (row-buffer model). */
    int numBanks = 8;

    /** Row size in bytes (row-buffer model). */
    std::uint32_t rowBytes = 2048;

    /** Service interval on an open-row hit. */
    Cycle rowHitInterval = 3;

    /** Service interval on a row miss/conflict (activate+precharge). */
    Cycle rowMissInterval = 12;
};

/** Counters of one DRAM partition. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t totalQueueDelay = 0; ///< cycles spent waiting for the channel
    std::uint64_t rowHits = 0;         ///< row-buffer model only
    std::uint64_t rowMisses = 0;       ///< row-buffer model only

    double
    avgQueueDelay() const
    {
        return requests ? static_cast<double>(totalQueueDelay) /
                              static_cast<double>(requests)
                        : 0.0;
    }

    /** Fraction of requests hitting an open row. */
    double
    rowHitRate() const
    {
        const std::uint64_t total = rowHits + rowMisses;
        return total ? static_cast<double>(rowHits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * One DRAM partition: bandwidth-limited, fixed-latency channel with an
 * optional bank/row-buffer service model.
 */
class DramPartition
{
  public:
    explicit DramPartition(const DramConfig& config);

    /**
     * Schedule a line transfer requested at @p now.
     *
     * @param now       request arrival cycle
     * @param line_addr line address (used by the row-buffer model;
     *                  ignored by the flat model)
     * @return cycle at which the data is available at the L2 partition
     */
    Cycle schedule(Cycle now, Addr line_addr = 0);

    /** Counters. */
    const DramStats& stats() const { return stats_; }

  private:
    Cycle serviceCost(Addr line_addr);

    DramConfig cfg;
    Cycle nextFree = 0;
    std::vector<std::uint64_t> openRow; ///< per-bank open row (+1; 0=none)
    DramStats stats_;
};

} // namespace apres

#endif // APRES_MEM_DRAM_HPP
