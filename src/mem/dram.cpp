/**
 * @file
 * DRAM partition implementation.
 */

#include "dram.hpp"

#include <cassert>

namespace apres {

DramPartition::DramPartition(const DramConfig& config) : cfg(config)
{
    assert(cfg.serviceInterval >= 1);
    if (cfg.rowBufferModel) {
        assert(cfg.numBanks >= 1);
        assert(cfg.rowBytes >= 128);
        openRow.assign(static_cast<std::size_t>(cfg.numBanks), 0);
    }
}

Cycle
DramPartition::serviceCost(Addr line_addr)
{
    if (!cfg.rowBufferModel)
        return cfg.serviceInterval;

    // Rows interleave across banks: consecutive rows land in
    // consecutive banks, so streams exploit bank-level parallelism.
    const std::uint64_t global_row = line_addr / cfg.rowBytes;
    const auto bank = static_cast<std::size_t>(
        global_row % static_cast<std::uint64_t>(cfg.numBanks));
    const std::uint64_t row_tag = global_row + 1; // 0 = closed

    if (openRow[bank] == row_tag) {
        ++stats_.rowHits;
        return cfg.rowHitInterval;
    }
    ++stats_.rowMisses;
    openRow[bank] = row_tag;
    return cfg.rowMissInterval;
}

Cycle
DramPartition::schedule(Cycle now, Addr line_addr)
{
    const Cycle start = now > nextFree ? now : nextFree;
    nextFree = start + serviceCost(line_addr);
    ++stats_.requests;
    stats_.totalQueueDelay += start - now;
    return start + cfg.baseLatency;
}

} // namespace apres
