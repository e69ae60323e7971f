/**
 * @file
 * SLD implementation.
 */

#include "sld.hpp"

#include <bit>
#include <cassert>

namespace apres {

SldPrefetcher::SldPrefetcher(const SldConfig& config, std::uint32_t line_size)
    : cfg(config), lineSize(line_size)
{
    assert(cfg.linesPerBlock >= 2);
    assert(cfg.linesPerBlock <= 32); // width of Entry::accessedMask
    assert(cfg.tableEntries >= 1);
    table.resize(static_cast<std::size_t>(cfg.tableEntries));
}

SldPrefetcher::Entry&
SldPrefetcher::lookup(Addr block_addr)
{
    Entry* victim = &table[0];
    for (Entry& entry : table) {
        if (entry.valid && entry.blockAddr == block_addr)
            return entry;
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.lastUse < victim->lastUse) {
            victim = &entry;
        }
    }
    *victim = Entry{};
    victim->valid = true;
    victim->blockAddr = block_addr;
    return *victim;
}

void
SldPrefetcher::onAccess(const LoadAccessInfo& info, PrefetchIssuer& issuer)
{
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(cfg.linesPerBlock) * lineSize;
    const Addr block = info.baseLineAddr / block_bytes * block_bytes;
    const auto line_in_block = static_cast<std::uint32_t>(
        (info.baseLineAddr - block) / lineSize);

    Entry& entry = lookup(block);
    entry.lastUse = ++useClock;
    entry.accessedMask |= 1u << line_in_block;

    if (entry.fired || std::popcount(entry.accessedMask) < 2)
        return;
    entry.fired = true;
    for (int l = 0; l < cfg.linesPerBlock; ++l) {
        if (entry.accessedMask & (1u << l))
            continue;
        issuer.issuePrefetch(block + static_cast<Addr>(l) * lineSize,
                             info.pc, info.warp);
    }
}

} // namespace apres
