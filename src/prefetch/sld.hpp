/**
 * @file
 * SLD: Spatial Locality Detection based prefetching (Section III-C;
 * after Jog et al., ISCA 2013).
 *
 * Memory is viewed as macro blocks of four consecutive cache lines.
 * When two distinct lines of a macro block have been demanded, the
 * remaining two lines are prefetched. As the paper observes, this only
 * pays off when the access stride is under two cache lines (256 B
 * with 128 B lines) — larger strides never co-touch a macro block, so
 * SLD stays silent or mispredicts.
 */

#ifndef APRES_PREFETCH_SLD_HPP
#define APRES_PREFETCH_SLD_HPP

#include <cstdint>
#include <vector>

#include "core/prefetcher.hpp"

namespace apres {

/** SLD tuning knobs. */
struct SldConfig
{
    int linesPerBlock = 4; ///< macro block size in cache lines
    int tableEntries = 64; ///< tracked macro blocks
};

/**
 * Macro-block spatial prefetcher.
 */
class SldPrefetcher final : public Prefetcher
{
  public:
    /** @param line_size the L1's line size: blocks are cut in its lines */
    SldPrefetcher(const SldConfig& config, std::uint32_t line_size);

    void onAccess(const LoadAccessInfo& info, PrefetchIssuer& issuer) override;

    const char* name() const override { return "SLD"; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr blockAddr = kInvalidAddr;
        std::uint32_t accessedMask = 0;
        bool fired = false;
        std::uint64_t lastUse = 0;
    };

    Entry& lookup(Addr block_addr);

    SldConfig cfg;
    std::uint32_t lineSize;
    std::vector<Entry> table;
    std::uint64_t useClock = 0;
};

} // namespace apres

#endif // APRES_PREFETCH_SLD_HPP
