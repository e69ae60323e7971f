/**
 * @file
 * WarpOrder: a warp priority order with constant-time rank lookup.
 */

#ifndef APRES_CORE_WARP_ORDER_HPP
#define APRES_CORE_WARP_ORDER_HPP

#include <cassert>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "common/warp_mask.hpp"

namespace apres {

/**
 * A scheduler's warp priority order, kept between picks.
 *
 * Schedulers that issue the highest-priority ready warp (the LAWS
 * queue, the CCWS age order) update the order only at the events that
 * change it instead of rebuilding it on every pick. The order is a
 * vector of warp IDs, head first, plus each warp's rank: its position
 * in the vector, or kNotQueued. Picking is one pass over the ready
 * list; a reorder is one stable partition into a reused scratch vector
 * and a rank refresh, O(warps) with no allocation.
 *
 * Invariant (re-derived by the invariant auditor): every queued warp
 * appears once and rank(warps()[p]) == p; every other warp in
 * [0, numWarps) has rank kNotQueued.
 */
class WarpOrder
{
  public:
    static constexpr int kNotQueued = std::numeric_limits<int>::max();

    /** Empty order over warps [0, @p num_warps). */
    void
    reset(int num_warps)
    {
        const auto n = static_cast<std::size_t>(num_warps);
        order_.clear();
        order_.reserve(n);
        scratch_.clear();
        scratch_.reserve(n);
        rank_.assign(n, kNotQueued);
    }

    /** Queued warps, head first. */
    const std::vector<WarpId>& warps() const { return order_; }

    /** Position of @p warp, or kNotQueued (also for out-of-range IDs). */
    int
    rank(WarpId warp) const
    {
        return warp >= 0 && static_cast<std::size_t>(warp) < rank_.size()
            ? rank_[static_cast<std::size_t>(warp)]
            : kNotQueued;
    }

    /** Append @p warp at the tail, first removing it if queued. */
    void
    pushBack(WarpId warp)
    {
        assert(warp >= 0 && static_cast<std::size_t>(warp) < rank_.size());
        remove(warp);
        rank_[static_cast<std::size_t>(warp)] =
            static_cast<int>(order_.size());
        order_.push_back(warp);
    }

    /** Remove @p warp (no-op when it is not queued). */
    void
    remove(WarpId warp)
    {
        const int r = rank(warp);
        if (r == kNotQueued)
            return;
        order_.erase(order_.begin() + r);
        rank_[static_cast<std::size_t>(warp)] = kNotQueued;
        rerank(static_cast<std::size_t>(r));
    }

    /**
     * The lowest-ranked warp of @p ready whose rank is below
     * @p limit, or kInvalidWarp when there is none.
     */
    WarpId
    first(const std::vector<WarpId>& ready, int limit = kNotQueued) const
    {
        WarpId best = kInvalidWarp;
        int best_rank = limit;
        for (const WarpId w : ready) {
            const int r = rank(w);
            if (r < best_rank) {
                best_rank = r;
                best = w;
            }
        }
        return best;
    }

    /**
     * Move the queued warps of @p members to the head, keeping their
     * relative order and that of the rest. Returns how many moved.
     */
    int moveToHead(const WarpMask& members) { return move(members, true); }

    /** Like moveToHead(), to the tail. */
    int moveToTail(const WarpMask& members) { return move(members, false); }

  private:
    int
    move(const WarpMask& members, bool to_head)
    {
        std::size_t moved = 0;
        members.forEachSet([&](WarpId w) {
            if (rank(w) != kNotQueued)
                ++moved;
        });
        if (moved == 0)
            return 0;
        scratch_.resize(order_.size());
        std::size_t member = to_head ? 0 : order_.size() - moved;
        std::size_t other = to_head ? moved : 0;
        for (const WarpId w : order_) {
            if (members.test(w))
                scratch_[member++] = w;
            else
                scratch_[other++] = w;
        }
        order_.swap(scratch_);
        rerank(0);
        return static_cast<int>(moved);
    }

    void
    rerank(std::size_t from)
    {
        for (std::size_t p = from; p < order_.size(); ++p)
            rank_[static_cast<std::size_t>(order_[p])] = static_cast<int>(p);
    }

    std::vector<WarpId> order_;
    std::vector<int> rank_;
    std::vector<WarpId> scratch_;
};

} // namespace apres

#endif // APRES_CORE_WARP_ORDER_HPP
