/**
 * @file
 * Hot-path containers for the LSU's per-cycle bookkeeping.
 *
 * Both structures exploit an invariant of the simulation loop that the
 * general-purpose containers they replace cannot:
 *
 *  - TokenSlab: outstanding-load tracks are keyed by an opaque token
 *    the LSU itself mints, so instead of hashing into an
 *    unordered_map the token can simply *be* a slab index. A slot is
 *    recycled through a free list only after its last line request
 *    completed, so a live token always names a live slot.
 *  - HitEventRing: the L1 hit latency is a constant, so hit
 *    completions are pushed with monotonically non-decreasing ready
 *    cycles — arrival order is completion order and a FIFO ring
 *    replaces the binary heap (O(1) push/pop, no sift, contiguous
 *    memory).
 */

#ifndef APRES_CORE_LSU_STRUCTURES_HPP
#define APRES_CORE_LSU_STRUCTURES_HPP

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"

namespace apres {

/** Sentinel for "no pending event". */
inline constexpr Cycle kNoPendingEvent = std::numeric_limits<Cycle>::max();

/**
 * Free-list slab keyed by self-minted tokens.
 *
 * insert() returns a token (never 0, so 0 stays usable as the "not
 * tracked" sentinel in MemRequest); at()/erase() are O(1) with no
 * hashing. Tokens are slot indices and are reused after erase(), which
 * is safe for LSU tracks because every line request of a load
 * completes exactly once and the slot is only released when the last
 * one did.
 */
template <typename T>
class TokenSlab
{
  public:
    /** Store @p value; @return its token (> 0). */
    std::uint64_t
    insert(const T& value)
    {
        std::uint32_t index;
        if (!freeList_.empty()) {
            index = freeList_.back();
            freeList_.pop_back();
        } else {
            index = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Slot& slot = slots_[index];
        slot.value = value;
        assert(!slot.live);
        slot.live = true;
        ++active_;
        return static_cast<std::uint64_t>(index) + 1;
    }

    /** The value behind a live @p token. */
    T&
    at(std::uint64_t token)
    {
        Slot& slot = slots_[indexOf(token)];
        assert(slot.live && "stale or invalid LSU token");
        return slot.value;
    }

    /** Release @p token's slot back to the free list. */
    void
    erase(std::uint64_t token)
    {
        const std::size_t index = indexOf(token);
        assert(slots_[index].live && "double release of LSU token");
        slots_[index].live = false;
        freeList_.push_back(static_cast<std::uint32_t>(index));
        --active_;
    }

    /** Number of live entries. */
    std::size_t size() const { return active_; }

    /** True when no entry is live. */
    bool empty() const { return active_ == 0; }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    static std::size_t
    indexOf(std::uint64_t token)
    {
        assert(token != 0 && "token 0 is the untracked sentinel");
        return static_cast<std::size_t>(token - 1);
    }

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeList_;
    std::size_t active_ = 0;
};

/**
 * FIFO ring of (ready cycle, token) completions with non-decreasing
 * ready cycles. Push order is completion order, so the earliest event
 * is always at the head; capacity grows by doubling.
 */
class HitEventRing
{
  public:
    struct Event
    {
        Cycle ready = 0;
        std::uint64_t token = 0;
    };

    /** Append an event. @pre ready >= every previously pushed ready. */
    void
    push(Cycle ready, std::uint64_t token)
    {
        assert((empty() || ready >= lastReady_) &&
               "hit latency must be constant for FIFO completion order");
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = Event{ready, token};
        ++count_;
        lastReady_ = ready;
    }

    /** True when no event is pending. */
    bool empty() const { return count_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return count_; }

    /** The earliest pending event. @pre !empty() */
    const Event&
    front() const
    {
        assert(!empty());
        return buf_[head_];
    }

    /** Drop the earliest pending event. @pre !empty() */
    void
    pop()
    {
        assert(!empty());
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    /** Ready cycle of the earliest event; kNoPendingEvent when empty. */
    Cycle
    nextReady() const
    {
        return count_ ? buf_[head_].ready : kNoPendingEvent;
    }

  private:
    void
    grow()
    {
        const std::size_t capacity = buf_.empty() ? 64 : buf_.size() * 2;
        std::vector<Event> next(capacity);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<Event> buf_; // power-of-two capacity
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    Cycle lastReady_ = 0;
};

} // namespace apres

#endif // APRES_CORE_LSU_STRUCTURES_HPP
