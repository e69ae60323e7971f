/**
 * @file
 * Hot-path address-keyed containers for the memory hierarchy.
 *
 * Like the LSU's TokenSlab (core/lsu_structures.hpp), both structures
 * exploit an invariant of the simulation that the general-purpose
 * node-based containers they replace cannot:
 *
 *  - keys are *line addresses*, which are never kInvalidAddr, so the
 *    sentinel marks an empty slot and no separate occupancy metadata
 *    is needed;
 *  - populations are small and bounded (MSHR files hold at most
 *    numMshrs entries; the residency sets grow with a workload's
 *    unique-line footprint), so a flat power-of-two open-addressing
 *    table with linear probing keeps every lookup inside one or two
 *    cache lines instead of chasing bucket-list pointers.
 *
 * Deletion uses backward-shift (Robin-Hood style compaction) rather
 * than tombstones so probe chains never degrade over a long run —
 * MSHR entries are erased on every fill, billions of times per
 * simulation.
 *
 * Neither container can be iterated (only lookup / insert / erase),
 * so the hash layout cannot perturb stats: the bitwise-identity
 * contract of ff_equivalence is preserved by construction.
 */

#ifndef APRES_MEM_ADDR_TABLE_HPP
#define APRES_MEM_ADDR_TABLE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace apres {

namespace detail {

/** Multiplicative mix (splitmix64 finalizer) — line addresses share
 *  their low bits (line-size aligned), so the index must come from the
 *  mixed high bits. */
inline std::size_t
mixAddr(Addr key)
{
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
}

/** Smallest power of two >= n (and >= 8). */
inline std::size_t
tableCapacityFor(std::size_t n)
{
    std::size_t cap = 8;
    while (cap < n)
        cap <<= 1;
    return cap;
}

/** One AddrMap slot. An empty value takes no space, so a set's slot
 *  is the bare 8-byte key. */
template <typename V>
struct AddrSlot
{
    Addr key = kInvalidAddr;
    [[no_unique_address]] V value{};
};

/** The value of a set's slots. */
struct Empty
{
};

static_assert(sizeof(AddrSlot<Empty>) == sizeof(Addr));

} // namespace detail

/**
 * Open-addressing Addr -> V map with linear probing and backward-shift
 * deletion. kInvalidAddr is the empty-slot sentinel and is not a legal
 * key. Grows by doubling at ~70% load; reserve() the expected
 * population (e.g. an MSHR file's numMshrs) to make growth a
 * non-event on the simulation path.
 */
template <typename V>
class AddrMap
{
  public:
    explicit AddrMap(std::size_t expected = 8) { rebuild(expected); }

    /** Value behind @p key, or nullptr when absent. */
    V*
    find(Addr key)
    {
        assert(key != kInvalidAddr);
        std::size_t i = detail::mixAddr(key) & mask_;
        while (true) {
            Slot& slot = slots_[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == kInvalidAddr)
                return nullptr;
            i = (i + 1) & mask_;
        }
    }

    const V*
    find(Addr key) const
    {
        return const_cast<AddrMap*>(this)->find(key);
    }

    /** True when @p key is present. */
    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * Insert a default-constructed value for @p key unless present.
     * @return (value slot, true when newly inserted).
     */
    std::pair<V*, bool>
    insert(Addr key)
    {
        assert(key != kInvalidAddr);
        if (size_ + 1 > growAt_)
            rebuild(slots_.size() * 2);
        std::size_t i = detail::mixAddr(key) & mask_;
        while (true) {
            Slot& slot = slots_[i];
            if (slot.key == key)
                return {&slot.value, false};
            if (slot.key == kInvalidAddr) {
                slot.key = key;
                slot.value = V{};
                ++size_;
                return {&slot.value, true};
            }
            i = (i + 1) & mask_;
        }
    }

    /**
     * Erase @p key. Backward-shift compaction: every displaced
     * follower in the probe chain moves one slot closer to its home.
     * @return true when the key was present.
     */
    bool
    erase(Addr key)
    {
        assert(key != kInvalidAddr);
        std::size_t i = detail::mixAddr(key) & mask_;
        while (true) {
            Slot& slot = slots_[i];
            if (slot.key == kInvalidAddr)
                return false;
            if (slot.key == key)
                break;
            i = (i + 1) & mask_;
        }
        // Shift the tail of the probe cluster back over the hole.
        std::size_t hole = i;
        std::size_t next = (hole + 1) & mask_;
        while (slots_[next].key != kInvalidAddr) {
            const std::size_t home =
                detail::mixAddr(slots_[next].key) & mask_;
            // Move `next` into the hole unless that would hop it
            // before its home slot (circular distance test).
            if (((next - home) & mask_) >= ((next - hole) & mask_)) {
                slots_[hole] = std::move(slots_[next]);
                hole = next;
            }
            next = (next + 1) & mask_;
        }
        slots_[hole].key = kInvalidAddr;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    /** Drop every entry, keeping the current capacity. */
    void
    clear()
    {
        for (Slot& slot : slots_) {
            slot.key = kInvalidAddr;
            slot.value = V{};
        }
        size_ = 0;
    }

    /** Grow (never shrink) to hold @p expected entries without rehash. */
    void
    reserve(std::size_t expected)
    {
        const std::size_t cap =
            detail::tableCapacityFor(expected * 10 / 7 + 1);
        if (cap > slots_.size())
            rebuild(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot count (tests observe growth through this). */
    std::size_t capacity() const { return slots_.size(); }

  private:
    using Slot = detail::AddrSlot<V>;

    void
    rebuild(std::size_t capacity)
    {
        capacity = detail::tableCapacityFor(capacity);
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        growAt_ = capacity * 7 / 10;
        size_ = 0;
        for (Slot& slot : old) {
            if (slot.key == kInvalidAddr)
                continue;
            std::size_t i = detail::mixAddr(slot.key) & mask_;
            while (slots_[i].key != kInvalidAddr)
                i = (i + 1) & mask_;
            slots_[i] = std::move(slot);
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t growAt_ = 0;
    std::size_t size_ = 0;
};

/**
 * Open-addressing set of line addresses: an AddrMap whose slots are
 * the bare 8-byte key. Backs the cache's miss-taxonomy residency sets,
 * which are hit on every demand miss. It starts small and grows by
 * doubling with the lines a run touches, never with the modelled
 * cache capacity.
 */
class AddrSet
{
  public:
    bool contains(Addr key) const { return map_.contains(key); }

    /** @return true when newly inserted. */
    bool insert(Addr key) { return map_.insert(key).second; }

    /** @return true when the key was present (backward-shift erase). */
    bool erase(Addr key) { return map_.erase(key); }

    std::size_t size() const { return map_.size(); }

  private:
    AddrMap<detail::Empty> map_;
};

} // namespace apres

#endif // APRES_MEM_ADDR_TABLE_HPP
