/**
 * @file
 * WarpMask: a dynamically sized warp bit-set.
 *
 * The APRES structures (WGT member vectors, LLT match masks, the
 * cache's per-line toucher tracking) historically used raw
 * std::uint64_t bitmasks, which silently dropped warps 64+ and forced
 * the Gpu constructor to reject wider machines. WarpMask removes that
 * cap: bit w = warp w for any non-negative warp ID, with a small-mask
 * optimization so configurations of at most 64 warps per SM (every
 * paper-sized machine) stay allocation-free — one inline word, the
 * overflow vector untouched.
 *
 * Semantics are value-like and size-agnostic: two masks are equal when
 * they have the same set bits, regardless of how wide either has ever
 * grown. Negative warp IDs (kInvalidWarp) are ignored by set(), the
 * same contract the old warpBit() helper had.
 */

#ifndef APRES_COMMON_WARP_MASK_HPP
#define APRES_COMMON_WARP_MASK_HPP

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace apres {

/**
 * Dynamic warp bit-set (bit w = warp w).
 */
class WarpMask
{
  public:
    WarpMask() = default;

    /** Mask holding the low 64 warps given as a raw word. */
    static WarpMask
    ofWord(std::uint64_t word)
    {
        WarpMask m;
        m.low_ = word;
        return m;
    }

    /** Set bit @p warp. Negative IDs (kInvalidWarp) are ignored. */
    void
    set(WarpId warp)
    {
        if (warp < 0)
            return;
        if (warp < 64) {
            low_ |= std::uint64_t{1} << warp;
            return;
        }
        const std::size_t word = highWordIndex(warp);
        if (word >= high_.size())
            high_.resize(word + 1, 0);
        high_[word] |= bitInWord(warp);
    }

    /** Clear bit @p warp (no-op when out of range or negative). */
    void
    reset(WarpId warp)
    {
        if (warp < 0)
            return;
        if (warp < 64) {
            low_ &= ~(std::uint64_t{1} << warp);
            return;
        }
        const std::size_t word = highWordIndex(warp);
        if (word < high_.size())
            high_[word] &= ~bitInWord(warp);
    }

    /** True when bit @p warp is set (false when negative/out of range). */
    bool
    test(WarpId warp) const
    {
        if (warp < 0)
            return false;
        if (warp < 64)
            return (low_ >> warp) & 1;
        const std::size_t word = highWordIndex(warp);
        return word < high_.size() && (high_[word] & bitInWord(warp)) != 0;
    }

    /** True when no bit is set. */
    bool
    none() const
    {
        if (low_ != 0)
            return false;
        for (const std::uint64_t w : high_) {
            if (w != 0)
                return false;
        }
        return true;
    }

    /** True when any bit is set. */
    bool any() const { return !none(); }

    /** Number of set bits. */
    int
    count() const
    {
        int n = std::popcount(low_);
        for (const std::uint64_t w : high_)
            n += std::popcount(w);
        return n;
    }

    /** True when any set bit is at position >= @p bound. */
    bool
    anyAtOrAbove(int bound) const
    {
        if (bound <= 0)
            return any();
        if (bound < 64 && (low_ >> bound) != 0)
            return true;
        for (std::size_t word = 0; word < high_.size(); ++word) {
            std::uint64_t bits = high_[word];
            if (bits == 0)
                continue;
            const int base = 64 * (static_cast<int>(word) + 1);
            if (base >= bound)
                return true;
            if (bound - base < 64 && (bits >> (bound - base)) != 0)
                return true;
        }
        return false;
    }

    /** Clear every bit (keeps any grown capacity). */
    void
    clear()
    {
        low_ = 0;
        for (std::uint64_t& w : high_)
            w = 0;
    }

    WarpMask&
    operator|=(const WarpMask& other)
    {
        low_ |= other.low_;
        if (other.high_.size() > high_.size())
            high_.resize(other.high_.size(), 0);
        for (std::size_t i = 0; i < other.high_.size(); ++i)
            high_[i] |= other.high_[i];
        return *this;
    }

    bool
    operator==(const WarpMask& other) const
    {
        if (low_ != other.low_)
            return false;
        const std::size_t common =
            high_.size() < other.high_.size() ? high_.size()
                                              : other.high_.size();
        for (std::size_t i = 0; i < common; ++i) {
            if (high_[i] != other.high_[i])
                return false;
        }
        for (std::size_t i = common; i < high_.size(); ++i) {
            if (high_[i] != 0)
                return false;
        }
        for (std::size_t i = common; i < other.high_.size(); ++i) {
            if (other.high_[i] != 0)
                return false;
        }
        return true;
    }

    bool operator!=(const WarpMask& other) const { return !(*this == other); }

    /**
     * The low 64 bits as a raw word. Display/trace convenience: trace
     * event args are fixed-width integers, so wide masks are truncated
     * to their first word there (the full mask is never truncated in
     * simulation state).
     */
    std::uint64_t lowWord() const { return low_; }

    /** Invoke @p fn(WarpId) for every set bit, in ascending order. */
    template <typename Fn>
    void
    forEachSet(Fn&& fn) const
    {
        forWord(low_, 0, fn);
        for (std::size_t word = 0; word < high_.size(); ++word)
            forWord(high_[word], 64 * (static_cast<int>(word) + 1), fn);
    }

    /**
     * Hex rendering without leading zeros (matches what
     * `std::hex << mask` printed for the old raw-word masks).
     */
    std::string
    toHex() const
    {
        std::string out;
        bool started = false;
        for (std::size_t word = high_.size(); word-- > 0;)
            appendWordHex(out, high_[word], started);
        appendWordHex(out, low_, started);
        return started ? out : std::string("0");
    }

  private:
    static std::size_t
    highWordIndex(WarpId warp)
    {
        return static_cast<std::size_t>(warp / 64) - 1;
    }

    static std::uint64_t
    bitInWord(WarpId warp)
    {
        return std::uint64_t{1} << (warp % 64);
    }

    template <typename Fn>
    static void
    forWord(std::uint64_t bits, int base, Fn&& fn)
    {
        while (bits != 0) {
            const int b = std::countr_zero(bits);
            fn(static_cast<WarpId>(base + b));
            bits &= bits - 1;
        }
    }

    static void
    appendWordHex(std::string& out, std::uint64_t word, bool& started)
    {
        static const char digits[] = "0123456789abcdef";
        for (int nibble = 15; nibble >= 0; --nibble) {
            const auto d =
                static_cast<unsigned>((word >> (4 * nibble)) & 0xF);
            if (!started && d == 0)
                continue;
            started = true;
            out.push_back(digits[d]);
        }
    }

    std::uint64_t low_ = 0;              ///< warps 0..63 (inline)
    std::vector<std::uint64_t> high_;    ///< warps 64+ (word i = 64*(i+1)..)
};

} // namespace apres

#endif // APRES_COMMON_WARP_MASK_HPP
