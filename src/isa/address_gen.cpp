/**
 * @file
 * Address generator implementations.
 */

#include "address_gen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "common/bitutils.hpp"

namespace apres {

namespace {

/** Cache line size assumed by generators that think in lines. */
constexpr std::uint64_t kLine = 128;

} // namespace

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

std::uint64_t
mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return mix64((a * 0x9E3779B97F4A7C15ull) ^
                 mix64((b + 0x6A09E667F3BCC909ull) ^ mix64(c)));
}

SharedWindowGen::SharedWindowGen(Addr base, std::uint64_t footprint_bytes,
                                 std::int64_t iter_stride,
                                 std::int64_t warp_skew,
                                 std::int64_t sm_offset)
    : start(base), footprint(alignUp(footprint_bytes, kLine)),
      iterStride(iter_stride), warpSkew(warp_skew), smOffset(sm_offset)
{
    assert(footprint > 0);
}

Addr
SharedWindowGen::base(const AddrCtx& ctx) const
{
    const std::int64_t linear = iterStride * static_cast<std::int64_t>(ctx.iter)
        + warpSkew * static_cast<std::int64_t>(ctx.warp);
    // Euclidean modulo: offsets stay in [0, footprint) for negative
    // strides too.
    std::int64_t off = linear % static_cast<std::int64_t>(footprint);
    if (off < 0)
        off += static_cast<std::int64_t>(footprint);
    return start + static_cast<Addr>(smOffset * ctx.sm) +
        static_cast<Addr>(off);
}

StridedGen::StridedGen(Addr base, std::int64_t warp_stride,
                       std::int64_t iter_stride, std::int64_t sm_offset)
    : start(base), warpStride(warp_stride), iterStride(iter_stride),
      smOffset(sm_offset)
{
}

Addr
StridedGen::base(const AddrCtx& ctx) const
{
    const std::int64_t delta = warpStride * static_cast<std::int64_t>(ctx.warp)
        + iterStride * static_cast<std::int64_t>(ctx.iter)
        + smOffset * static_cast<std::int64_t>(ctx.sm);
    return static_cast<Addr>(static_cast<std::int64_t>(start) + delta);
}

IrregularGen::IrregularGen(Addr base, std::uint64_t footprint_bytes,
                           int share_warps, int share_iters,
                           std::uint64_t seed_value, int lag_iters)
    : start(base), footprintLines(divCeil(footprint_bytes, kLine)),
      shareWarps(share_warps), shareIters(share_iters), seed(seed_value),
      lagIters(lag_iters)
{
    assert(footprintLines > 0);
    assert(shareWarps >= 1);
    assert(shareIters >= 1);
}

Addr
IrregularGen::base(const AddrCtx& ctx) const
{
    // Sharing partners are warps congruent modulo the stripe count, so
    // the partners of warp w are w + stripes, w + 2*stripes, ... —
    // spread across the ID space. Adjacent warp IDs never share, which
    // keeps the access stream stride-free between consecutive warps
    // (Table I reports no usable stride for the irregular loads).
    const int stripes =
        shareWarps > 0 ? std::max(1, 48 / shareWarps) : 48;
    const std::uint64_t warp_group =
        static_cast<std::uint64_t>(ctx.warp) % stripes;
    // Partner slot within the sharing group; slot k lags the first
    // toucher by k * lagIters iterations.
    const std::uint64_t slot =
        static_cast<std::uint64_t>(ctx.warp) / stripes;
    const std::uint64_t lagged_iter =
        ctx.iter + slot * static_cast<std::uint64_t>(lagIters);
    const std::uint64_t iter_group = lagged_iter / shareIters;
    const std::uint64_t line =
        mix64(seed, iter_group, warp_group) % footprintLines;
    return start + line * kLine;
}

ZipfGen::ZipfGen(Addr base, std::size_t num_lines, double alpha,
                 std::uint64_t seed_value)
    : start(base), alphaParam(alpha), seed(seed_value)
{
    assert(num_lines > 0);
    // Build a draw table so that line r is chosen with probability
    // proportional to 1/(r+1)^alpha. The table quantizes the CDF into
    // 4096 slots; sampling is then a single hash + lookup.
    constexpr std::size_t kSlots = 4096;
    std::vector<double> cdf(num_lines);
    double sum = 0.0;
    for (std::size_t i = 0; i < num_lines; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    rankOfDraw.resize(kSlots);
    std::size_t rank = 0;
    for (std::size_t s = 0; s < kSlots; ++s) {
        const double u = (static_cast<double>(s) + 0.5) / kSlots * sum;
        while (rank + 1 < num_lines && cdf[rank] < u)
            ++rank;
        rankOfDraw[s] = static_cast<std::uint32_t>(rank);
    }
    numLines = num_lines;
}

Addr
ZipfGen::base(const AddrCtx& ctx) const
{
    const std::uint64_t h = mix64(seed, ctx.iter, ctx.warp);
    const std::uint32_t rank = rankOfDraw[h % rankOfDraw.size()];
    // Scatter ranks over the region so the hottest lines do not all
    // land in the same cache set.
    const std::uint64_t line = mix64(seed ^ (rank + 1)) % numLines;
    return start + line * kLine;
}

// ---------------------------------------------------------------------
// Serialization: the canonical `<kind> key=value ...` forms consumed by
// parseAddressGen() and the kernel text format.
// ---------------------------------------------------------------------

std::string
UniformGen::serialize() const
{
    std::ostringstream oss;
    oss << "uniform addr=" << addr_;
    return oss.str();
}

std::string
SharedWindowGen::serialize() const
{
    std::ostringstream oss;
    oss << "window base=" << start << " footprint=" << footprint
        << " iter=" << iterStride << " skew=" << warpSkew
        << " sm=" << smOffset;
    return oss.str();
}

std::string
StridedGen::serialize() const
{
    std::ostringstream oss;
    oss << "strided base=" << start << " warp=" << warpStride
        << " iter=" << iterStride << " sm=" << smOffset;
    return oss.str();
}

std::string
IrregularGen::serialize() const
{
    std::ostringstream oss;
    oss << "irregular base=" << start << " lines=" << footprintLines
        << " sharewarps=" << shareWarps << " shareiters=" << shareIters
        << " seed=" << seed << " lag=" << lagIters;
    return oss.str();
}

std::string
ZipfGen::serialize() const
{
    std::ostringstream oss;
    oss << "zipf base=" << start << " lines=" << numLines
        << " alpha=" << alphaParam << " seed=" << seed;
    return oss.str();
}

} // namespace apres
