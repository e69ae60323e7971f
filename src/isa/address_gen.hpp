/**
 * @file
 * Stateless per-load address generators.
 *
 * Each static load in a kernel owns an AddressGen describing *where*
 * that load points as a pure function of (SM, warp, loop iteration).
 * Statelessness matters twice: the LSU may replay an access after an
 * MSHR-full stall and must observe identical addresses, and the
 * workload layer can re-derive oracle information (footprints, stride
 * tables) without running the pipeline.
 *
 * The generators directly mirror the load taxonomy of the paper's
 * Table I:
 *  - high-locality loads with a small shared footprint
 *    (@ref SharedWindowGen, @ref ZipfGen, @ref UniformGen), and
 *  - low-locality loads with a strong inter-warp stride
 *    (@ref StridedGen),
 *  - plus irregular loads with partial inter-warp sharing
 *    (@ref IrregularGen) for the graph-style applications.
 */

#ifndef APRES_ISA_ADDRESS_GEN_HPP
#define APRES_ISA_ADDRESS_GEN_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace apres {

/** Execution context an address generator may observe. */
struct AddrCtx
{
    SmId sm = 0;          ///< SM executing the access
    WarpId warp = 0;      ///< SM-local warp ID (paper's warp ID)
    std::uint64_t iter = 0; ///< loop iteration of the executing warp
};

/**
 * Interface: compute the base (lane 0) address of one warp access.
 *
 * Per-lane addresses are derived by the LSU as
 * `base + lane * laneStride` where laneStride comes from the load
 * instruction, so coalescing behaviour is a property of the load, not
 * of the pattern.
 */
class AddressGen
{
  public:
    virtual ~AddressGen() = default;

    /** Base address of the access performed by @p ctx. */
    virtual Addr base(const AddrCtx& ctx) const = 0;

    /**
     * Canonical machine-parseable form, e.g.
     * `strided base=0x1000 warp=1024 iter=49152 sm=0`.
     * parseAddressGen() round-trips this exactly.
     */
    virtual std::string serialize() const = 0;
};

/** Owning handle used by kernels. */
using AddressGenPtr = std::unique_ptr<AddressGen>;

/**
 * Parse the canonical generator form produced by
 * AddressGen::serialize(). Throws SimError(kKernel) on malformed input:
 * a non-numeric or out-of-range attribute, a zero footprint, line
 * count or sharing degree, or a zipf table above ZipfGen::kMaxLines.
 */
AddressGenPtr parseAddressGen(const std::string& text);

/** Deterministic 64-bit mixing hash (stateless pseudo-randomness). */
std::uint64_t mix64(std::uint64_t x);

/** Mix three values into one hash. */
std::uint64_t mix64(std::uint64_t a, std::uint64_t b, std::uint64_t c);

/**
 * Every warp reads the same single address (extreme locality; e.g. a
 * kernel argument or shared scalar).
 */
class UniformGen : public AddressGen
{
  public:
    explicit UniformGen(Addr addr) : addr_(addr) {}

    Addr base(const AddrCtx&) const override { return addr_; }
    std::string serialize() const override;

  private:
    Addr addr_;
};

/**
 * All warps walk the same bounded window.
 *
 * `base + ((iter * iterStride + warp * warpSkew) mod footprint)`.
 * With footprint much larger than L1 this yields the KM-style
 * signature: tiny #L/#R (every line reused by many warps) yet a ~100%
 * miss rate under thrashing, and a detectable inter-warp stride of
 * @p warpSkew.
 */
class SharedWindowGen : public AddressGen
{
  public:
    /**
     * @param base       window start address
     * @param footprint  window size in bytes (rounded to lines)
     * @param iter_stride byte step per loop iteration
     * @param warp_skew  byte offset between consecutive warps
     * @param sm_offset  byte offset between SMs' windows (0 = shared)
     */
    SharedWindowGen(Addr base, std::uint64_t footprint,
                    std::int64_t iter_stride, std::int64_t warp_skew,
                    std::int64_t sm_offset = 0);

    Addr base(const AddrCtx& ctx) const override;
    std::string serialize() const override;

  private:
    Addr start;
    std::uint64_t footprint;
    std::int64_t iterStride;
    std::int64_t warpSkew;
    std::int64_t smOffset;
};

/**
 * Classic inter-warp strided streaming access.
 *
 * `base + warp * warpStride + iter * iterStride (+ sm * smOffset)`.
 * This is the Table-I "stride" load class: #L/#R near 1 (no reuse),
 * near-100% miss rate, and a stable inter-warp stride that STR and SAP
 * can exploit.
 */
class StridedGen : public AddressGen
{
  public:
    StridedGen(Addr base, std::int64_t warp_stride, std::int64_t iter_stride,
               std::int64_t sm_offset = 0);

    Addr base(const AddrCtx& ctx) const override;
    std::string serialize() const override;

    /** The inter-warp stride this pattern was built with. */
    std::int64_t warpStrideBytes() const { return warpStride; }

  private:
    Addr start;
    std::int64_t warpStride;
    std::int64_t iterStride;
    std::int64_t smOffset;
};

/**
 * Irregular accesses into a footprint with controllable inter-warp
 * sharing (graph-style loads: BFS frontier, MUM suffix-tree walk).
 *
 * Groups of @p shareWarps warps (striped across the warp-ID space, so
 * adjacent IDs never share) touch the same pseudo-random line for
 * @p shareIters consecutive iterations: #L/#R shrinks as either
 * sharing factor grows, while the address stream stays stride-free —
 * consecutive warps observe no usable stride, as Table I reports for
 * the irregular loads.
 */
class IrregularGen : public AddressGen
{
  public:
    /**
     * @param base        region start
     * @param footprint   region size in bytes
     * @param share_warps warps per sharing group (>= 1)
     * @param share_iters iterations per sharing group (>= 1)
     * @param seed        hash seed (distinguishes loads)
     * @param lag_iters   iteration lag between sharing partners: the
     *                    k-th partner touches a line @p lag_iters x k
     *                    iterations after the first, so the reuse
     *                    distance scales with the number of actively
     *                    progressing warps (thrash at full TLP,
     *                    recover under focused scheduling)
     */
    IrregularGen(Addr base, std::uint64_t footprint, int share_warps,
                 int share_iters, std::uint64_t seed, int lag_iters = 0);

    Addr base(const AddrCtx& ctx) const override;
    std::string serialize() const override;

  private:
    Addr start;
    std::uint64_t footprintLines;
    int shareWarps;
    int shareIters;
    std::uint64_t seed;
    int lagIters;
};

/**
 * Zipf-skewed accesses: a small set of hot lines absorbs most
 * references while a long tail provides cold misses. Models the
 * high-locality loads of SPMV/PA where #L/#R is small but non-zero.
 */
class ZipfGen : public AddressGen
{
  public:
    /**
     * Largest num_lines parseAddressGen() accepts: the constructor
     * builds one 8-byte CDF entry per line, so this caps the table at
     * 8 MiB. The workloads and the corpus use at most 8192 lines.
     */
    static constexpr std::size_t kMaxLines = std::size_t{1} << 20;

    /**
     * @param base      region start
     * @param num_lines population of distinct 128 B lines
     * @param alpha     Zipf skew (0 = uniform)
     * @param seed      hash seed
     */
    ZipfGen(Addr base, std::size_t num_lines, double alpha,
            std::uint64_t seed);

    Addr base(const AddrCtx& ctx) const override;
    std::string serialize() const override;

  private:
    Addr start;
    std::vector<std::uint32_t> rankOfDraw; // precomputed inverse-CDF table
    std::size_t numLines = 0;
    double alphaParam = 0.0;
    std::uint64_t seed;
};

} // namespace apres

#endif // APRES_ISA_ADDRESS_GEN_HPP
