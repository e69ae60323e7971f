/**
 * @file
 * The 15 synthetic benchmarks.
 *
 * Every builder documents which Table I rows it reproduces and which
 * address-generator composition realizes the signature.
 *
 * Two structural choices matter as much as the address patterns:
 *
 *  - Loads inside one iteration are *chained* through the scoreboard
 *    (index/pointer dependences), bounding per-warp MLP near 1. With
 *    48 warps that keeps demand below the 64 L1 MSHRs — the regime
 *    real kernels run in, and the one where prefetching has both MSHR
 *    headroom and exposed latency to hide.
 *  - Streamed arrays are shared between SMs (thread blocks read
 *    interleaved rows of the same matrices), so repeat traffic merges
 *    in the L2/DRAM path and bandwidth is not the universal limiter.
 *
 * Loop trip counts are per job (block): the table's base count times
 * the scale, at least 8; each warp slot runs SmConfig::jobsPerWarp
 * jobs.
 */

#include "workload.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/parse.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace {

/** Disjoint 256 MB data regions per logical array. */
Addr
region(int index)
{
    return 0x4000'0000ull + 0x1000'0000ull * static_cast<Addr>(index);
}

/** High base for NW's negative-stride streams (stays positive). */
constexpr Addr kHighBase = 0x20'0000'0000ull;

/**
 * BFS — cache-sensitive, irregular (Table I: loads 0x110/0xF0/0x198,
 * #L/#R 0.04-0.12, miss 0.78-0.90, stride 0). A chained
 * frontier->node->edge walk with strong inter-warp sharing but no
 * usable stride.
 */
Kernel
buildBfs(std::uint64_t trips)
{
    KernelBuilder b("BFS");
    const int a = b.load(std::make_unique<IrregularGen>(
                             region(0), 2 * 1024 * 1024, 8, 2, 0xBF51, 2),
                         4, 0x110);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<IrregularGen>(
                             region(1), 4 * 1024 * 1024, 4, 2, 0xBF52, 3),
                         4, 0xF0, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<IrregularGen>(
                             region(2), 1 * 1024 * 1024, 8, 2, 0xBF53, 2),
                         4, 0x198, y);
    b.alu({e}, 1);
    return b.build(trips);
}

/**
 * MUM — cache-sensitive, irregular with very high locality (Table I:
 * miss 0.04-0.17): chained suffix-tree descent over a hot node set.
 */
Kernel
buildMum(std::uint64_t trips)
{
    KernelBuilder b("MUM");
    const int a = b.load(std::make_unique<IrregularGen>(
                             region(3), 256 * 1024, 16, 8, 0x3713),
                         4, 0x7A8);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<IrregularGen>(
                             region(4), 128 * 1024, 16, 8, 0x3714),
                         4, 0x460, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<IrregularGen>(
                             region(5), 512 * 1024, 8, 8, 0x3715),
                         4, 0x8A0, y);
    b.alu({e}, 2);
    return b.build(trips);
}

/**
 * NW — cache-sensitive, huge negative stride (Table I: -1966080,
 * miss 1.0, #L/#R ~1): anti-diagonal matrix sweep, zero reuse, but
 * perfectly inter-warp predictable — SAP's best case.
 */
Kernel
buildNw(std::uint64_t trips)
{
    KernelBuilder b("NW");
    const std::int64_t stride = -1966080;
    const int a = b.load(std::make_unique<StridedGen>(
                             kHighBase, stride, stride * 48),
                         4, 0x490);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<StridedGen>(
                             kHighBase + 0x4'0000'0000ull, stride,
                             stride * 48),
                         4, 0xD18, x);
    const int y = b.alu({c}, 1);
    b.store(std::make_unique<StridedGen>(kHighBase + 0x8'0000'0000ull,
                                         stride, stride * 48),
            y, 4, 0x108);
    return b.build(trips);
}

/**
 * SPMV — cache-sensitive mix (Table I: 0x1E0 #L/#R 0.13 miss 0.32;
 * 0x200 #L/#R 0.25 miss 0.25; 0xE0 #L/#R 0.65 miss 0.81): a chained
 * row-pointer -> column-index -> vector-value walk, the first two
 * skewed-hot, the last a colder wide window.
 */
Kernel
buildSpmv(std::uint64_t trips)
{
    KernelBuilder b("SPMV");
    const int a = b.load(std::make_unique<ZipfGen>(region(6), 8192, 0.9,
                                                   0x59B1),
                         4, 0x1E0);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<ZipfGen>(region(7), 2048, 1.1,
                                                   0x59B2),
                         4, 0x200, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<SharedWindowGen>(
                             region(8), 8 * 1024 * 1024, 4096, 4096 * 7),
                         4, 0xE0, y);
    b.alu({e}, 1);
    return b.build(trips);
}

/**
 * KM — cache-sensitive, the paper's thrashing poster child (Table I:
 * one load, #L/#R 0.03, miss 0.99, stride 4352). Each warp cyclically
 * re-scans its slice of the centroid table every 24 iterations while
 * adjacent warps sit 4352 B apart: the re-touch distance is
 * 24 x activeWarps lines — hopeless at 48 warps, comfortable once the
 * active set is throttled, which is why CCWS beats APRES on exactly
 * this application (Section V-B). Windows are per-SM so the L2 cannot
 * absorb the thrash either.
 */
Kernel
buildKm(std::uint64_t trips)
{
    KernelBuilder b("KM");
    const std::int64_t ws = 4352;    // inter-warp stride (Table I)
    const std::int64_t is = ws * 48; // advance per iteration
    const int window = 24;           // iterations per re-scan
    const int a = b.load(std::make_unique<SharedWindowGen>(
                             region(9),
                             static_cast<std::uint64_t>(is) * window,
                             is, ws, is * window),
                         4, 0xE8);
    b.alu({a}, 2);
    return b.build(trips);
}

/**
 * LUD — memory-intensive, stride 2048 (Table I: #L/#R 0.57-0.66 yet
 * miss 0.91-0.97): loads B and C revisit A's lines 8 and 16 iterations
 * later — locality exists but the full-TLP reuse distance exceeds the
 * L1, the Section III-B eviction story. Loads are chained (row index
 * computations), leaving latency exposed for SAP.
 */
Kernel
buildLud(std::uint64_t trips)
{
    KernelBuilder b("LUD");
    const std::int64_t ws = 2048;
    const std::int64_t is = ws * 48;
    const Addr base = region(10) + static_cast<Addr>(is) * 32;
    const int a = b.load(std::make_unique<StridedGen>(base, ws, is),
                         4, 0x20F0);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) * 8 +
                                 static_cast<Addr>(ws) * 24,
                             ws, is),
                         4, 0x2080, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) * 16 +
                                 static_cast<Addr>(ws) * 12,
                             ws, is),
                         4, 0x22E0, y);
    b.alu({e}, 1);
    return b.build(trips);
}

/**
 * SRAD — memory-intensive, stride 16384 (Table I: three loads, miss
 * ~0.99, 75-81% regular stride). Two fresh diffusion streams, a
 * delayed revisit (0x350's #L/#R of 0.52) and a small high-locality
 * coefficient table — the locality/stride coexistence Section V-B
 * credits LAWS for separating.
 */
Kernel
buildSrad(std::uint64_t trips)
{
    KernelBuilder b("SRAD");
    const std::int64_t ws = 16384;
    const std::int64_t is = ws * 48;
    const Addr base = region(11) + static_cast<Addr>(is) * 16;
    const int a = b.load(std::make_unique<StridedGen>(base, ws, is),
                         4, 0x250);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<StridedGen>(
                             base + 0x400'0000, ws, is),
                         4, 0x230, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) * 4 +
                                 static_cast<Addr>(ws) * 24,
                             ws, is),
                         4, 0x350, y);
    const int z = b.alu({e}, 1);
    const int g = b.load(std::make_unique<ZipfGen>(region(12), 128, 1.0,
                                                   0x5AD1),
                         4, 0x360, z);
    b.alu({g}, 1);
    return b.build(trips);
}

/**
 * PA — memory-intensive mix (Table I: 0x2210 stride 8832 miss 0.98;
 * 0x2230 #L/#R 0.002 miss 0.16; 0x2088 stride 256 miss 0.02).
 */
Kernel
buildPa(std::uint64_t trips)
{
    KernelBuilder b("PA");
    const int a = b.load(std::make_unique<StridedGen>(
                             region(13), 8832, 8832 * 48),
                         4, 0x2210);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<ZipfGen>(region(14), 256, 1.2,
                                                   0x9A01),
                         4, 0x2230, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<SharedWindowGen>(
                             region(15), 128 * 1024, 256, 256),
                         4, 0x2088, y);
    b.alu({e}, 2);
    return b.build(trips);
}

/**
 * HISTO — memory-intensive (Table I: one load, stride 512, miss 1.0):
 * a pure input stream plus scattered bin-update stores.
 */
Kernel
buildHisto(std::uint64_t trips)
{
    KernelBuilder b("HISTO");
    const int a = b.load(std::make_unique<StridedGen>(
                             region(16), 512, 512 * 48),
                         4, 0x168);
    const int x = b.alu({a}, 2);
    b.store(std::make_unique<IrregularGen>(region(17), 64 * 1024, 1, 1,
                                           0x4151),
            x);
    return b.build(trips);
}

/**
 * BP — memory-intensive, stride 128 (Table I: two streaming loads at
 * miss 1.0 and one high-locality load at miss 0.03): weight and delta
 * streams plus a resident layer table.
 */
Kernel
buildBp(std::uint64_t trips)
{
    KernelBuilder b("BP");
    const int a = b.load(std::make_unique<StridedGen>(
                             region(18), 128, 128 * 48),
                         4, 0x3F8);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<StridedGen>(
                             region(19), 128, 128 * 48),
                         4, 0x408, x);
    const int y = b.alu({c}, 1);
    const int e = b.load(std::make_unique<SharedWindowGen>(
                             region(20), 24 * 1024, 128, 128),
                         4, 0x478, y);
    const int z = b.alu({e}, 1);
    b.store(std::make_unique<StridedGen>(region(21), 128, 128 * 48), z);
    return b.build(trips);
}

/**
 * PF — compute-intensive: a small wavefront table that fits in the L1
 * plus a light input stream, dominated by ALU work.
 */
Kernel
buildPf(std::uint64_t trips)
{
    KernelBuilder b("PF");
    const int a = b.load(std::make_unique<SharedWindowGen>(
                             region(22), 24 * 1024, 128, 256),
                         4, 0x100);
    const int c = b.load(std::make_unique<StridedGen>(
                             region(23), 2048, 2048 * 48),
                         4, 0x140);
    const int x = b.alu({a, c}, 10);
    b.alu({x}, 8);
    return b.build(trips);
}

/**
 * CS — compute-intensive separable convolution: one fresh row stream
 * whose neighbour taps (previous row, same line) mostly hit, with a
 * regular stride SAP can extend — Section V-B attributes its APRES
 * gain to prefetching.
 */
Kernel
buildCs(std::uint64_t trips)
{
    KernelBuilder b("CS");
    const std::int64_t ws = 4096;
    const std::int64_t is = ws * 48;
    const Addr base = region(24) + static_cast<Addr>(is) * 8;
    const int a = b.load(std::make_unique<StridedGen>(base, ws, is),
                         4, 0x300);
    const int x = b.alu({a}, 2);
    const int c = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) +
                                 static_cast<Addr>(ws) * 24,
                             ws, is),
                         4, 0x320, x);
    const int y = b.alu({c}, 2);
    const int e = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) + 64 +
                                 static_cast<Addr>(ws) * 24,
                             ws, is),
                         4, 0x340, y);
    b.alu({e}, 5);
    return b.build(trips);
}

/**
 * ST — compute-intensive 3D stencil: plane-strided streams with a
 * short-delay revisit and an irregular boundary load; prefetches are
 * only partially useful (the paper's Fig. 15 energy worst case).
 */
Kernel
buildSt(std::uint64_t trips)
{
    KernelBuilder b("ST");
    const std::int64_t ws = 32768;
    const std::int64_t is = ws * 48;
    const Addr base = region(25) + static_cast<Addr>(is) * 8;
    const int a = b.load(std::make_unique<StridedGen>(base, ws, is),
                         4, 0x200);
    const int x = b.alu({a}, 4);
    const int c = b.load(std::make_unique<StridedGen>(
                             base - static_cast<Addr>(is) * 2 +
                                 static_cast<Addr>(ws) * 24,
                             ws, is),
                         4, 0x240, x);
    const int y = b.alu({c}, 4);
    const int e = b.load(std::make_unique<IrregularGen>(
                             region(26), 1024 * 1024, 2, 2, 0x57E1),
                         4, 0x280, y);
    b.alu({e}, 6);
    return b.build(trips);
}

/**
 * HS — compute-intensive HotSpot: a resident temperature tile plus a
 * power-input stream, ALU-dominated.
 */
Kernel
buildHs(std::uint64_t trips)
{
    KernelBuilder b("HS");
    const int a = b.load(std::make_unique<SharedWindowGen>(
                             region(27), 24 * 1024, 128, 512),
                         4, 0x180);
    const int c = b.load(std::make_unique<StridedGen>(
                             region(28), 4096, 4096 * 48),
                         4, 0x188);
    const int x = b.alu({a, c}, 12);
    b.alu({x}, 10);
    return b.build(trips);
}

/**
 * SP — compute-intensive scalar product: two chained fresh streams
 * with zero reuse and perfect stride — the prefetch-dominated speedup
 * case of Section V-B.
 */
Kernel
buildSp(std::uint64_t trips)
{
    KernelBuilder b("SP");
    const int a = b.load(std::make_unique<StridedGen>(
                             region(29), 8192, 8192 * 48),
                         4, 0x400);
    const int x = b.alu({a}, 1);
    const int c = b.load(std::make_unique<StridedGen>(
                             region(30), 8192, 8192 * 48),
                         4, 0x410, x);
    const int y = b.alu({c}, 3);
    b.alu({y}, 3);
    return b.build(trips);
}

struct Meta
{
    const char* abbr;
    const char* full;
    const char* suite;
    AppCategory category;
    Kernel (*build)(std::uint64_t trips);
    double baseTrips; ///< loop trips per job at scale 1
};

const Meta kMeta[] = {
    {"BFS", "Breadth-First Search", "Rodinia",
     AppCategory::kCacheSensitive, buildBfs, 64},
    {"MUM", "MUMmerGPU", "Rodinia", AppCategory::kCacheSensitive, buildMum,
     64},
    {"NW", "Needleman-Wunsch", "Rodinia", AppCategory::kCacheSensitive,
     buildNw, 48},
    {"SPMV", "Sparse-Matrix dense-Vector multiplication", "Parboil",
     AppCategory::kCacheSensitive, buildSpmv, 64},
    {"KM", "KMeans", "Rodinia", AppCategory::kCacheSensitive, buildKm, 241},
    {"LUD", "LU Decomposition", "Rodinia", AppCategory::kCacheInsensitive,
     buildLud, 56},
    {"SRAD", "Speckle Reducing Anisotropic Diffusion", "Rodinia",
     AppCategory::kCacheInsensitive, buildSrad, 50},
    {"PA", "Particle Filter", "Rodinia", AppCategory::kCacheInsensitive,
     buildPa, 62},
    {"HISTO", "Histogram", "Parboil", AppCategory::kCacheInsensitive,
     buildHisto, 75},
    {"BP", "Back Propagation", "Rodinia", AppCategory::kCacheInsensitive,
     buildBp, 62},
    {"PF", "PathFinder", "Rodinia", AppCategory::kComputeIntensive, buildPf,
     38},
    {"CS", "ConvolutionSeparable", "CUDA SDK",
     AppCategory::kComputeIntensive, buildCs, 64},
    {"ST", "Stencil", "Parboil", AppCategory::kComputeIntensive, buildSt, 32},
    {"HS", "HotSpot", "Rodinia", AppCategory::kComputeIntensive, buildHs, 32},
    {"SP", "ScalarProd", "CUDA SDK", AppCategory::kComputeIntensive,
     buildSp, 64},
};

} // namespace

const char*
categoryName(AppCategory category)
{
    switch (category) {
      case AppCategory::kCacheSensitive:   return "cache-sensitive";
      case AppCategory::kCacheInsensitive: return "cache-insensitive";
      case AppCategory::kComputeIntensive: return "compute-intensive";
    }
    return "?";
}

Workload
makeWorkload(const std::string& name, double scale)
{
    for (const Meta& m : kMeta) {
        if (name != m.abbr)
            continue;
        // 2^64 is the first trip count a uint64 cannot hold; converting
        // a double outside [0, 2^64) is undefined behaviour.
        const double trips = m.baseTrips * scale;
        if (!(trips >= 0.0 && trips < 0x1p64)) {
            throwConfigError("workload \"" + name + "\": scale " +
                             formatDouble(scale) +
                             " gives a loop trip count outside [0, 2^64)");
        }
        Workload w;
        w.abbr = m.abbr;
        w.fullName = m.full;
        w.suite = m.suite;
        w.category = m.category;
        w.kernel = m.build(
            std::max<std::uint64_t>(8, static_cast<std::uint64_t>(trips)));
        return w;
    }
    throwConfigError("unknown workload \"" + name + "\"");
}

const std::vector<std::string>&
allWorkloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Meta& m : kMeta)
            out.emplace_back(m.abbr);
        return out;
    }();
    return names;
}

std::vector<std::string>
workloadNames(AppCategory category)
{
    std::vector<std::string> out;
    for (const Meta& m : kMeta) {
        if (m.category == category)
            out.emplace_back(m.abbr);
    }
    return out;
}

bool
isMemoryIntensive(const std::string& name)
{
    for (const Meta& m : kMeta) {
        if (name == m.abbr)
            return m.category != AppCategory::kComputeIntensive;
    }
    return false;
}

} // namespace apres
