/**
 * @file
 * Tests for the benchmark suite and the oracle characterizer: every
 * Table IV application builds, and the Table I signatures (dominant
 * strides, locality classes) come out of the oracle replay.
 */

#include <gtest/gtest.h>

#include "sim_error_matchers.hpp"
#include "workloads/characterize.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

TEST(Workloads, AllFifteenBuild)
{
    const auto& names = allWorkloadNames();
    ASSERT_EQ(names.size(), 15u);
    for (const std::string& name : names) {
        const Workload wl = makeWorkload(name, 0.1);
        EXPECT_EQ(wl.abbr, name);
        EXPECT_FALSE(wl.kernel.code().empty());
        EXPECT_GE(wl.kernel.numLoads(), 1);
        EXPECT_GE(wl.kernel.tripCount(), 8u);
    }
}

TEST(Workloads, TableIvOrderAndCategories)
{
    const auto& names = allWorkloadNames();
    EXPECT_EQ(names.front(), "BFS");
    EXPECT_EQ(names[4], "KM");
    EXPECT_EQ(names.back(), "SP");

    EXPECT_EQ(workloadNames(AppCategory::kCacheSensitive).size(), 5u);
    EXPECT_EQ(workloadNames(AppCategory::kCacheInsensitive).size(), 5u);
    EXPECT_EQ(workloadNames(AppCategory::kComputeIntensive).size(), 5u);
}

TEST(Workloads, MemoryIntensiveClassification)
{
    EXPECT_TRUE(isMemoryIntensive("BFS"));
    EXPECT_TRUE(isMemoryIntensive("HISTO"));
    EXPECT_FALSE(isMemoryIntensive("SP"));
    EXPECT_FALSE(isMemoryIntensive("PF"));
}

TEST(Workloads, ScaleControlsTripCount)
{
    const Workload small = makeWorkload("KM", 0.1);
    const Workload big = makeWorkload("KM", 1.0);
    EXPECT_LT(small.kernel.tripCount(), big.kernel.tripCount());
}

TEST(Workloads, UnknownNameIsConfigError)
{
    expectSimError(SimErrorKind::kConfig, "unknown workload \"NOPE\"",
                   [] { makeWorkload("NOPE"); });
}

TEST(Workloads, ScaleBeyondSixtyFourBitTripsIsConfigError)
{
    // KM's 241 base trips x 1e17 is past 2^64; BFS's 64 x 1e17 fits.
    for (const double scale : {1e300, 1e17}) {
        expectSimError(SimErrorKind::kConfig, "workload \"KM\": scale",
                       [scale] { makeWorkload("KM", scale); });
    }
    expectSimError(SimErrorKind::kConfig, "scale -1",
                   [] { makeWorkload("SP", -1.0); });
    EXPECT_EQ(makeWorkload("BFS", 1e17).kernel.tripCount(),
              6'400'000'000'000'000'000ull);
    EXPECT_EQ(makeWorkload("KM", 0.0001).kernel.tripCount(), 8u);
}

TEST(Characterize, KmSignature)
{
    // Table I: KM's single load has stride 4352 and strong reuse.
    const Workload wl = makeWorkload("KM", 1.0);
    CharacterizeOptions opt;
    opt.maxIters = 96;
    const auto profiles = characterizeKernel(wl.kernel, opt);
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_EQ(profiles[0].dominantStride, 4352);
    EXPECT_GT(profiles[0].dominantStrideShare, 0.9);
    // #L/#R far below 1: lines reused many times.
    EXPECT_LT(profiles[0].uniqueLinesPerRef, 0.3);
}

TEST(Characterize, NwSignature)
{
    // Table I: NW strides are -1966080 with #L/#R ~ 1 (no reuse).
    const Workload wl = makeWorkload("NW", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    ASSERT_GE(profiles.size(), 2u);
    for (const auto& p : profiles) {
        EXPECT_EQ(p.dominantStride, -1966080);
        EXPECT_GT(p.dominantStrideShare, 0.9);
        EXPECT_GT(p.uniqueLinesPerRef, 0.9);
    }
}

TEST(Characterize, SradStrideSignature)
{
    const Workload wl = makeWorkload("SRAD", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    ASSERT_GE(profiles.size(), 3u);
    // The three diffusion loads stride by 16384 between warps.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(profiles[static_cast<std::size_t>(i)].dominantStride,
                  16384);
    }
}

TEST(Characterize, BfsHasNoDominantStride)
{
    // Table I: BFS strides are 0-dominated with a small share —
    // irregular accesses have no usable stride.
    const Workload wl = makeWorkload("BFS", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    for (const auto& p : profiles)
        EXPECT_LT(p.dominantStrideShare, 0.5);
}

TEST(Characterize, BfsHasHighLocality)
{
    const Workload wl = makeWorkload("BFS", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    // Strong inter-warp sharing: far fewer unique lines than refs.
    for (const auto& p : profiles)
        EXPECT_LT(p.uniqueLinesPerRef, 0.5);
}

TEST(Characterize, HistoPureStream)
{
    const Workload wl = makeWorkload("HISTO", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    ASSERT_EQ(profiles.size(), 1u);
    EXPECT_EQ(profiles[0].dominantStride, 512);
    EXPECT_GT(profiles[0].dominantStrideShare, 0.9);
}

TEST(Characterize, BpMixesStreamsAndLocality)
{
    const Workload wl = makeWorkload("BP", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    ASSERT_EQ(profiles.size(), 3u);
    // Two 128 B streams...
    EXPECT_EQ(profiles[0].dominantStride, 128);
    EXPECT_EQ(profiles[1].dominantStride, 128);
    // ...and one high-locality table (24 KB window).
    EXPECT_LT(profiles[2].uniqueLinesPerRef, 0.2);
}

TEST(Characterize, LoadSharesSumToOne)
{
    const Workload wl = makeWorkload("SPMV", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    double total = 0.0;
    for (const auto& p : profiles)
        total += p.loadShare;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Characterize, PcsMatchTableI)
{
    const Workload wl = makeWorkload("BFS", 1.0);
    const auto profiles = characterizeKernel(wl.kernel);
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_EQ(profiles[0].pc, 0x110u);
    EXPECT_EQ(profiles[1].pc, 0xF0u);
    EXPECT_EQ(profiles[2].pc, 0x198u);
}

} // namespace
} // namespace apres
