/**
 * @file
 * Unit tests for the STR and SLD prefetchers.
 */

#include <gtest/gtest.h>

#include "fake_sm.hpp"
#include "prefetch/sld.hpp"
#include "prefetch/str.hpp"

namespace apres {
namespace {

LoadAccessInfo
access(Pc pc, Addr addr, WarpId warp = 0, bool hit = false)
{
    LoadAccessInfo info;
    info.pc = pc;
    info.warp = warp;
    info.baseAddr = addr;
    info.baseLineAddr = addr & ~Addr{127};
    info.hit = hit;
    return info;
}

TEST(Str, DetectsStrideAfterTraining)
{
    StrPrefetcher str({.tableEntries = 4, .degree = 2, .trainThreshold = 2});
    RecordingIssuer issuer;
    // Stride 4352 between consecutive executions of PC 0x100.
    str.onAccess(access(0x100, 10000), issuer);
    str.onAccess(access(0x100, 14352), issuer);  // stride learned
    str.onAccess(access(0x100, 18704), issuer);  // confidence 2 -> fire
    ASSERT_EQ(issuer.requests.size(), 2u);
    EXPECT_EQ(issuer.requests[0].addr, 18704u + 4352);
    EXPECT_EQ(issuer.requests[1].addr, 18704u + 2 * 4352);
}

TEST(Str, NoPrefetchBeforeConfidence)
{
    StrPrefetcher str({.tableEntries = 4, .degree = 2, .trainThreshold = 2});
    RecordingIssuer issuer;
    str.onAccess(access(0x100, 1000), issuer);
    str.onAccess(access(0x100, 2000), issuer);
    EXPECT_TRUE(issuer.requests.empty());
}

TEST(Str, NegativeStrideSupported)
{
    StrPrefetcher str({.tableEntries = 4, .degree = 1, .trainThreshold = 2});
    RecordingIssuer issuer;
    const Addr base = 0x10'0000'0000ull;
    str.onAccess(access(0x490, base), issuer);
    str.onAccess(access(0x490, base - 1966080), issuer);
    str.onAccess(access(0x490, base - 2 * 1966080), issuer);
    ASSERT_EQ(issuer.requests.size(), 1u);
    EXPECT_EQ(issuer.requests[0].addr, base - 3 * 1966080);
}

TEST(Str, HysteresisSurvivesOneOutlier)
{
    StrPrefetcher str({.tableEntries = 4, .degree = 1, .trainThreshold = 2});
    RecordingIssuer issuer;
    str.onAccess(access(0x100, 1000), issuer);
    str.onAccess(access(0x100, 2000), issuer); // stride 1000, conf 1
    str.onAccess(access(0x100, 3000), issuer); // conf 2 -> fires
    const auto fired = issuer.requests.size();
    EXPECT_GE(fired, 1u);
    str.onAccess(access(0x100, 9999), issuer);  // outlier: conf--
    str.onAccess(access(0x100, 10999), issuer); // stride 1000 again
    str.onAccess(access(0x100, 11999), issuer); // confidence recovered
    EXPECT_GT(issuer.requests.size(), fired);
    EXPECT_EQ(issuer.requests.back().addr, 11999u + 1000);
}

TEST(Str, PerPcEntriesIndependent)
{
    StrPrefetcher str({.tableEntries = 4, .degree = 1, .trainThreshold = 2});
    RecordingIssuer issuer;
    // Interleave two PCs with different strides.
    str.onAccess(access(0x100, 1000), issuer);
    str.onAccess(access(0x200, 50000), issuer);
    str.onAccess(access(0x100, 1128), issuer);
    str.onAccess(access(0x200, 50512), issuer);
    str.onAccess(access(0x100, 1256), issuer);
    str.onAccess(access(0x200, 51024), issuer);
    ASSERT_EQ(issuer.requests.size(), 2u);
    EXPECT_EQ(issuer.requests[0].addr, 1256u + 128);
    EXPECT_EQ(issuer.requests[1].addr, 51024u + 512);
}

TEST(Str, TableReplacementEvictsLru)
{
    StrPrefetcher str({.tableEntries = 2, .degree = 1, .trainThreshold = 2});
    RecordingIssuer issuer;
    // Train PC A fully.
    str.onAccess(access(0xA, 100), issuer);
    str.onAccess(access(0xA, 200), issuer);
    // Touch two more PCs: PC A gets evicted (2-entry table).
    str.onAccess(access(0xB, 0), issuer);
    str.onAccess(access(0xC, 0), issuer);
    // PC A restarts training: no immediate prefetch.
    issuer.requests.clear();
    str.onAccess(access(0xA, 300), issuer);
    EXPECT_TRUE(issuer.requests.empty());
}

TEST(Sld, FiresAfterTwoLinesOfMacroBlock)
{
    SldPrefetcher sld({.linesPerBlock = 4, .tableEntries = 8}, 128);
    RecordingIssuer issuer;
    // Macro block = 512 B. Touch lines 0 and 1 of block at 0x2000.
    sld.onAccess(access(0x100, 0x2000), issuer);
    EXPECT_TRUE(issuer.requests.empty());
    sld.onAccess(access(0x100, 0x2080), issuer);
    ASSERT_EQ(issuer.requests.size(), 2u);
    EXPECT_EQ(issuer.requests[0].addr, 0x2100u);
    EXPECT_EQ(issuer.requests[1].addr, 0x2180u);
}

TEST(Sld, FiresOncePerBlock)
{
    SldPrefetcher sld{SldConfig{}, 128};
    RecordingIssuer issuer;
    sld.onAccess(access(0x100, 0x2000), issuer);
    sld.onAccess(access(0x100, 0x2080), issuer);
    const auto fired = issuer.requests.size();
    sld.onAccess(access(0x100, 0x2100), issuer);
    sld.onAccess(access(0x100, 0x2180), issuer);
    EXPECT_EQ(issuer.requests.size(), fired);
}

TEST(Sld, LargeStridesNeverCoTouchABlock)
{
    // The paper's point: strides beyond two lines defeat macro-block
    // prefetching entirely.
    SldPrefetcher sld{SldConfig{}, 128};
    RecordingIssuer issuer;
    for (int i = 0; i < 16; ++i)
        sld.onAccess(access(0x100, static_cast<Addr>(i) * 4352), issuer);
    EXPECT_TRUE(issuer.requests.empty());
}

TEST(Sld, SmallStridesCovered)
{
    // 256 B stride = 2 lines: every other line of each block is
    // touched, so the second touch of a block fires.
    SldPrefetcher sld{SldConfig{}, 128};
    RecordingIssuer issuer;
    for (int i = 0; i < 8; ++i)
        sld.onAccess(access(0x100, static_cast<Addr>(i) * 256), issuer);
    EXPECT_FALSE(issuer.requests.empty());
}

} // namespace
} // namespace apres
