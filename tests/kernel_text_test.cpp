/**
 * @file
 * Tests for the declarative kernel text format: generator factory,
 * parsing, round-tripping, and simulation of parsed kernels.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "isa/kernel_text.hpp"
#include "sim/gpu.hpp"
#include "sim_error_matchers.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

TEST(KernelText, ParsesMinimalKernel)
{
    const Kernel k = parseKernelText(
        "kernel mini 4\n"
        "gen 0 uniform addr=4096\n"
        "load r0 gen=0\n"
        "alu r1 r0\n");
    EXPECT_EQ(k.name(), "mini");
    EXPECT_EQ(k.tripCount(), 4u);
    EXPECT_EQ(k.numLoads(), 1);
    EXPECT_EQ(k.code().size(), 4u); // load alu branch exit
}

TEST(KernelText, CommentsAndBlankLinesIgnored)
{
    const Kernel k = parseKernelText(
        "# a comment\n"
        "\n"
        "kernel c 2   # trailing comment\n"
        "gen 0 uniform addr=128\n"
        "load r0 gen=0  # another\n");
    EXPECT_EQ(k.tripCount(), 2u);
}

TEST(KernelText, ParsesAllGeneratorKinds)
{
    const char* kinds[] = {
        "uniform addr=4096",
        "window base=0 footprint=8192 iter=128 skew=64 sm=8192",
        "strided base=4096 warp=2048 iter=98304 sm=0",
        "irregular base=0 lines=512 sharewarps=8 shareiters=2 seed=7 lag=2",
        "zipf base=0 lines=96 alpha=1.2 seed=3",
    };
    for (const char* spec : kinds) {
        const AddressGenPtr gen = parseAddressGen(spec);
        ASSERT_NE(gen, nullptr) << spec;
        // The canonical form round-trips to an equivalent generator.
        const AddressGenPtr again = parseAddressGen(gen->serialize());
        for (int w = 0; w < 48; w += 7) {
            for (std::uint64_t i = 0; i < 40; i += 3) {
                const AddrCtx ctx{1, w, i};
                EXPECT_EQ(gen->base(ctx), again->base(ctx)) << spec;
            }
        }
    }
}

TEST(KernelText, GeneratorReuseIsFatal)
{
    // Each generator binds to exactly one memory instruction.
    expectSimError(SimErrorKind::kKernel, "each may be used once", [] {
        parseKernelText("kernel k 1\n"
                        "gen 0 uniform addr=0\n"
                        "load r0 gen=0\n"
                        "store gen=0 src=r0\n");
    });
}

TEST(KernelText, AttributesApplied)
{
    const Kernel k = parseKernelText(
        "kernel attrs 2\n"
        "gen 0 strided base=4096 warp=128 iter=6144\n"
        "gen 1 uniform addr=65536\n"
        "load r0 pc=0x110 gen=0 lanestride=8 lanes=16\n"
        "alu r1 r0 lat=12\n"
        "load r2 gen=1 dep=r1\n");
    EXPECT_EQ(k.at(0).pc, 0x110u);
    EXPECT_EQ(k.at(0).laneStride, 8);
    EXPECT_EQ(k.at(0).activeLanes, 16);
    EXPECT_EQ(k.at(1).latency, 12);
    EXPECT_EQ(k.at(2).src[0], k.at(1).dst); // dep wired to the alu

    // Numbers are whole decimal or 0x tokens: `010` is ten, not octal
    // eight, and negative strides stay negative.
    const Kernel nums = parseKernelText(
        "kernel nums 2\n"
        "gen 0 irregular base=0x1000 lines=010 sharewarps=2\n"
        "gen 1 strided base=4096 warp=-0x80 iter=-128\n"
        "load r0 gen=0\n"
        "load r1 gen=1 dep=0x0\n");
    EXPECT_EQ(nums.addrGen(0).serialize(),
              "irregular base=4096 lines=10 sharewarps=2 shareiters=1 "
              "seed=1 lag=0");
    EXPECT_EQ(nums.addrGen(1).serialize(),
              "strided base=4096 warp=-128 iter=-128 sm=0");
    EXPECT_EQ(nums.at(1).src[0], nums.at(0).dst);
}

TEST(KernelText, RoundTripPreservesBehaviour)
{
    const Kernel original = parseKernelText(
        "kernel rt 6\n"
        "gen 0 strided base=268435456 warp=4352 iter=208896\n"
        "gen 1 zipf base=536870912 lines=128 alpha=1.0 seed=9\n"
        "gen 2 strided base=805306368 warp=128 iter=6144\n"
        "load r0 gen=0\n"
        "alu r1 r0\n"
        "load r2 gen=1 dep=r1\n"
        "alu r3 r2 lat=8\n"
        "store gen=2 src=r3\n");

    std::ostringstream oss;
    writeKernelText(original, oss);
    const Kernel reparsed = parseKernelText(oss.str());

    ASSERT_EQ(reparsed.code().size(), original.code().size());
    EXPECT_EQ(reparsed.tripCount(), original.tripCount());
    for (std::size_t i = 0; i < original.code().size(); ++i) {
        EXPECT_EQ(reparsed.at(i).op, original.at(i).op) << i;
        EXPECT_EQ(reparsed.at(i).pc, original.at(i).pc) << i;
        EXPECT_EQ(reparsed.at(i).laneStride, original.at(i).laneStride);
    }

    // Identical simulation results.
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    const RunResult a = simulate(cfg, original);
    const RunResult b = simulate(cfg, reparsed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1.demandMisses, b.l1.demandMisses);
}

TEST(KernelText, ErrorsAreFatal)
{
    const auto bad = [](const std::string& text,
                        const std::string& fragment) {
        expectSimError(SimErrorKind::kKernel, fragment,
                       [&] { parseKernelText(text); });
    };
    bad("gen 0 uniform addr=0\n", "before the kernel header");
    bad("kernel k 1\nfrobnicate\n", "unknown directive");
    bad("kernel k 1\ngen 0 nosuchkind a=1\n",
        "unknown address generator kind");
    bad("kernel k 1\ngen 1 uniform addr=0\n", "numbered in order");
    bad("kernel k 1\ngen 0 uniform addr=0\n"
        "load r0 gen=0 dep=r9\n",
        "used before definition");
    bad("kernel k 1\ngen 0 uniform\n", "missing required key");
    bad("", "missing 'kernel NAME TRIPS' header");
    // A header with no instructions must be a typed error, not a
    // Debug-only assert deep in KernelBuilder::build (caught by the
    // coverage CI's Debug run of the kernel-text fuzzer).
    bad("kernel k 1\n", "body is empty");
    bad("kernel k 1\ngen 0 uniform addr=0\n", "body is empty");
    // Attribute ranges the builder would otherwise assert on in Debug
    // builds only: lanes beyond the warp width, non-positive latency.
    bad("kernel k 1\ngen 0 uniform addr=0\n"
        "load r0 gen=0 lanes=33\n",
        "lanes=33 outside");
    bad("kernel k 1\ngen 0 uniform addr=0\n"
        "load r0 gen=0 lanes=0\n",
        "lanes=0 outside");
    bad("kernel k 1\ngen 0 uniform addr=0\n"
        "load r0 gen=0\n"
        "alu r1 r0 lat=0\n",
        "must be a positive cycle count");
    // Zero sizes and sharing degrees would divide by zero inside the
    // generators (their asserts are compiled out of release builds).
    bad("kernel k 1\ngen 0 irregular base=0 lines=0\n", "lines=0 outside");
    bad("kernel k 1\ngen 0 irregular base=0 lines=64 shareiters=0\n",
        "shareiters=0 outside");
    bad("kernel k 1\ngen 0 irregular base=0 lines=64 sharewarps=0\n",
        "sharewarps=0 outside");
    bad("kernel k 1\ngen 0 window base=0 footprint=0\n",
        "footprint=0 outside");
    // Every number is a whole decimal or 0x token: no silent zero, no
    // wrap-around, no octal, no trailing text.
    bad("kernel k 1\ngen 0 zipf base=0 lines=abc\n",
        "lines=abc is not a decimal or 0x integer");
    bad("kernel k 1\ngen 0 irregular base=0 lines=-1\n",
        "lines=-1 is not a decimal or 0x integer");
    bad("kernel k 1\ngen 0 window base=0 footprint=64 iter=zz\n",
        "iter=zz is not a decimal or 0x integer");
    bad("kernel k 1\ngen 0 zipf base=0 lines=64 alpha=x\n",
        "alpha=x is not a finite number");
    bad("kernel k 1\ngen 0 uniform addr=0\nload rX gen=0\n",
        "expected register rN, got 'rX'");
    bad("kernel k 1\ngen 0 uniform addr=0\nload r0 gen=0 lanes=8x\n",
        "lanes=8x is not a decimal or 0x integer");
    bad("kernel k 1\ngen 0 uniform addr=0\nload r0 gen=0\n"
        "alu r1 r0 lat=5cycles\n",
        "must be a positive cycle count");
    bad("kernel k two\n", "expected 'kernel NAME TRIPS'");
    // A zipf table is one 8-byte CDF entry per line: bounded.
    bad("kernel k 1\ngen 0 zipf base=0 lines=100000000000\n",
        "lines=100000000000 outside [1, 1048576]");
    // An ALU op has kMaxSrcRegs operand slots.
    bad("kernel k 1\ngen 0 uniform addr=0\nload r0 gen=0\n"
        "alu r1 r0 r0 r0 r0\n",
        "at most 3 source registers");
    // Generator errors name their line too.
    bad("kernel k 1\ngen 0 uniform addr=0\ngen 1 irregular base=0 "
        "lines=0\n",
        "line 3: generator 'irregular': lines=0");
}

TEST(KernelText, ErrorsCarryLineNumbers)
{
    // The offending line number is part of the error detail, so a bad
    // multi-hundred-line kernel file is diagnosable from the message.
    expectSimError(SimErrorKind::kKernel, "line 3", [] {
        parseKernelText("kernel k 1\n"
                        "gen 0 uniform addr=0\n"
                        "frobnicate\n");
    });
}

TEST(KernelText, DuplicateExplicitPcIsRejected)
{
    // PCs key the LLT/STR/PT tables; two instructions sharing one
    // would silently alias their table entries.
    expectSimError(SimErrorKind::kKernel, "duplicate pc", [] {
        parseKernelText("kernel k 1\n"
                        "gen 0 uniform addr=0\n"
                        "gen 1 uniform addr=64\n"
                        "load r0 gen=0 pc=0x100\n"
                        "load r1 gen=1 pc=0x100\n");
    });
}

TEST(KernelText, LabelsAndLoopsValidated)
{
    // A loop may only target an already-defined label: that makes an
    // out-of-range branch target unrepresentable in kernel text.
    expectSimError(SimErrorKind::kKernel, "unknown label", [] {
        parseKernelText("kernel k 2\n"
                        "gen 0 uniform addr=0\n"
                        "load r0 gen=0\n"
                        "loop nowhere\n");
    });
    expectSimError(SimErrorKind::kKernel, "duplicate label", [] {
        parseKernelText("kernel k 2\n"
                        "label top\n"
                        "label top\n");
    });

    // The happy path: a labelled loop body parses and records the
    // branch target.
    const Kernel k = parseKernelText("kernel k 3\n"
                                     "gen 0 uniform addr=4096\n"
                                     "label top\n"
                                     "load r0 gen=0\n"
                                     "alu r1 r0\n"
                                     "loop top\n");
    EXPECT_EQ(k.tripCount(), 3u);
}

TEST(KernelText, DivergentBarrierIsRejected)
{
    // A barrier that only part of the block can reach deadlocks real
    // hardware; both textual shapes must be rejected at parse time.
    expectSimError(SimErrorKind::kKernel, "divergent context", [] {
        parseKernelText("kernel k 1\n"
                        "gen 0 uniform addr=0\n"
                        "load r0 gen=0 lanes=8\n"
                        "barrier\n");
    });
    expectSimError(SimErrorKind::kKernel, "partial warps= mask", [] {
        parseKernelText("kernel k 1\n"
                        "gen 0 uniform addr=0\n"
                        "load r0 gen=0\n"
                        "barrier warps=0x3\n");
    });

    // Full-width code followed by a barrier stays legal.
    const Kernel k = parseKernelText("kernel k 1\n"
                                     "gen 0 uniform addr=0\n"
                                     "load r0 gen=0\n"
                                     "barrier\n"
                                     "alu r1 r0\n");
    EXPECT_EQ(k.code().size(), 5u); // load barrier alu branch exit
}

/**
 * Property sweep: every Table IV benchmark kernel serializes to text
 * and parses back into a behaviourally identical kernel.
 */
class WorkloadRoundTrip : public testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRoundTrip, SerializeParseSimulateIdentical)
{
    const Workload wl = makeWorkload(GetParam(), 0.05);
    std::ostringstream oss;
    writeKernelText(wl.kernel, oss);
    const Kernel reparsed = parseKernelText(oss.str());

    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.maxCycles = 3'000'000;
    const RunResult a = simulate(cfg, wl.kernel);
    const RunResult b = simulate(cfg, reparsed);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1.demandMisses, b.l1.demandMisses);
    EXPECT_EQ(a.traffic.interconnectBytes(), b.traffic.interconnectBytes());
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadRoundTrip,
                         testing::ValuesIn(allWorkloadNames()),
                         [](const auto& info) { return info.param; });

TEST(KernelText, ReadKernelFileMissingIsKernelError)
{
    expectSimError(SimErrorKind::kKernel, "cannot read kernel file",
                   [] { readKernelFile("/nonexistent/path.kt"); });
}

} // namespace
} // namespace apres
