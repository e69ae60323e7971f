/**
 * @file
 * Randomized robustness stress (fixed seed, fully deterministic):
 *
 *  - random kernel shapes x random small machine configurations run
 *    with auditing and the watchdog armed; every run must either
 *    complete or stop at the cycle cap, with zero invariant
 *    violations and zero watchdog trips;
 *  - kernel-text fuzzing: edited and corrupted kernel texts must
 *    either throw a typed KernelError or parse and simulate — never
 *    crash.
 *
 * The generator draws from a private std::mt19937_64 with a fixed
 * seed, so a failure reproduces exactly and CI can bisect it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "isa/address_gen.hpp"
#include "isa/kernel.hpp"
#include "isa/kernel_text.hpp"
#include "sim/config_registry.hpp"
#include "sim/gpu.hpp"
#include "sim_error_matchers.hpp"

namespace apres {
namespace {

constexpr std::uint64_t kStressSeed = 0xA9'7E5'15CA'2016ull;

/** Random but well-formed kernel: loads, ALU chains, stores, barriers. */
Kernel
randomKernel(std::mt19937_64& rng, int index)
{
    KernelBuilder b("stress" + std::to_string(index));
    std::uniform_int_distribution<int> ops(2, 6);
    std::uniform_int_distribution<int> kind(0, 99);
    std::uniform_int_distribution<std::uint64_t> region(1, 200);
    std::uniform_int_distribution<int> alu_count(1, 4);
    std::uniform_int_distribution<std::uint64_t> stride_pow(7, 18);

    int last_reg = -1;
    const int n = ops(rng);
    for (int i = 0; i < n; ++i) {
        const int k = kind(rng);
        const Addr base = Addr{region(rng)} << 22;
        const auto wstride =
            static_cast<std::int64_t>(1ull << stride_pow(rng));
        if (k < 45) {
            AddressGenPtr gen = (k < 15)
                ? AddressGenPtr(std::make_unique<IrregularGen>(
                      base, 1 << 16, 2, 2, 0x1234 + index))
                : AddressGenPtr(std::make_unique<StridedGen>(base, wstride,
                                                             128));
            last_reg = b.load(std::move(gen), 4, kInvalidPc, last_reg);
        } else if (k < 75) {
            last_reg = b.alu(last_reg >= 0 ? std::vector<int>{last_reg}
                                           : std::vector<int>{},
                             alu_count(rng));
        } else if (k < 90) {
            b.store(std::make_unique<StridedGen>(base, wstride, 128),
                    last_reg);
        } else {
            b.barrier(); // block-wide: always safe
        }
    }
    if (last_reg < 0)
        last_reg = b.alu({}, 1);
    std::uniform_int_distribution<std::uint64_t> trips(2, 12);
    return b.build(trips(rng));
}

/** Random small machine: every policy pair, audit + watchdog armed. */
GpuConfig
randomConfig(std::mt19937_64& rng)
{
    static const std::vector<std::pair<const char*, const char*>> combos =
        {{"lrr", "none"},  {"gto", "none"}, {"ccws", "none"},
         {"mascar", "none"}, {"pa", "none"}, {"laws", "none"},
         {"laws", "sap"},  {"lrr", "str"},  {"gto", "sld"}};
    GpuConfig cfg;
    std::uniform_int_distribution<std::size_t> combo(0, combos.size() - 1);
    const auto& [sched, pf] = combos[combo(rng)];
    cfg.scheduler = sched;
    cfg.prefetcher = pf;
    cfg.numSms = std::uniform_int_distribution<int>(1, 4)(rng);
    const int wpsm = std::uniform_int_distribution<int>(1, 4)(rng) * 4;
    cfg.sm.warpsPerSm = wpsm;
    cfg.sm.warpsPerBlock =
        std::uniform_int_distribution<int>(0, 1)(rng) ? wpsm : wpsm / 2;
    cfg.sm.jobsPerWarp = std::uniform_int_distribution<int>(1, 2)(rng);
    cfg.sm.l1.sizeBytes = 1u << std::uniform_int_distribution<int>(12, 15)(rng);
    cfg.sm.l1.numMshrs = std::uniform_int_distribution<int>(4, 64)(rng);
    cfg.fastForward = std::uniform_int_distribution<int>(0, 3)(rng) != 0;
    // Sharding axis: serial, explicit 2/3-way sharding, or the
    // hardware default; counts above numSms clamp, so every draw is
    // legal and the parallel epoch engine fuzzes alongside serial.
    cfg.shards = std::uniform_int_distribution<int>(0, 3)(rng);
    cfg.audit = true;
    cfg.auditInterval = 2'000;
    cfg.watchdogCycles = 2'000'000;
    cfg.maxCycles = 1'500'000;
    cfg.seed = rng();
    return cfg;
}

/**
 * Per-iteration generator seed: each fuzz iteration draws from its
 * own stream, so one iteration replays exactly without re-drawing its
 * predecessors (APRES_STRESS_REPLAY below).
 */
std::uint64_t
iterationSeed(int iteration)
{
    return kStressSeed ^
           (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(iteration + 1));
}

/**
 * The full reproduction tuple of one fuzz iteration: everything the
 * draws produced, printable, so a CI failure log alone is enough to
 * re-run the exact case.
 */
std::string
describeIteration(int iteration, const GpuConfig& cfg,
                  const Kernel& kernel)
{
    std::ostringstream os;
    os << "iteration " << iteration << " (re-run just this case with"
       << " APRES_STRESS_REPLAY=" << iteration << "): iterationSeed=0x"
       << std::hex << iterationSeed(iteration) << std::dec
       << " kernel=" << kernel.name()
       << " trips=" << kernel.tripCount()
       << " config{" << cfg.scheduler << "+" << cfg.prefetcher
       << " numSms=" << cfg.numSms
       << " warpsPerSm=" << cfg.sm.warpsPerSm
       << " warpsPerBlock=" << cfg.sm.warpsPerBlock
       << " jobsPerWarp=" << cfg.sm.jobsPerWarp
       << " l1.sizeBytes=" << cfg.sm.l1.sizeBytes
       << " l1.numMshrs=" << cfg.sm.l1.numMshrs
       << " fastForward=" << (cfg.fastForward ? 1 : 0)
       << " shards=" << cfg.shards
       << " seed=" << cfg.seed << "}";
    return os.str();
}

TEST(Stress, RandomKernelsUnderAuditAndWatchdog)
{
    // APRES_STRESS_REPLAY=<index> re-runs exactly one iteration: the
    // per-iteration seeding above makes the draws independent of
    // every other iteration, so the replayed case is bit-identical to
    // the full run's (the shard count and config seed included, which
    // the fuzzer draws internally).
    int replay = -1;
    if (const char* env = std::getenv("APRES_STRESS_REPLAY"))
        replay = std::atoi(env);

    int audited_runs = 0;
    for (int i = 0; i < 40; ++i) {
        if (replay >= 0 && i != replay)
            continue;
        std::mt19937_64 rng(iterationSeed(i));
        const GpuConfig cfg = randomConfig(rng);
        const Kernel kernel = randomKernel(rng, i);
        SCOPED_TRACE(describeIteration(i, cfg, kernel));
        // Every run must terminate cleanly: completion or the cycle
        // cap. An InvariantViolation or DeadlockError here is a real
        // simulator bug surfaced by the fuzzer.
        Gpu gpu(cfg, kernel);
        const RunResult r = gpu.run();
        EXPECT_GT(r.cycles, 0u);
        if (gpu.auditPasses() > 0)
            ++audited_runs;
    }
    // The audit cadence fired on a healthy majority of runs (not
    // meaningful when replaying a single iteration).
    if (replay < 0) {
        EXPECT_GT(audited_runs, 20);
    }
}

TEST(Stress, KernelTextFuzzParsesOrThrowsTyped)
{
    // Start from a kernel using every generator kind and directive —
    // irregular and zipf included, whose sizes and sharing degrees are
    // divisors — then edit its values and corrupt its characters. A
    // text that parses is also simulated, so a value the parser lets
    // through cannot crash the engine either.
    const std::string clean =
        "kernel fuzz 8\n"
        "gen 0 irregular base=4096 lines=64 sharewarps=2 shareiters=4 "
        "seed=7 lag=1\n"
        "gen 1 zipf base=1048576 lines=512 alpha=1.5 seed=9\n"
        "gen 2 window base=2097152 footprint=8192 iter=128 skew=256 sm=0\n"
        "gen 3 strided base=4194304 warp=1024 iter=49152 sm=0\n"
        "gen 4 uniform addr=65536\n"
        "gen 5 irregular base=8388608 lines=128 seed=3\n"
        "label head\n"
        "load r0 pc=0x100 gen=0 lanestride=8\n"
        "alu r1 r0 lat=8\n"
        "load r2 gen=1 lanes=16 dep=r1\n"
        "sload r3 gen=4 lanestride=4\n"
        "load r4 gen=2\n"
        "sfu r5 r2 r4 lat=20\n"
        "barrier\n"
        "load r6 gen=3 dep=r5\n"
        "store gen=5 src=r6\n"
        "loop head\n";
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 4;
    cfg.sm.warpsPerBlock = 4;
    cfg.sm.jobsPerWarp = 1;
    cfg.maxCycles = 20'000; // the clean kernel drains in ~8.4K
    const Kernel clean_kernel = parseKernelText(clean);
    ASSERT_TRUE(Gpu(cfg, clean_kernel).run().completed);

    // A text either fails as a typed KernelError or parses and then
    // runs to completion or to the cycle cap. Anything else (SIGFPE,
    // segfault, std::bad_alloc, assert) fails by crashing the binary.
    int simulated = 0;
    const auto parseAndRun = [&](const std::string& text) {
        std::optional<Kernel> kernel;
        try {
            kernel.emplace(parseKernelText(text));
        } catch (const SimError& e) {
            EXPECT_EQ(e.kind(), SimErrorKind::kKernel) << e.what();
            return;
        }
        EXPECT_GT(Gpu(cfg, *kernel).run().cycles, 0u) << text;
        ++simulated;
    };

    // Every attribute value in turn, replaced by every edge case: zero,
    // wrap-around, octal and hex look-alikes, int and int64 overflow,
    // non-numbers.
    const std::vector<std::string> edge_values = {
        "0", "1", "-1", "010", "0x10", "0x", "+1", "1e3", "4096",
        "2147483648", "9223372036854775808", "18446744073709551615",
        "99999999999999999999", "abc", ""};
    for (std::size_t eq = clean.find('='); eq != std::string::npos;
         eq = clean.find('=', eq + 1)) {
        const std::size_t end = clean.find_first_of(" \n", eq);
        for (const std::string& value : edge_values) {
            std::string text = clean;
            text.replace(eq + 1, end - eq - 1, value);
            parseAndRun(text);
        }
    }
    // Many edits are legal (`lag=0`, `alpha=-1`, `iter=010`...): the
    // simulation path must stay exercised.
    EXPECT_GT(simulated, 100);

    // Random character overwrites, truncations and duplicated chunks.
    std::mt19937_64 rng(kStressSeed ^ 0xF00D);
    std::uniform_int_distribution<std::size_t> pos(0, clean.size() - 1);
    std::uniform_int_distribution<int> printable(32, 126);
    std::uniform_int_distribution<int> edits(1, 4);
    for (int i = 0; i < 200; ++i) {
        std::string text = clean;
        const int n = edits(rng);
        for (int e = 0; e < n; ++e) {
            if (text.empty())
                break;
            const std::size_t p = pos(rng) % text.size();
            switch (rng() % 3) {
              case 0: // overwrite
                text[p] = static_cast<char>(printable(rng));
                break;
              case 1: // delete tail
                text.erase(p);
                break;
              default: // duplicate a chunk
                text.insert(p, clean.substr(pos(rng) % clean.size(), 16));
                break;
            }
        }
        SCOPED_TRACE("iteration " + std::to_string(i));
        parseAndRun(text);
    }
}

TEST(Stress, RandomConfigAssignmentsRejectedOrApplied)
{
    // Random key=value soup through the registry: it either throws
    // ConfigError, or the machine it configures is rejected as a
    // ConfigError before its first cycle, or that machine builds and
    // steps. The cache geometry keys need the second check: the
    // registry bounds each key alone, so l1.sizeBytes=1000 (zero sets
    // of 8 x 128 B) passes it.
    std::mt19937_64 rng(kStressSeed ^ 0xCAFE);
    const std::vector<std::string> keys = {
        "numSms",       "sm.warpsPerSm", "sm.warpsPerBlock",
        "l1.sizeBytes", "l1.ways",       "l1.lineSize",
        "l1.numMshrs",  "l2.sizeBytes",  "l2.ways",
        "l2.lineSize",  "sap.ptEntries", "sim.auditInterval",
        "sim.watchdogCycles", "no.such.key",
    };
    KernelBuilder b("assignments");
    b.alu({b.load(std::make_unique<StridedGen>(Addr{1} << 22, 128, 128))});
    const Kernel kernel = b.build(2);
    std::uniform_int_distribution<std::size_t> key(0, keys.size() - 1);
    // Half the draws are small, so associativities and line sizes get
    // past the registry's upper bounds.
    std::uniform_int_distribution<int> large(-4, 1'000'000);
    std::uniform_int_distribution<int> small(-4, 300);
    int built = 0;
    int rejected = 0;
    for (int i = 0; i < 300; ++i) {
        GpuConfig cfg;
        ConfigRegistry reg(cfg);
        const std::string& name = keys[key(rng)];
        const int value = rng() % 2 ? small(rng) : large(rng);
        SCOPED_TRACE(name + "=" + std::to_string(value));
        try {
            reg.set(name, std::to_string(value));
        } catch (const SimError& e) {
            EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
            continue;
        }
        // Applied: the structural floors survived.
        EXPECT_GE(cfg.numSms, 1);
        EXPECT_GE(cfg.sm.warpsPerSm, 1);
        std::unique_ptr<Gpu> gpu;
        try {
            gpu = std::make_unique<Gpu>(cfg, kernel);
        } catch (const SimError& e) {
            EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
            ++rejected;
            continue;
        }
        ++built;
        try {
            gpu->step(500);
        } catch (const SimError& e) {
            // A watchdog shorter than a memory round trip trips by
            // design.
            EXPECT_EQ(e.kind(), SimErrorKind::kDeadlock) << e.what();
            EXPECT_EQ(name, "sim.watchdogCycles");
        }
    }
    EXPECT_GT(built, 0);
    EXPECT_GT(rejected, 0);
}

} // namespace
} // namespace apres
