/**
 * @file
 * Diagnostic driver: run one (workload, scheduler, prefetcher) combo
 * and dump the full StatSet plus DRAM channel state.
 *
 * Usage: debug_run WORKLOAD SCHED PF [scale]
 *   SCHED in {lrr,gto,ccws,mascar,pa,laws}; PF in {none,str,sld,sap}
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "sim/config_registry.hpp"
#include "sim/timeline.hpp"

using namespace apres;
using namespace apres::bench;

namespace {

/**
 * APRES_<NAME> environment knobs, mapped onto registry keys so the
 * strict typed parsing and range checks apply to them too.
 */
constexpr std::pair<const char*, const char*> kEnvKnobs[] = {
    {"APRES_MSHRS", "l1.numMshrs"},
    {"APRES_NUM_SMS", "numSms"},
    {"APRES_L1_BYTES", "l1.sizeBytes"},
    {"APRES_LSU_Q", "lsu.queueCapacity"},
    {"APRES_DRAM_INTERVAL", "dram.serviceInterval"},
    {"APRES_CCWS_BONUS", "ccws.scoreBonus"},
    {"APRES_CCWS_CAP", "ccws.scoreCap"},
    {"APRES_CCWS_SCALE", "ccws.throttleScale"},
    {"APRES_CCWS_DECAY", "ccws.decayPeriod"},
    {"APRES_CCWS_MIN", "ccws.minActiveWarps"},
    {"APRES_CCWS_VTA", "ccws.vtaEntries"},
    {"APRES_LAWS_PROMOTE", "laws.promoteOnHit"},
    {"APRES_LAWS_DEMOTE", "laws.demoteOnMiss"},
    {"APRES_LAWS_PFPROMOTE", "laws.promotePrefetchTargets"},
    {"APRES_LAWS_GROUPCAP", "laws.groupCap"},
};

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 4) {
        std::cerr << "usage: debug_run WORKLOAD SCHED PF [scale]\n";
        return 1;
    }
    const std::string name = argv[1];
    GpuConfig cfg;
    ConfigRegistry registry(cfg);
    registry.set("scheduler", argv[2]);
    registry.set("prefetcher", argv[3]);
    const double scale = argc > 4
        ? parsePositiveDoubleOption("scale", argv[4])
        : benchScale();

    // Sensitivity knobs for experiments.
    for (const auto& [env, key] : kEnvKnobs) {
        if (const char* e = std::getenv(env))
            registry.set(key, e);
    }

    const Workload wl = makeWorkload(name, scale);
    Gpu gpu(cfg, wl.kernel);

    // Optional phase profile: GPU-wide IPC per 2000-cycle window.
    RunResult r;
    if (std::getenv("APRES_PROFILE") != nullptr) {
        TimelineRecorder recorder(2000);
        r = recorder.record(gpu);
        for (const TimelineSample& s : recorder.samples())
            std::cerr << "cycle " << s.cycleEnd << " ipc " << s.intervalIpc
                      << '\n';
    } else {
        r = gpu.run();
    }

    std::cout << "== " << name << " under " << cfg.label() << " ==\n";
    r.toStatSet().dump(std::cout);

    for (int p = 0; p < cfg.mem.numPartitions; ++p) {
        const DramStats& d = gpu.memorySystem().dram(p).stats();
        std::cout << "dram" << p << ".requests = " << d.requests
                  << "  avgQueueDelay = " << d.avgQueueDelay() << '\n';
    }

    // Per-warp issue distribution of SM 0 (scheduler fairness view).
    if (std::getenv("APRES_WARPSTATS")) {
        const Sm& sm0 = gpu.sm(0);
        std::uint64_t lo = ~0ull;
        std::uint64_t hi = 0;
        for (int w = 0; w < sm0.numWarps(); ++w) {
            const auto n = sm0.warpState(w).instructionsIssued;
            lo = std::min(lo, n);
            hi = std::max(hi, n);
            std::cout << "warp" << w << ".instructions = " << n << '\n';
        }
        std::cout << "warpstats.spread = " << (hi - lo) << '\n';
    }
    return 0;
}
