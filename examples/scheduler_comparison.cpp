/**
 * @file
 * Example: compare all six warp schedulers (and their prefetcher
 * pairings) on one benchmark, printing IPC, L1 behaviour, latency and
 * traffic — a miniature of the paper's Section V.
 *
 * Usage: scheduler_comparison [workload] [scale]
 *
 * Note: cache-sensitive contrasts (especially KM's CCWS-vs-APRES
 * story) need scale 1.0 — scaled-down loops reduce each line's reuse
 * count, not just the runtime.
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

using namespace apres;

int
main(int argc, char** argv)
try {
    const std::string name = argc > 1 ? argv[1] : "SRAD";
    const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;
    const Workload wl = makeWorkload(name, scale);

    std::cout << "Workload " << wl.abbr << " (" << wl.fullName << ", "
              << categoryName(wl.category) << "), scale " << scale
              << "\n\n";

    struct Entry
    {
        const char* sched;
        const char* pf;
    };
    const std::vector<Entry> entries = {
        {"lrr", "none"},
        {"gto", "none"},
        {"pa", "none"},
        {"mascar", "none"},
        {"ccws", "none"},
        {"laws", "none"},
        {"ccws", "str"},
        {"laws", "sap"}, // = APRES
    };

    std::cout << std::left << std::setw(10) << "config" << std::right
              << std::setw(10) << "IPC" << std::setw(10) << "speedup"
              << std::setw(10) << "L1 hit" << std::setw(11) << "load lat"
              << std::setw(13) << "traffic MiB" << '\n';

    double base_ipc = 0.0;
    for (const Entry& e : entries) {
        GpuConfig cfg;
        cfg.scheduler = e.sched;
        cfg.prefetcher = e.pf;
        const RunResult r = simulate(cfg, wl.kernel);
        if (base_ipc == 0.0)
            base_ipc = r.ipc;
        std::cout << std::left << std::setw(10) << cfg.label()
                  << std::right << std::fixed << std::setw(10)
                  << std::setprecision(2) << r.ipc << std::setw(10)
                  << std::setprecision(3) << r.ipc / base_ipc
                  << std::setw(9) << std::setprecision(1)
                  << 100.0 * r.l1HitRate() << "%" << std::setw(11)
                  << std::setprecision(0) << r.avgLoadLatency
                  << std::setw(13) << std::setprecision(1)
                  << r.traffic.interconnectBytes() / (1024.0 * 1024.0)
                  << '\n';
    }
    return 0;
} catch (const SimError& e) {
    // An unknown workload name or an unusable scale.
    std::cerr << e.what() << '\n';
    return 1;
}
