/**
 * @file
 * Quickstart: build a kernel, run it under the baseline scheduler and
 * under APRES, and compare the headline numbers.
 *
 * Usage: quickstart [workload] [scale]
 *   workload  Table IV abbreviation (default PA)
 *   scale     trip-count multiplier (default 1.0; the cache-sensitive
 *             behaviours need full-length loops to show up — reduced
 *             scales shrink the reuse density, not just the runtime)
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "common/sim_error.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

using namespace apres;

namespace {

void
printRow(const std::string& label, const RunResult& r)
{
    std::cout << std::left << std::setw(10) << label << std::right
              << std::setw(10) << r.cycles << std::setw(10)
              << std::fixed << std::setprecision(3) << r.ipc
              << std::setw(12) << std::setprecision(1)
              << 100.0 * r.l1HitRate() << "%" << std::setw(12)
              << std::setprecision(0) << r.avgLoadLatency << std::setw(14)
              << r.traffic.interconnectBytes() / 1024 << " KiB\n";
}

} // namespace

int
main(int argc, char** argv)
try {
    const std::string name = argc > 1 ? argv[1] : "PA";
    const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

    const Workload wl = makeWorkload(name, scale);
    std::cout << "Workload: " << wl.abbr << " (" << wl.fullName << ", "
              << categoryName(wl.category) << ")\n"
              << "Kernel: " << wl.kernel.numLoads() << " static loads, "
              << wl.kernel.tripCount() << " iterations/warp\n\n";

    std::cout << std::left << std::setw(10) << "config" << std::right
              << std::setw(10) << "cycles" << std::setw(10) << "IPC"
              << std::setw(13) << "L1 hit" << std::setw(12) << "load lat"
              << std::setw(18) << "traffic\n";

    GpuConfig base; // Table III defaults: LRR, no prefetching
    const RunResult baseline = simulate(base, wl.kernel);
    printRow("LRR", baseline);

    GpuConfig apres_cfg;
    apres_cfg.useApres(); // LAWS + SAP
    const RunResult apres_run = simulate(apres_cfg, wl.kernel);
    printRow("APRES", apres_run);

    std::cout << "\nAPRES speedup over baseline: " << std::setprecision(2)
              << apres_run.ipc / baseline.ipc << "x\n";
    return 0;
} catch (const SimError& e) {
    // An unknown workload name or an unusable scale.
    std::cerr << e.what() << '\n';
    return 1;
}
