/**
 * @file
 * Example: sweep prefetcher parameters on a streaming workload —
 * STR's degree and table size, SAP's prefetch-table size, and the
 * MSHR saturation gate — and print speedup plus prefetch-quality
 * metrics (accuracy-relevant counters and early evictions).
 *
 * Usage: prefetcher_tuning [workload] [scale]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common/sim_error.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

using namespace apres;

namespace {

void
report(const std::string& label, const RunResult& r, double base_ipc)
{
    std::cout << std::left << std::setw(16) << label << std::right
              << std::fixed << std::setw(9) << std::setprecision(3)
              << r.ipc / base_ipc << std::setw(11) << r.prefetchesIssued
              << std::setw(10) << r.l1.usefulPrefetches << std::setw(10)
              << r.l1.demandMergedIntoPrefetch << std::setw(9)
              << std::setprecision(3) << r.earlyEvictionRatio() << '\n';
}

} // namespace

int
main(int argc, char** argv)
try {
    const std::string name = argc > 1 ? argv[1] : "PA";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
    const Workload wl = makeWorkload(name, scale);

    std::cout << "Prefetcher tuning on " << wl.abbr << " (scale " << scale
              << ")\n\n";
    std::cout << std::left << std::setw(16) << "config" << std::right
              << std::setw(9) << "speedup" << std::setw(11) << "issued"
              << std::setw(10) << "useful" << std::setw(10) << "merged"
              << std::setw(9) << "earlyEv" << '\n';

    GpuConfig base;
    const RunResult rb = simulate(base, wl.kernel);
    report("LRR (no pf)", rb, rb.ipc);

    for (const int degree : {2, 4, 8, 16}) {
        GpuConfig cfg;
        cfg.scheduler = "ccws";
        cfg.prefetcher = "str";
        cfg.str.degree = degree;
        const RunResult r = simulate(cfg, wl.kernel);
        report("CCWS+STR d=" + std::to_string(degree), r, rb.ipc);
    }

    for (const int pt : {2, 5, 10, 20}) {
        GpuConfig cfg;
        cfg.useApres();
        cfg.sap.ptEntries = pt;
        const RunResult r = simulate(cfg, wl.kernel);
        report("APRES pt=" + std::to_string(pt), r, rb.ipc);
    }

    for (const double gate : {0.5, 0.85, 1.0}) {
        GpuConfig cfg;
        cfg.useApres();
        cfg.sm.prefetchMshrGate = gate;
        const RunResult r = simulate(cfg, wl.kernel);
        std::ostringstream label;
        label << "APRES gate=" << std::setprecision(2) << gate;
        report(label.str(), r, rb.ipc);
    }
    return 0;
} catch (const SimError& e) {
    // An unknown workload name or an unusable scale.
    std::cerr << e.what() << '\n';
    return 1;
}
