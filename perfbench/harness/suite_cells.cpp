/**
 * @file
 * Paper-suite cell list implementation.
 */

#include "harness/suite_cells.hpp"

#include <set>

#include "sim/config_registry.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

const std::vector<SuiteDriver>&
paperSuiteDrivers()
{
    static const std::vector<SuiteDriver> drivers = {
        {"fig02_miss_breakdown", {"base", "l1-32M"}},
        {"fig03_sched_prefetch_combos",
         {"base", "pa+str", "pa+sld", "gto+str", "gto+sld", "mascar+str",
          "mascar+sld", "ccws+str", "ccws+sld"}},
        {"fig04_early_eviction_str",
         {"pa+str", "gto+str", "mascar+str", "ccws+str"},
         true},
        {"fig10_performance",
         {"base", "ccws+none", "laws+none", "ccws+str", "laws+str",
          "laws+sap"}},
        {"fig11_cache_breakdown",
         {"base", "ccws+none", "laws+none", "ccws+str", "laws+sap"}},
        {"fig12_early_eviction", {"ccws+str", "laws+sap"}},
        {"fig13_memory_latency", {"base", "ccws+str", "laws+sap"}},
        {"fig14_traffic", {"base", "ccws+str", "laws+sap"}},
        {"fig15_energy", {"base", "ccws+str", "laws+sap"}},
        {"table01_load_characterization", {"base"}, true},
    };
    return drivers;
}

std::vector<std::pair<std::string, std::string>>
suiteOverrides(const std::string& id)
{
    if (id == "base")
        return {};
    if (id == "l1-32M")
        return {{"l1.sizeBytes", std::to_string(32u * 1024 * 1024)}};
    const std::size_t plus = id.find('+');
    return {{"scheduler", id.substr(0, plus)},
            {"prefetcher", id.substr(plus + 1)}};
}

std::string
cellIdentity(const std::string& app,
             const std::vector<std::pair<std::string, std::string>>& overrides)
{
    apres::GpuConfig config;
    apres::ConfigRegistry registry(config);
    for (const auto& [key, value] : overrides)
        registry.set(key, value);
    std::string identity = app;
    for (const auto& [key, value] : registry.semanticSnapshot())
        identity += "|" + key + "=" + value;
    return identity;
}

std::vector<SuiteCell>
dedupSuiteCells(const std::vector<SuiteDriver>& drivers,
                const std::vector<std::string>& apps)
{
    std::vector<SuiteCell> cells;
    std::set<std::string> seen;
    for (const std::string& app : apps) {
        for (const SuiteDriver& driver : drivers) {
            if (driver.memoryIntensiveOnly && !apres::isMemoryIntensive(app))
                continue;
            for (const std::string& id : driver.configIds) {
                auto overrides = suiteOverrides(id);
                if (seen.insert(cellIdentity(app, overrides)).second)
                    cells.push_back({app, id, std::move(overrides)});
            }
        }
    }
    return cells;
}

} // namespace perfbench
