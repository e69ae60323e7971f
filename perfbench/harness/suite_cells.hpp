/**
 * @file
 * The paper-suite cell list: every (workload, config) pair the nine
 * bench_fig* drivers and bench_table01 submit, deduplicated on the
 * semantic configuration so a cell shared by several figures runs
 * once.
 */

#ifndef PERFBENCH_SUITE_CELLS_HPP
#define PERFBENCH_SUITE_CELLS_HPP

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One paper driver: the configs it submits and for which apps. */
struct SuiteDriver
{
    std::string name;
    std::vector<std::string> configIds; ///< see suiteOverrides()
    bool memoryIntensiveOnly = false;   ///< Fig. 4 and Table I
};

/** The nine figure drivers plus Table I, as the bench/ sources submit. */
const std::vector<SuiteDriver>& paperSuiteDrivers();

/**
 * Config-key overrides of a driver config id over the Table III
 * defaults: "base" (LRR, no prefetch), "l1-32M" (Fig. 2's huge L1) or
 * "<sched>+<prefetcher>".
 */
std::vector<std::pair<std::string, std::string>>
suiteOverrides(const std::string& id);

/**
 * Identity of a cell: app plus the sorted semantic snapshot of the
 * config @p overrides produce.
 */
std::string cellIdentity(
    const std::string& app,
    const std::vector<std::pair<std::string, std::string>>& overrides);

/** One distinct simulation of the suite. */
struct SuiteCell
{
    std::string app;
    std::string configId; ///< first driver id that produced it
    std::vector<std::pair<std::string, std::string>> overrides;
};

/**
 * Every driver's cells over @p apps, each distinct cellIdentity()
 * once, grouped by app in @p apps order (so the few huge-L1 cells of a
 * batch rarely run at the same time), in driver order within an app.
 */
std::vector<SuiteCell> dedupSuiteCells(
    const std::vector<SuiteDriver>& drivers,
    const std::vector<std::string>& apps);

} // namespace perfbench

#endif // PERFBENCH_SUITE_CELLS_HPP
