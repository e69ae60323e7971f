/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the percentile rule,
 * failed_frac, the two idle-share formulas and the paper-suite cell
 * list. Run with `python3 perfbench/run.py --self-test`.
 */

#include <cmath>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "harness/bench_math.hpp"
#include "harness/suite_cells.hpp"
#include "workloads/workload.hpp"

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(static_cast<double>(i)); // unsorted on purpose
    return v;
}

void
testPercentiles()
{
    using namespace perfbench;
    expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
    expect(near(median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
    expect(near(median({}), 0.0), "empty median");
    expect(near(percentile(ramp(1000), 99.0), 990.0), "p99 of 1..1000");
    expect(near(percentile(ramp(100), 90.0), 90.0), "p90 of 1..100");
    expect(near(percentile(ramp(5), 100.0), 5.0), "p100 is the max");

    expect(samplesBeyond(1000, 99.0) == 10, "1000 @ p99 leaves 10");
    expect(samplesBeyond(999, 99.0) == 9, "999 @ p99 leaves 9");
    expect(samplesBeyond(100, 90.0) == 10, "100 @ p90 leaves 10");

    // The ten-samples-beyond rule picks the highest legal percentile.
    expect(near(reportablePercentile(1000, 99.0), 99.0), "1000 keeps p99");
    expect(near(reportablePercentile(999, 99.0), 95.0), "999 falls to p95");
    expect(near(reportablePercentile(100, 90.0), 90.0), "100 keeps p90");
    expect(near(reportablePercentile(99, 90.0), 75.0), "99 falls to p75");
    expect(near(reportablePercentile(20, 99.0), 50.0), "20 falls to p50");
    expect(near(reportablePercentile(19, 99.0), 0.0), "19 has no tail");
    expect(near(reportablePercentile(100000, 99.0), 99.0),
           "never above the wanted percentile");
}

void
testFailedFrac()
{
    using perfbench::failedFrac;
    expect(near(failedFrac(0, 250), 0.0), "no failures");
    expect(near(failedFrac(5, 250), 0.02), "5 of 250");
    expect(near(failedFrac(3, 3), 1.0), "all failed");
    expect(near(failedFrac(0, 0), 1.0), "nothing attempted counts as failed");
}

void
testIdleFormulas()
{
    using namespace perfbench;
    // 4 workers for 2 s = 8 worker-seconds; jobs used 6 of them.
    expect(near(workerIdleFrac(6.0, 4, 2.0), 0.25), "worker idle 0.25");
    expect(near(workerIdleFrac(8.0, 4, 2.0), 0.0), "fully busy");
    expect(near(workerIdleFrac(8.4, 4, 2.0), 0.0), "timer skew floors at 0");
    expect(near(workerIdleFrac(1.0, 0, 2.0), 0.0), "no workers");
    // 80 SMs x 1000 cycles, 72000 idle SM-cycles.
    expect(near(idleSmCycleFrac(72000.0, 1000.0, 80.0), 0.9),
           "idle SM share 0.9");
    expect(near(idleSmCycleFrac(5.0, 0.0, 15.0), 0.0), "zero cycles");
    expect(near(geomean({1.0, 4.0}), 2.0), "geomean");
    expect(near(geomean({1.0, 0.0}), 0.0), "geomean of a zero");
}

void
testDigest()
{
    apres::StatSet a;
    a.set("x", 1.0);
    a.set("y", 0.1 + 0.2);
    apres::StatSet b;
    b.set("y", 0.3);
    b.set("x", 1.0);
    expect(perfbench::statDigest(a) != perfbench::statDigest(b),
           "digest sees the last bit of a double");
    b.set("y", 0.1 + 0.2);
    expect(perfbench::statDigest(a) == perfbench::statDigest(b),
           "equal sets share a digest");
}

void
testSuiteCells()
{
    using namespace perfbench;
    const auto& apps = apres::allWorkloadNames();
    const std::vector<SuiteCell> cells =
        dedupSuiteCells(paperSuiteDrivers(), apps);

    std::set<std::string> identities;
    for (const SuiteCell& cell : cells)
        identities.insert(cellIdentity(cell.app, cell.overrides));
    expect(identities.size() == cells.size(), "no cell appears twice");
    expect(cells.size() == apps.size() * 14,
           "15 workloads x 14 distinct configs, got " +
               std::to_string(cells.size()));

    std::size_t submitted = 0;
    for (const SuiteDriver& driver : paperSuiteDrivers()) {
        for (const std::string& app : apps) {
            if (driver.memoryIntensiveOnly && !apres::isMemoryIntensive(app))
                continue;
            for (const std::string& id : driver.configIds) {
                ++submitted;
                expect(identities.count(
                           cellIdentity(app, suiteOverrides(id))) == 1,
                       driver.name + " cell " + app + "/" + id + " missing");
            }
        }
    }
    expect(submitted > cells.size(), "the drivers repeat cells");
    expect(cellIdentity("KM", suiteOverrides("base")) ==
               cellIdentity("KM", suiteOverrides("lrr+none")),
           "base is LRR without prefetching");
    expect(cellIdentity("KM", suiteOverrides("base")) !=
               cellIdentity("KM", suiteOverrides("l1-32M")),
           "the 32 MB L1 is its own cell");
}

} // namespace

int
main()
{
    testPercentiles();
    testFailedFrac();
    testIdleFormulas();
    testDigest();
    testSuiteCells();
    if (failures == 0)
        std::cout << "perfbench_tests: all passed\n";
    return failures == 0 ? 0 : 1;
}
