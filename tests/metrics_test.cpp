/**
 * @file
 * Metrics registry tests: histogram bucket arithmetic at the edges of
 * the uint64 range, cross-SM merging, StatSet folding, and round-trips
 * through the RFC-4180 CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

// ---------------------------------------------------------------------
// Bucket boundaries
// ---------------------------------------------------------------------

TEST(MetricsHistogram, BucketBoundariesAreHalfOpen)
{
    // Buckets: [10,15) [15,20) [20,25) [25,30); <10 under, >=30 over.
    MetricsHistogram h("h", /*lo=*/10, /*width=*/5, /*num_buckets=*/4);
    h.add(9);  // underflow, by one
    h.add(10); // exact lower edge -> b0
    h.add(14); // last value of b0
    h.add(15); // exact boundary -> b1
    h.add(29); // last regular value
    h.add(30); // first overflow value
    h.add(0);  // deep underflow

    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 9 + 10 + 14 + 15 + 29 + 30 + 0);
    EXPECT_EQ(h.bucketLo(0), 10u);
    EXPECT_EQ(h.bucketLo(3), 25u);
}

TEST(MetricsHistogram, SingleValueLandsInExactlyOneBin)
{
    MetricsHistogram h("h", 0, 32, 8);
    h.add(31);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    std::uint64_t occupied = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        occupied += h.bucketCount(i);
    EXPECT_EQ(occupied, 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(MetricsHistogram, MaxUint64ClassifiesWithoutWrapping)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();

    // With lo > 0 the index subtraction must not wrap: max lands in
    // overflow, not in a bogus regular bucket.
    MetricsHistogram h("h", /*lo=*/100, /*width=*/7, /*num_buckets=*/3);
    h.add(max);
    EXPECT_EQ(h.overflow(), 1u);

    // And when the bucket range actually reaches the top of the
    // domain, max must land in its regular bucket.
    MetricsHistogram top("top", max - 10, /*width=*/11, /*num_buckets=*/1);
    top.add(max);
    EXPECT_EQ(top.overflow(), 0u);
    EXPECT_EQ(top.bucketCount(0), 1u);

    // Underflow of a high-lo histogram.
    MetricsHistogram hi("hi", max - 1, 1, 1);
    hi.add(0);
    EXPECT_EQ(hi.underflow(), 1u);
}

// ---------------------------------------------------------------------
// Merging (per-SM registries folding into one report)
// ---------------------------------------------------------------------

TEST(MetricsRegistry, MergeSumsHistogramsAndCounters)
{
    MetricsRegistry sm0;
    MetricsRegistry sm1;
    sm0.loadToUse.add(5);
    sm0.loadToUse.add(40);
    sm1.loadToUse.add(40);

    sm0.merge(sm1);
    EXPECT_EQ(sm0.loadToUse.count(), 3u);
    EXPECT_DOUBLE_EQ(sm0.loadToUse.sum(), 85.0);
    EXPECT_EQ(sm0.loadToUse.bucketCount(0), 1u); // 5 in [0,32)
    EXPECT_EQ(sm0.loadToUse.bucketCount(1), 2u); // both 40s in [32,64)
    // The source registry is unchanged.
    EXPECT_EQ(sm1.loadToUse.count(), 1u);
}

// ---------------------------------------------------------------------
// Reporting: StatSet keys, CSV
// ---------------------------------------------------------------------

TEST(MetricsRegistry, ReportsUnderMetricsKeyPrefix)
{
    MetricsRegistry m;
    m.loadToUse.add(100);
    StatSet out;
    m.report(out);

    EXPECT_DOUBLE_EQ(out.get("metrics.loadToUse.count"), 1.0);
    EXPECT_DOUBLE_EQ(out.get("metrics.loadToUse.sum"), 100.0);
    EXPECT_DOUBLE_EQ(out.get("metrics.loadToUse.b3"), 1.0); // [96,128)
    EXPECT_DOUBLE_EQ(out.get("metrics.loadToUse.underflow"), 0.0);
    EXPECT_DOUBLE_EQ(out.get("metrics.loadToUse.overflow"), 0.0);
    // Every declared histogram reports, touched or not.
    EXPECT_TRUE(out.has("metrics.mshrOccupancy.count"));
    EXPECT_TRUE(out.has("metrics.wgtGroupLifetime.count"));
    EXPECT_TRUE(out.has("metrics.prefetchTimeliness.count"));
}

/**
 * Minimal RFC-4180 line splitter for the round-trip check: handles
 * quoted fields with embedded commas and doubled quotes (exactly what
 * csvEscapeField produces).
 */
std::vector<std::string>
splitCsvLine(const std::string& line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (quoted) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += ch;
            }
        } else if (ch == '"') {
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    fields.push_back(cur);
    return fields;
}

TEST(MetricsRegistry, HistogramRowsRoundTripThroughCsv)
{
    MetricsRegistry m;
    m.loadToUse.add(0);
    m.loadToUse.add(33);
    m.loadToUse.add(1u << 20); // overflow
    m.mshrOccupancy.add(3);
    StatSet row;
    m.report(row);

    // A label with comma, quote and newline exercises the RFC-4180
    // escaping path end to end.
    const std::string label = "KM,laws+sap \"run\"\n1";
    CsvWriter csv("label");
    csv.addRow(label, row);
    std::ostringstream os;
    csv.write(os);

    // Parse back: header line, then the row (the embedded newline is
    // inside quotes, so split records by scanning quote state).
    const std::string text = os.str();
    std::vector<std::string> records;
    {
        std::string cur;
        bool quoted = false;
        for (const char ch : text) {
            if (ch == '"')
                quoted = !quoted;
            if (ch == '\n' && !quoted) {
                records.push_back(cur);
                cur.clear();
            } else {
                cur += ch;
            }
        }
        if (!cur.empty())
            records.push_back(cur);
    }
    ASSERT_EQ(records.size(), 2u);
    const std::vector<std::string> header = splitCsvLine(records[0]);
    const std::vector<std::string> fields = splitCsvLine(records[1]);
    ASSERT_EQ(header.size(), fields.size());
    ASSERT_GT(header.size(), 1u);
    EXPECT_EQ(header[0], "label");
    EXPECT_EQ(fields[0], label);

    // Every reported stat survives the trip at full double precision.
    for (std::size_t i = 1; i < header.size(); ++i) {
        ASSERT_TRUE(row.has(header[i])) << header[i];
        EXPECT_EQ(std::stod(fields[i]), row.get(header[i])) << header[i];
    }
    // Spot-check the interesting bins made it.
    const auto column = [&](const std::string& key) {
        for (std::size_t i = 1; i < header.size(); ++i) {
            if (header[i] == key)
                return std::stod(fields[i]);
        }
        ADD_FAILURE() << "missing column " << key;
        return -1.0;
    };
    EXPECT_EQ(column("metrics.loadToUse.count"), 3.0);
    EXPECT_EQ(column("metrics.loadToUse.overflow"), 1.0);
    EXPECT_EQ(column("metrics.mshrOccupancy.count"), 1.0);
}

// ---------------------------------------------------------------------
// End-to-end: a metrics-enabled run populates the histograms
// ---------------------------------------------------------------------

TEST(Metrics, EndToEndRunPopulatesHistogramsInStats)
{
    const Workload wl = makeWorkload("KM", 0.02);
    GpuConfig cfg;
    cfg.useApres(); // LAWS+SAP: exercises WGT lifetime + timeliness
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    cfg.metrics = true;
    const RunResult r = simulate(cfg, wl.kernel);
    ASSERT_TRUE(r.completed);
    const StatSet stats = r.toStatSet();
    EXPECT_GT(stats.get("metrics.loadToUse.count"), 0.0);
    EXPECT_GT(stats.get("metrics.mshrOccupancy.count"), 0.0);
    EXPECT_GT(stats.get("metrics.wgtGroupLifetime.count"), 0.0);
    // Every load-to-use sample is a positive latency: bucket 0 starts
    // at 0 cycles but the sum must be positive.
    EXPECT_GT(stats.get("metrics.loadToUse.sum"), 0.0);
}

TEST(Metrics, OffByDefaultAddsNoStatKeys)
{
    const Workload wl = makeWorkload("NW", 0.02);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.sm.warpsPerSm = 8;
    cfg.sm.warpsPerBlock = 8;
    cfg.sm.jobsPerWarp = 1;
    const RunResult r = simulate(cfg, wl.kernel);
    const StatSet stats = r.toStatSet();
    for (const auto& [key, value] : stats.entries()) {
        (void)value;
        EXPECT_EQ(key.rfind("metrics.", 0), std::string::npos) << key;
    }
}

} // namespace
} // namespace apres
