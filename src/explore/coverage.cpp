/**
 * @file
 * Coverage-bin extraction and the campaign coverage map.
 */

#include "coverage.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>

#include "common/json.hpp"

namespace apres {
namespace {

/** Policy/structural counter prefixes binned by magnitude. */
constexpr std::array<const char*, 7> kCounterPrefixes = {
    "laws.", "sap.", "ccws.", "mascar.", "pa.", "sld.", "trace."};

/** Standalone structural counters binned by magnitude. */
constexpr std::array<const char*, 16> kCounterKeys = {
    "l1.mshrMerges",
    "l1.mshrFullEvents",
    "l1.earlyEvictions",
    "l1.usefulPrefetches",
    "l1.uselessPrefetchEvictions",
    "l1.prefetchDropHit",
    "l1.prefetchDropPending",
    "l1.prefetchDropMshrFull",
    "l1.demandMergedIntoPrefetch",
    "l1.hitAfterMiss",
    "l1.coldMisses",
    "l1.capacityConflictMisses",
    "lsu.mshrReplays",
    "prefetch.requested",
    "prefetch.issued",
    "dram.rowHits"};

/** Ratios binned by decile. */
constexpr std::array<const char*, 3> kRatioKeys = {
    "l1.missRate", "l2.missRate", "l1.earlyEvictionRatio"};

bool
startsWith(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Per-SM breakdown keys ("sm3.l1.missRate") — machine-shape noise. */
bool
isPerSmKey(const std::string& key)
{
    return key.size() > 2 && key[0] == 's' && key[1] == 'm' &&
           std::isdigit(static_cast<unsigned char>(key[2]));
}

/** Magnitude regime of a counter: floor(log2(v)), clamped to [0,24]. */
int
magnitude(double value)
{
    int k = static_cast<int>(std::floor(std::log2(value)));
    return std::min(std::max(k, 0), 24);
}

/** "metrics.<hist>.b3" / ".underflow" / ".overflow" bucket keys. */
bool
isHistogramBucketKey(const std::string& key)
{
    const std::size_t dot = key.rfind('.');
    if (dot == std::string::npos)
        return false;
    const std::string leaf = key.substr(dot + 1);
    if (leaf == "underflow" || leaf == "overflow")
        return true;
    if (leaf.size() >= 2 && leaf[0] == 'b') {
        return std::all_of(leaf.begin() + 1, leaf.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        });
    }
    return false;
}

} // namespace

std::vector<std::string>
coverageBins(const std::string& probe, const RunResult& result)
{
    std::vector<std::string> bins;
    const std::string head = probe + "/";

    bins.push_back(head + "status:" + result.status +
                   (result.status == "ok"
                        ? std::string()
                        : ":" + result.errorKind));
    bins.push_back(head + "completed:" +
                   (result.completed ? "1" : "0"));
    if (result.status != "ok") {
        // Failed rows carry no statistics worth binning.
        std::sort(bins.begin(), bins.end());
        return bins;
    }

    const StatSet stats = result.toStatSet();
    for (const auto& [key, value] : stats.entries()) {
        if (isPerSmKey(key))
            continue;

        for (const char* ratio : kRatioKeys) {
            if (key == ratio) {
                const int decile = std::min(
                    9, static_cast<int>(std::floor(value * 10.0)));
                bins.push_back(head + key + "@d" +
                               std::to_string(std::max(decile, 0)));
            }
        }

        if (value < 1.0)
            continue;

        bool counter = false;
        for (const char* prefix : kCounterPrefixes)
            counter = counter || startsWith(key, prefix);
        for (const char* exact : kCounterKeys)
            counter = counter || key == exact;
        // Histogram buckets matter by occupancy, not magnitude: which
        // bucket is populated is the signal, the count is not.
        if (!counter && startsWith(key, "metrics.") &&
            isHistogramBucketKey(key)) {
            bins.push_back(head + key + ">0");
            continue;
        }
        if (counter) {
            bins.push_back(head + key + "@2^" +
                           std::to_string(magnitude(value)));
        }
    }

    std::sort(bins.begin(), bins.end());
    bins.erase(std::unique(bins.begin(), bins.end()), bins.end());
    return bins;
}

std::vector<std::string>
CoverageMap::add(const std::vector<std::string>& bins)
{
    std::vector<std::string> fresh;
    for (const std::string& bin : bins) {
        auto [it, inserted] = bins_.emplace(bin, 0);
        if (inserted)
            fresh.push_back(bin);
        ++it->second;
    }
    std::sort(fresh.begin(), fresh.end());
    return fresh;
}

bool
CoverageMap::covers(const std::string& bin) const
{
    return bins_.count(bin) != 0;
}

std::uint64_t
CoverageMap::timesLit(const std::string& bin) const
{
    const auto it = bins_.find(bin);
    return it == bins_.end() ? 0 : it->second;
}

double
CoverageMap::rarity(const std::vector<std::string>& bins) const
{
    double score = 0.0;
    for (const std::string& bin : bins) {
        const std::uint64_t n = timesLit(bin);
        if (n > 0)
            score += 1.0 / static_cast<double>(n);
    }
    return score;
}

void
CoverageMap::writeJson(JsonWriter& json) const
{
    json.field("total", static_cast<std::uint64_t>(bins_.size()));
    json.beginArray("bins");
    for (const auto& [name, count] : bins_) {
        json.beginObject();
        json.field("name", name);
        json.field("count", count);
        json.endObject();
    }
    json.endArray();
}

} // namespace apres
