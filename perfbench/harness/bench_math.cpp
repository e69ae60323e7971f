/**
 * @file
 * Benchmark arithmetic implementation.
 */

#include "harness/bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = p / 100.0 * static_cast<double>(n);
    // Guard against 0.99 * 1000 = 989.9999...: round to the nearest
    // integer when the product is within float noise of it.
    const double rounded = std::round(exact);
    const double rank =
        std::fabs(exact - rounded) < 1e-9 ? rounded : std::ceil(exact);
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
reportablePercentile(std::size_t n, double wanted)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    if (samplesBeyond(n, wanted) >= 10)
        return wanted;
    for (double p : kLadder) {
        if (p < wanted && samplesBeyond(n, p) >= 10)
            return p;
    }
    return 0.0;
}

double
failedFrac(std::uint64_t failed, std::uint64_t attempted)
{
    if (attempted == 0)
        return 1.0;
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

double
workerIdleFrac(double sum_job_wall_s, int workers, double batch_wall_s)
{
    if (workers <= 0 || batch_wall_s <= 0.0)
        return 0.0;
    return std::max(0.0, 1.0 - sum_job_wall_s / (workers * batch_wall_s));
}

double
idleSmCycleFrac(double idle_cycles, double cycles, double num_sms)
{
    const double sm_cycles = cycles * num_sms;
    return sm_cycles > 0.0 ? idle_cycles / sm_cycles : 0.0;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0))
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
statDigest(const apres::StatSet& stats)
{
    apres::ContentHasher hasher;
    for (const auto& [key, value] : stats.entries()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        hasher.update(key);
        hasher.update(bits);
    }
    return hasher.hexDigest();
}

} // namespace perfbench
