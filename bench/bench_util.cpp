/**
 * @file
 * Bench helper implementation.
 */

#include "bench_util.hpp"

#include <cstdlib>

#include "common/log.hpp"
#include "common/parse.hpp"

namespace apres::bench {

double
parseBenchScale(const char* text, double fallback)
{
    if (text == nullptr || *text == '\0')
        return fallback;
    double parsed = 0.0;
    if (!parseDoubleStrict(text, &parsed) || parsed <= 0.0) {
        logWarn("ignoring APRES_BENCH_SCALE=\"", text,
                "\" (want a positive number); using ", fallback);
        return fallback;
    }
    return parsed;
}

double
benchScale()
{
    return parseBenchScale(std::getenv("APRES_BENCH_SCALE"));
}

GpuConfig
baselineConfig()
{
    return GpuConfig{}; // defaults are Table III
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
printHeader(const std::string& first, const std::vector<std::string>& columns)
{
    std::cout << std::left << std::setw(8) << first << std::right;
    for (const std::string& c : columns)
        std::cout << std::setw(12) << c;
    std::cout << '\n';
}

void
printRow(const std::string& first, const std::vector<double>& values,
         int precision)
{
    std::cout << std::left << std::setw(8) << first << std::right
              << std::fixed << std::setprecision(precision);
    for (const double v : values)
        std::cout << std::setw(12) << v;
    std::cout << '\n';
}

std::shared_ptr<const Workload>
loadWorkload(const std::string& name, double scale)
{
    return std::make_shared<Workload>(makeWorkload(name, scale));
}

std::shared_ptr<const Kernel>
kernelOf(std::shared_ptr<const Workload> wl)
{
    // Aliasing handle: shares ownership of the workload, points at its
    // kernel.
    const Kernel* kernel = &wl->kernel;
    return {std::move(wl), kernel};
}

} // namespace apres::bench
