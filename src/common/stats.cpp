/**
 * @file
 * Implementation of the named stat set.
 */

#include "stats.hpp"

namespace apres {

void
StatSet::set(const std::string& name, double value)
{
    values[name] = value;
}

void
StatSet::accumulate(const std::string& name, double value)
{
    values[name] += value;
}

double
StatSet::get(const std::string& name, double fallback) const
{
    const auto it = values.find(name);
    return it != values.end() ? it->second : fallback;
}

bool
StatSet::has(const std::string& name) const
{
    return values.count(name) != 0;
}

void
StatSet::mergeSum(const StatSet& other)
{
    for (const auto& [k, v] : other.values)
        values[k] += v;
}

void
StatSet::dump(std::ostream& os) const
{
    for (const auto& [k, v] : values)
        os << k << " = " << v << '\n';
}

} // namespace apres
