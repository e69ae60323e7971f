/**
 * @file
 * Logging implementation.
 */

#include "log.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace apres {

namespace {

// Parallel sweeps log from worker threads: the sink is serialized so
// concurrent messages never interleave.
std::mutex&
sinkMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

void
logWarnMessage(const std::string& msg)
{
    const std::lock_guard<std::mutex> lock(sinkMutex());
    std::cerr << "[apres:warn] " << msg << '\n';
}

void
fatal(const std::string& msg)
{
    {
        const std::lock_guard<std::mutex> lock(sinkMutex());
        std::cerr << "[apres:fatal] " << msg << '\n';
    }
    std::exit(1);
}

} // namespace apres
