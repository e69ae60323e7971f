/**
 * @file
 * Warnings and fatal errors for the simulator.
 *
 * logWarn() reports a recoverable surprise (an ignored environment
 * value, a trace file that could not be written) and continues.
 * fatal() mirrors gem5's convention: an unrecoverable *user* error
 * (bad configuration) that terminates with a message, while internal
 * invariant violations use assert().
 */

#ifndef APRES_COMMON_LOG_HPP
#define APRES_COMMON_LOG_HPP

#include <sstream>
#include <string>

namespace apres {

/** Print "[apres:warn] <msg>" to stderr (appends a newline). */
void logWarnMessage(const std::string& msg);

/** Print @p msg to stderr and terminate with exit code 1. */
[[noreturn]] void fatal(const std::string& msg);

/** Warning from streamable pieces. */
template <typename... Args>
void
logWarn(const Args&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    logWarnMessage(oss.str());
}

} // namespace apres

#endif // APRES_COMMON_LOG_HPP
