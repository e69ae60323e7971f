/**
 * @file
 * Fault-injection registry implementation.
 */

#include "fault_inject.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/parse.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace {

/** Map a lowercase errno mnemonic to its value. */
int
errnoByName(const std::string& name)
{
    if (name == "enospc") return ENOSPC;
    if (name == "eio") return EIO;
    if (name == "emfile") return EMFILE;
    if (name == "enfile") return ENFILE;
    if (name == "enoent") return ENOENT;
    if (name == "enomem") return ENOMEM;
    return 0;
}

} // namespace

FaultInjector&
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::configure(const std::string& spec)
{
    std::map<std::string, std::vector<Rule>> rules;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(pos, end - pos);
        pos = end + 1;
        if (clause.empty())
            continue;

        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos || eq == 0) {
            throwConfigError("fault injection: clause \"" + clause +
                             "\" is not site=action[@occurrences]");
        }
        const std::string site = clause.substr(0, eq);
        std::string action_text = clause.substr(eq + 1);

        Rule rule;
        const std::size_t at = action_text.find('@');
        if (at != std::string::npos) {
            const std::string range = action_text.substr(at + 1);
            action_text.resize(at);
            const std::size_t dash = range.find('-');
            std::uint64_t first = 0;
            if (dash != std::string::npos) {
                std::uint64_t last = 0;
                if (!parseUint64Strict(range.substr(0, dash), &first) ||
                    !parseUint64Strict(range.substr(dash + 1), &last) ||
                    first == 0 || last < first) {
                    throwConfigError(
                        "fault injection: bad occurrence range \"" +
                        range + "\" in clause \"" + clause + "\"");
                }
                rule.first = first;
                rule.last = last;
            } else if (!range.empty() && range.back() == '+') {
                if (!parseUint64Strict(
                        range.substr(0, range.size() - 1), &first) ||
                    first == 0) {
                    throwConfigError(
                        "fault injection: bad occurrence range \"" +
                        range + "\" in clause \"" + clause + "\"");
                }
                rule.first = first;
            } else {
                if (!parseUint64Strict(range, &first) || first == 0) {
                    throwConfigError(
                        "fault injection: bad occurrence \"" + range +
                        "\" in clause \"" + clause + "\"");
                }
                rule.first = first;
                rule.last = first;
            }
        }

        if (action_text == "throw") {
            rule.action.kind = FaultAction::Kind::kThrow;
        } else if (action_text.rfind("sleep:", 0) == 0) {
            std::uint64_t ms = 0;
            if (!parseUint64Strict(action_text.substr(6), &ms) ||
                ms > 600000) {
                throwConfigError(
                    "fault injection: bad sleep duration in \"" +
                    clause + "\" (want sleep:<ms>, ms <= 600000)");
            }
            rule.action.kind = FaultAction::Kind::kSleep;
            rule.action.sleepMs = static_cast<std::uint32_t>(ms);
        } else {
            const int err = errnoByName(action_text);
            if (err == 0) {
                throwConfigError("fault injection: unknown action \"" +
                                 action_text + "\" in clause \"" +
                                 clause + "\"");
            }
            rule.action.kind = FaultAction::Kind::kErrno;
            rule.action.err = err;
        }
        rules[site].push_back(rule);
    }

    const std::lock_guard<std::mutex> lock(mu_);
    rules_ = std::move(rules);
    calls_.clear();
    fired_.clear();
    enabled_.store(!rules_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::reset()
{
    const std::lock_guard<std::mutex> lock(mu_);
    rules_.clear();
    calls_.clear();
    fired_.clear();
    enabled_.store(false, std::memory_order_relaxed);
}

int
FaultInjector::at(const char* site)
{
    FaultAction action;
    bool fire = false;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (rules_.empty())
            return 0; // raced with reset()
        const std::uint64_t count = ++calls_[site];
        const auto it = rules_.find(site);
        if (it != rules_.end()) {
            for (const Rule& rule : it->second) {
                if (count >= rule.first && count <= rule.last) {
                    action = rule.action;
                    fire = true;
                    ++fired_[site];
                    break;
                }
            }
        }
    }
    if (!fire)
        return 0;
    switch (action.kind) {
      case FaultAction::Kind::kErrno:
        return action.err;
      case FaultAction::Kind::kThrow:
        throw std::runtime_error(std::string("injected fault at ") +
                                 site);
      case FaultAction::Kind::kSleep:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(action.sleepMs));
        return 0;
    }
    return 0;
}

std::uint64_t
FaultInjector::calls(const std::string& site) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = calls_.find(site);
    return it == calls_.end() ? 0 : it->second;
}

std::uint64_t
FaultInjector::fired(const std::string& site) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = fired_.find(site);
    return it == fired_.end() ? 0 : it->second;
}

int
faultInjectAt(const char* site)
{
    FaultInjector& injector = FaultInjector::instance();
    if (!injector.enabled())
        return 0;
    return injector.at(site);
}

} // namespace apres
