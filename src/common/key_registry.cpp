/**
 * @file
 * KeyRegistry implementation: typed binders and strict
 * string-to-field assignment.
 */

#include "key_registry.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"

namespace apres {

namespace {

std::string
trim(const std::string& text)
{
    const auto begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

} // namespace

KeyRegistry::KeyRegistry(std::string list_hint)
    : listHint_(std::move(list_hint))
{
}

void
KeyRegistry::addEntry(const std::string& key, Setter set,
                      std::function<std::string()> get)
{
    if (!entries_.emplace(key, Entry{std::move(set), std::move(get)}).second)
        fatal("config key \"" + key + "\" registered twice");
}

template <typename T>
void
KeyRegistry::addInt(const std::string& key, T& field,
                    std::type_identity_t<T> min_value,
                    std::type_identity_t<T> max_value)
{
    addEntry(
        key,
        [&field, min_value, max_value, key](const std::string& value,
                                            std::string* error) {
            // Parse at 64 bits; the bounds, which T holds, narrow.
            std::conditional_t<std::is_signed_v<T>, std::int64_t,
                               std::uint64_t>
                parsed = 0;
            bool ok = false;
            if constexpr (std::is_signed_v<T>)
                ok = parseInt64Strict(value, &parsed);
            else
                ok = parseUint64Strict(value, &parsed);
            if (!ok) {
                *error = key + ": \"" + value + "\" is not an " +
                    (std::is_signed_v<T> ? "integer" : "unsigned integer");
                return false;
            }
            if (parsed < min_value) {
                *error = key + ": " + value + " is below the minimum of " +
                    std::to_string(min_value);
                return false;
            }
            if (parsed > max_value) {
                *error = key + ": " + value + " is above the maximum of " +
                    std::to_string(max_value);
                return false;
            }
            field = static_cast<T>(parsed);
            return true;
        },
        [&field] { return std::to_string(field); });
}

template void KeyRegistry::addInt(const std::string&, int&, int, int);
template void KeyRegistry::addInt(const std::string&, std::uint32_t&,
                                  std::uint32_t, std::uint32_t);
template void KeyRegistry::addInt(const std::string&, std::uint64_t&,
                                  std::uint64_t, std::uint64_t);

void
KeyRegistry::addDouble(const std::string& key, double& field,
                       double min_value, double max_value)
{
    addEntry(
        key,
        [&field, min_value, max_value, key](const std::string& value,
                                            std::string* error) {
            double parsed = 0.0;
            if (!parseDoubleStrict(value, &parsed)) {
                *error = key + ": \"" + value + "\" is not a finite number";
                return false;
            }
            if (parsed < min_value || parsed > max_value) {
                *error = key + ": " + value + " is outside [" +
                    formatDouble(min_value) + ", " +
                    formatDouble(max_value) + "]";
                return false;
            }
            field = parsed;
            return true;
        },
        [&field] { return formatDouble(field); });
}

void
KeyRegistry::addBool(const std::string& key, bool& field)
{
    addEntry(
        key,
        [&field, key](const std::string& value, std::string* error) {
            bool parsed = false;
            if (!parseBoolStrict(value, &parsed)) {
                *error = key + ": \"" + value +
                    "\" is not a boolean (true/false/1/0/on/off)";
                return false;
            }
            field = parsed;
            return true;
        },
        [&field] { return std::string(field ? "true" : "false"); });
}

void
KeyRegistry::addString(const std::string& key, std::string& field)
{
    addEntry(
        key,
        [&field](const std::string& value, std::string*) {
            field = value;
            return true;
        },
        [&field] { return field; });
}

bool
KeyRegistry::trySet(const std::string& key, const std::string& value,
                    std::string* error)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        *error = "unknown config key \"" + key + "\" (" + listHint_ + ")";
        return false;
    }
    return it->second.set(value, error);
}

void
KeyRegistry::set(const std::string& key, const std::string& value)
{
    std::string error;
    if (!trySet(key, value, &error))
        throwConfigError(error);
}

std::string
KeyRegistry::get(const std::string& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        throwConfigError("unknown config key \"" + key + "\" (" +
                         listHint_ + ")");
    return it->second.get();
}

bool
KeyRegistry::has(const std::string& key) const
{
    return entries_.count(key) != 0;
}

std::vector<std::string>
KeyRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_)
        out.push_back(key);
    return out;
}

std::map<std::string, std::string>
KeyRegistry::snapshot() const
{
    std::map<std::string, std::string> out;
    for (const auto& [key, entry] : entries_)
        out.emplace(key, entry.get());
    return out;
}

std::pair<std::string, std::string>
KeyRegistry::parseAssignment(const std::string& assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos)
        throwConfigError("malformed override \"" + assignment +
                         "\" (expected key=value)");
    std::string key = trim(assignment.substr(0, eq));
    if (key.empty())
        throwConfigError("malformed override \"" + assignment +
                         "\" (empty key)");
    return {std::move(key), trim(assignment.substr(eq + 1))};
}

void
KeyRegistry::applyAssignment(const std::string& assignment)
{
    const auto [key, value] = parseAssignment(assignment);
    set(key, value);
}

void
KeyRegistry::loadFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throwConfigError("cannot open config file " + path);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        line.erase(std::min(line.find('#'), line.size()));
        if (trim(line).empty())
            continue;
        try {
            applyAssignment(line);
        } catch (const SimError& e) {
            throwConfigError(path + ":" + std::to_string(lineno) + ": " +
                             e.detail());
        }
    }
}

} // namespace apres
