/**
 * @file
 * Strict parsing helpers.
 */

#include "parse.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/log.hpp"

namespace apres {

bool
parseInt64Strict(const std::string& text, std::int64_t* out)
{
    if (text.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<std::int64_t>(parsed);
    return true;
}

bool
parseUint64Strict(const std::string& text, std::uint64_t* out)
{
    if (text.empty() || text[0] == '-')
        return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<std::uint64_t>(parsed);
    return true;
}

bool
parseUint64DecOrHex(const std::string& text, std::uint64_t* out)
{
    const bool hex =
        text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    const char* first = text.data() + (hex ? 2 : 0);
    const char* last = text.data() + text.size();
    std::uint64_t parsed = 0;
    // from_chars takes no sign, prefix or whitespace: the whole token
    // must be digits of the chosen base.
    const auto [ptr, ec] = std::from_chars(first, last, parsed, hex ? 16 : 10);
    if (ec != std::errc{} || ptr != last)
        return false;
    *out = parsed;
    return true;
}

bool
parseInt64DecOrHex(const std::string& text, std::int64_t* out)
{
    const bool negative = !text.empty() && text[0] == '-';
    std::uint64_t magnitude = 0;
    if (!parseUint64DecOrHex(text.substr(negative ? 1 : 0), &magnitude))
        return false;
    const std::uint64_t limit = std::uint64_t{1} << 63; // |INT64_MIN|
    if (magnitude > (negative ? limit : limit - 1))
        return false;
    *out = negative ? static_cast<std::int64_t>(0 - magnitude)
                    : static_cast<std::int64_t>(magnitude);
    return true;
}

bool
parseDoubleStrict(const std::string& text, double* out)
{
    if (text.empty())
        return false;
    // std::from_chars is locale-independent (the decimal separator is
    // always '.'), unlike strtod, so config files and serialized
    // results parse identically on every host. It rejects the leading
    // '+' strtod accepted; keep accepting it for config compatibility.
    const char* first = text.data();
    const char* last = text.data() + text.size();
    if (*first == '+')
        ++first;
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec != std::errc{} || ptr != last || !std::isfinite(parsed))
        return false;
    *out = parsed;
    return true;
}

bool
parseBoolStrict(const std::string& text, bool* out)
{
    if (text == "true" || text == "1" || text == "on" || text == "yes") {
        *out = true;
        return true;
    }
    if (text == "false" || text == "0" || text == "off" || text == "no") {
        *out = false;
        return true;
    }
    return false;
}

std::uint64_t
parseUintOption(const std::string& option, const std::string& text,
                std::uint64_t min_value)
{
    std::uint64_t value = 0;
    if (!parseUint64Strict(text, &value))
        fatal(option + ": \"" + text + "\" is not an unsigned integer");
    if (value < min_value)
        fatal(option + ": " + text + " is below the minimum of " +
              std::to_string(min_value));
    return value;
}

std::uint64_t
parsePositiveUintOption(const std::string& option, const std::string& text)
{
    return parseUintOption(option, text, 1);
}

double
parsePositiveDoubleOption(const std::string& option, const std::string& text)
{
    double value = 0.0;
    if (!parseDoubleStrict(text, &value))
        fatal(option + ": \"" + text + "\" is not a finite number");
    if (value <= 0.0)
        fatal(option + ": " + text + " must be > 0");
    return value;
}

std::string
formatDouble(double value)
{
    // std::to_chars emits the shortest decimal form that parses back
    // to exactly this double, independent of the global locale — the
    // canonical representation content-addressed caching hashes.
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc{})
        fatal("formatDouble: std::to_chars failed"); // 64 bytes suffice
    return std::string(buf, ptr);
}

} // namespace apres
