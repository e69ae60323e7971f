/**
 * @file
 * Strict text-to-value parsing shared by every user-facing input
 * path: the config registry, the kernel text format, the apres_sim
 * flag handling and the bench drivers' options and environment knobs.
 *
 * The *Strict parsers consume the whole string or fail: trailing
 * garbage, empty input, overflow and non-finite doubles are all
 * rejected, unlike the atoi/atof family that silently returns 0.
 * The parseX(option, ...) wrappers add the range checks CLI flags
 * need and terminate via fatal() with the offending flag named.
 */

#ifndef APRES_COMMON_PARSE_HPP
#define APRES_COMMON_PARSE_HPP

#include <cstdint>
#include <string>

namespace apres {

/** Parse a decimal signed integer; false on garbage/partial/overflow. */
bool parseInt64Strict(const std::string& text, std::int64_t* out);

/** Parse a decimal unsigned integer; rejects a leading '-'. */
bool parseUint64Strict(const std::string& text, std::uint64_t* out);

/**
 * Parse a whole decimal or 0x-prefixed hexadecimal unsigned integer
 * (the kernel-text number forms): no sign, no octal reading of a
 * leading zero, no surrounding text; false on garbage or overflow.
 */
bool parseUint64DecOrHex(const std::string& text, std::uint64_t* out);

/** parseUint64DecOrHex plus an optional leading '-', range-checked. */
bool parseInt64DecOrHex(const std::string& text, std::int64_t* out);

/** Parse a finite double (decimal or scientific notation). */
bool parseDoubleStrict(const std::string& text, double* out);

/** Parse a boolean: true/false, 1/0, on/off, yes/no (lowercase). */
bool parseBoolStrict(const std::string& text, bool* out);

/**
 * CLI helper: parse @p text as an unsigned integer in
 * [@p min_value, max]; fatal() naming @p option on any violation.
 */
std::uint64_t parseUintOption(const std::string& option,
                              const std::string& text,
                              std::uint64_t min_value = 0);

/** CLI helper: strictly positive integer (>= 1). */
std::uint64_t parsePositiveUintOption(const std::string& option,
                                      const std::string& text);

/** CLI helper: strictly positive finite double. */
double parsePositiveDoubleOption(const std::string& option,
                                 const std::string& text);

/**
 * Shortest decimal representation of @p value that parses back to
 * exactly the same double (for config echoes and JSON output).
 */
std::string formatDouble(double value);

} // namespace apres

#endif // APRES_COMMON_PARSE_HPP
