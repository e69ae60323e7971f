/**
 * @file
 * Minimal strict JSON parser for the simulation-service protocol.
 *
 * apres_serve accepts batched run requests as JSON over a local
 * socket, so the simulator needs a reader to match its JsonWriter.
 * The parser is deliberately small and strict (RFC 8259 structure, no
 * extensions: no comments, no trailing commas, no unquoted keys) and
 * throws SimError(kSerialization) with a byte offset on malformed
 * input — a garbled request must become a protocol error, never a
 * half-parsed job.
 *
 * Numbers keep their source lexeme alongside the parsed double, so
 * 64-bit integers (seeds, cycle counts) survive exactly: asUint64()
 * re-parses the lexeme instead of rounding through a double.
 */

#ifndef APRES_COMMON_JSON_VALUE_HPP
#define APRES_COMMON_JSON_VALUE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace apres {

/** One parsed JSON value (a tree; cheap to move, dear to copy). */
class JsonValue
{
  public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    /**
     * Parse @p text as one complete JSON document (trailing
     * whitespace allowed, trailing garbage rejected). Throws
     * SimError(kSerialization) on any syntax error.
     */
    static JsonValue parse(const std::string& text);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    /** Typed accessors; throw SimError(kSerialization) on mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asUint64() const;
    const std::string& asString() const;

    /** A number's exact source text (e.g. for re-parsing as uint64). */
    const std::string& numberLexeme() const;

    /** Array/object element count; throws on other types. */
    std::size_t size() const;

    /** Array element @p index; throws when out of range. */
    const JsonValue& at(std::size_t index) const;

    /** True when this object has member @p key. */
    bool has(const std::string& key) const;

    /** Object member @p key; throws when absent. */
    const JsonValue& at(const std::string& key) const;

    /** Object member @p key, or null when absent (optional fields). */
    const JsonValue* find(const std::string& key) const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>>& members() const;

    /** Array elements in document order. */
    const std::vector<JsonValue>& elements() const;

  private:
    friend class JsonParser;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string lexeme_; ///< number source text (exact 64-bit ints)
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

} // namespace apres

#endif // APRES_COMMON_JSON_VALUE_HPP
