/**
 * @file
 * Dotted-key string access to the fields of one options struct — the
 * machinery behind both key namespaces: every GpuConfig field
 * (ConfigRegistry, sim/config_registry.hpp) and every ServeOptions
 * field (ServeConfigRegistry, serve/serve_config.hpp).
 *
 * A derived registry binds each key to a typed setter/getter over the
 * struct it was built over. Parsing is strict (parse.hpp): garbage,
 * wrong types, out-of-range values and unknown keys are rejected with
 * the offending key in the message, never silently ignored, and a
 * rejected value leaves the field untouched. Integer and double
 * binders carry bounds, so an absurd value (a 2^31-way cache, a
 * zero-cycle watchdog) fails at parse time instead of deep inside a
 * run. snapshot() serializes every field back to strings.
 *
 * A registry holds references into the struct it was built over and
 * must not outlive it; construction is cheap, so build one on demand.
 */

#ifndef APRES_COMMON_KEY_REGISTRY_HPP
#define APRES_COMMON_KEY_REGISTRY_HPP

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace apres {

class KeyRegistry
{
  public:
    /**
     * Set @p key from @p value. Returns false and fills @p error
     * (never null) on unknown key, parse failure or range violation;
     * the field is untouched in that case.
     */
    bool trySet(const std::string& key, const std::string& value,
                std::string* error);

    /** Like trySet, but throws SimError(kConfig) on any failure. */
    void set(const std::string& key, const std::string& value);

    /** Current value of @p key; throws SimError(kConfig) if unknown. */
    std::string get(const std::string& key) const;

    /** True when @p key is registered. */
    bool has(const std::string& key) const;

    /** All registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Every key with its current value, sorted by key. */
    std::map<std::string, std::string> snapshot() const;

    /**
     * Split one "key=value" assignment into its trimmed halves (spaces
     * and tabs around either side are dropped); throws
     * SimError(kConfig) when there is no '=' or the key is empty.
     */
    static std::pair<std::string, std::string>
    parseAssignment(const std::string& assignment);

    /** set() from one parseAssignment()-style "key=value". */
    void applyAssignment(const std::string& assignment);

    /**
     * Load a GPGPU-Sim style config file: one `key = value` per line,
     * '#' starts a comment, blank lines ignored. Throws
     * SimError(kConfig) on an unreadable file or any
     * malformed/unknown/invalid line (with the file name and line
     * number).
     */
    void loadFile(const std::string& path);

  protected:
    /**
     * @param list_hint  where to find the namespace, quoted in the
     *                   unknown-key error ("apres_sim --list-keys").
     */
    explicit KeyRegistry(std::string list_hint);

    /** Parse-and-assign; false with *error set leaves the field as is. */
    using Setter = std::function<bool(const std::string&, std::string*)>;

    void addEntry(const std::string& key, Setter set,
                  std::function<std::string()> get);

    /**
     * Integer in [@p min_value, @p max_value]; T is int, uint32_t or
     * uint64_t.
     */
    template <typename T>
    void addInt(const std::string& key, T& field,
                std::type_identity_t<T> min_value,
                std::type_identity_t<T> max_value =
                    std::numeric_limits<T>::max());

    /** Finite double in [@p min_value, @p max_value]. */
    void addDouble(const std::string& key, double& field, double min_value,
                   double max_value);

    void addBool(const std::string& key, bool& field);

    /** Free-form string (file paths): any value is accepted verbatim. */
    void addString(const std::string& key, std::string& field);

  private:
    struct Entry
    {
        Setter set;
        std::function<std::string()> get;
    };

    std::map<std::string, Entry> entries_;
    std::string listHint_;
};

} // namespace apres

#endif // APRES_COMMON_KEY_REGISTRY_HPP
