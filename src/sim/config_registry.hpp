/**
 * @file
 * Dotted-key string access to every GpuConfig field.
 *
 * One override path for all three front ends:
 *
 *  - CLI:          apres_sim --set l1.sizeBytes=65536
 *  - config files: apres_sim --config paper.cfg   (key = value lines)
 *  - programmatic: applyOverrides(cfg, {{"l1.sizeBytes", "65536"}})
 *
 * The parsing, bounds and error rules are KeyRegistry's
 * (common/key_registry.hpp); this file holds only the GpuConfig
 * bindings and the semantic/observation split. snapshot() serializes
 * the full configuration back to strings, which is how results echo
 * the configuration that produced them (RunResult::config, the --json
 * output).
 *
 * The registry holds references into the config it was built over and
 * must not outlive it; construction is cheap, so build one on demand.
 */

#ifndef APRES_SIM_CONFIG_REGISTRY_HPP
#define APRES_SIM_CONFIG_REGISTRY_HPP

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/key_registry.hpp"
#include "mem/cache.hpp"
#include "sim/config.hpp"

namespace apres {

/**
 * How a config key affects a simulation's outcome.
 *
 * The split is what makes content-addressed result caching sound:
 * the cache key hashes only the semantic keys, so flipping a purely
 * observational knob (tracing, metrics, auditing) still hits the
 * cache. Observation purity is not an assumption — it is pinned by
 * FfEquivalence.ObservationIsPure and the ff-equivalence matrix,
 * which prove stats are bitwise identical with these knobs on or off.
 */
enum class ConfigKeyKind {
    /** Changes the simulated machine or workload: part of results. */
    kSemantic,

    /**
     * Pure observation or engine selection: never changes a single
     * statistic (sim.trace*, sim.metrics, sim.audit*, the proven
     * bitwise-equivalent sim.fastForward, and sim.watchdogCycles,
     * which only converts a hang into an error — and errors are
     * never cached).
     */
    kObservation,
};

/**
 * String-keyed view over one GpuConfig: a binding per field plus the
 * semantic/observation split of every key.
 */
class ConfigRegistry : public KeyRegistry
{
  public:
    /** Register every field of @p config (must outlive the registry). */
    explicit ConfigRegistry(GpuConfig& config);

    /**
     * Only the semantic keys with their current values, sorted by
     * key: the canonical input of a result-cache key. See
     * ConfigKeyKind for why observation keys are excluded.
     */
    std::map<std::string, std::string> semanticSnapshot() const;

    /** Classification of @p key; throws SimError(kConfig) if unknown. */
    ConfigKeyKind keyKind(const std::string& key) const;

  private:
    void addPolicyName(const std::string& key, std::string& field,
                       bool (*known)(const std::string&),
                       std::vector<std::string> (*names)());
    void addReplacement(const std::string& key, ReplacementPolicy& field);
};

/**
 * Convenience for drivers: apply string overrides to @p config
 * through a temporary registry. Throws SimError(kConfig) on any
 * invalid override.
 */
void applyOverrides(
    GpuConfig& config,
    const std::vector<std::pair<std::string, std::string>>& overrides);

} // namespace apres

#endif // APRES_SIM_CONFIG_REGISTRY_HPP
