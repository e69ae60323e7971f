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
 * bindings and the semantic/observation split. semanticSnapshot()
 * serializes the configuration back to strings, which is how results
 * echo the configuration that produced them (RunResult::config, the
 * --json output).
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
 * String-keyed view over one GpuConfig: a binding per field plus the
 * semantic/observation split of the keys.
 */
class ConfigRegistry : public KeyRegistry
{
  public:
    /** Register every field of @p config (must outlive the registry). */
    explicit ConfigRegistry(GpuConfig& config);

    /**
     * Only the semantic keys with their current values, sorted by
     * key: the canonical input of a result-cache key and the config
     * every result echoes. The observation keys it leaves out
     * (sim.trace*, sim.audit*, sim.fastForward, sim.shards,
     * sim.watchdogCycles) never change a cached statistic, which
     * FfEquivalence.ObservationIsPure and the ff-equivalence matrix
     * pin, so flipping one still hits the cache.
     */
    std::map<std::string, std::string> semanticSnapshot() const;

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
