/**
 * @file
 * String-keyed scheduler/prefetcher factories.
 *
 * The Gpu constructs its policies exclusively through this registry:
 * GpuConfig names a scheduler and a prefetcher, the registry builds
 * them. Adding a policy is therefore a one-file change — implement
 * the Scheduler/Prefetcher interface and register a factory — with no
 * edits to gpu.cpp, the CLI flag ladder, or any bench driver. The
 * built-in policies (LRR, GTO, CCWS, MASCAR, PA, LAWS; STR, SLD, SAP)
 * register themselves in policy_registry.cpp; tests and downstream
 * users may register additional schedulers at startup.
 */

#ifndef APRES_SIM_POLICY_REGISTRY_HPP
#define APRES_SIM_POLICY_REGISTRY_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace apres {

class Scheduler;
class Prefetcher;
struct GpuConfig;

/** Builds a scheduler instance for one SM. */
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(const GpuConfig&)>;

/**
 * Builds a prefetcher instance for one SM. Receives the SM's already
 * constructed scheduler so coupled designs (SAP needs LAWS) can bind
 * to it; may return nullptr for "no prefetcher".
 */
using PrefetcherFactory =
    std::function<std::unique_ptr<Prefetcher>(const GpuConfig&, Scheduler&)>;

/**
 * Register a scheduler under @p name. Names are case-sensitive and
 * must be unique; re-registration is fatal (catches typos and
 * double-registration at startup rather than silently shadowing).
 */
void registerScheduler(const std::string& name, SchedulerFactory make);

/** True when @p name is a registered scheduler. */
bool knownScheduler(const std::string& name);

/** True when @p name is a registered prefetcher. */
bool knownPrefetcher(const std::string& name);

/** All registered scheduler names, sorted. */
std::vector<std::string> schedulerNames();

/** All registered prefetcher names, sorted. */
std::vector<std::string> prefetcherNames();

/** Build the scheduler @p cfg names; fatal on an unknown name. */
std::unique_ptr<Scheduler> makeScheduler(const GpuConfig& cfg);

/**
 * Build the prefetcher @p cfg names (nullptr for "none"); fatal on an
 * unknown name.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const GpuConfig& cfg,
                                           Scheduler& sched);

} // namespace apres

#endif // APRES_SIM_POLICY_REGISTRY_HPP
