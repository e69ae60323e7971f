/**
 * @file
 * Policy registry implementation and built-in policy registration.
 *
 * This file is the single registration point of the built-in
 * policies: a new scheduler or prefetcher adds one factory line here
 * (its "registration") and becomes reachable from the CLI, config
 * files, bench drivers and tests without further edits anywhere.
 */

#include "policy_registry.hpp"

#include <map>

#include "apres/sap.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "prefetch/sld.hpp"
#include "prefetch/str.hpp"
#include "sched/ccws.hpp"
#include "sched/gto.hpp"
#include "sched/lrr.hpp"
#include "sched/mascar.hpp"
#include "sched/pa_twolevel.hpp"
#include "sim/config.hpp"

namespace apres {

namespace {

std::map<std::string, SchedulerFactory>&
schedulerFactories()
{
    // Built-ins live in the map initializer so lookups never race a
    // registration pass and link order cannot drop them.
    static std::map<std::string, SchedulerFactory> factories = {
        {"lrr",
         [](const GpuConfig&) { return std::make_unique<LrrScheduler>(); }},
        {"gto",
         [](const GpuConfig&) { return std::make_unique<GtoScheduler>(); }},
        {"ccws",
         [](const GpuConfig& cfg) {
             return std::make_unique<CcwsScheduler>(cfg.ccws);
         }},
        {"mascar",
         [](const GpuConfig& cfg) {
             return std::make_unique<MascarScheduler>(cfg.mascar);
         }},
        {"pa",
         [](const GpuConfig& cfg) {
             return std::make_unique<PaScheduler>(cfg.pa);
         }},
        {"laws",
         [](const GpuConfig& cfg) {
             return std::make_unique<LawsScheduler>(cfg.laws);
         }},
    };
    return factories;
}

const std::map<std::string, PrefetcherFactory>&
prefetcherFactories()
{
    static const std::map<std::string, PrefetcherFactory> factories = {
        {"none",
         [](const GpuConfig&, Scheduler&) {
             return std::unique_ptr<Prefetcher>();
         }},
        {"str",
         [](const GpuConfig& cfg, Scheduler&) -> std::unique_ptr<Prefetcher> {
             return std::make_unique<StrPrefetcher>(cfg.str);
         }},
        {"sld",
         [](const GpuConfig& cfg, Scheduler&) -> std::unique_ptr<Prefetcher> {
             return std::make_unique<SldPrefetcher>(cfg.sld,
                                                    cfg.sm.l1.lineSize);
         }},
        {"sap",
         [](const GpuConfig& cfg,
            Scheduler& sched) -> std::unique_ptr<Prefetcher> {
             auto* laws = dynamic_cast<LawsScheduler*>(&sched);
             if (laws == nullptr) {
                 throwConfigError(
                     "the SAP prefetcher requires the LAWS scheduler "
                     "(APRES = LAWS+SAP); configured scheduler: " +
                     cfg.scheduler);
             }
             return std::make_unique<SapPrefetcher>(*laws, cfg.sap);
         }},
    };
    return factories;
}

template <typename Map>
std::vector<std::string>
sortedKeys(const Map& map)
{
    std::vector<std::string> names;
    names.reserve(map.size());
    for (const auto& [name, factory] : map)
        names.push_back(name);
    return names; // std::map iterates sorted
}

std::string
joinNames(const std::vector<std::string>& names)
{
    std::string out;
    for (const std::string& n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

} // namespace

void
registerScheduler(const std::string& name, SchedulerFactory make)
{
    if (name.empty() || !make)
        fatal("registerScheduler: empty name or null factory");
    if (!schedulerFactories().emplace(name, std::move(make)).second)
        fatal("scheduler \"" + name + "\" is already registered");
}

bool
knownScheduler(const std::string& name)
{
    return schedulerFactories().count(name) != 0;
}

bool
knownPrefetcher(const std::string& name)
{
    return prefetcherFactories().count(name) != 0;
}

std::vector<std::string>
schedulerNames()
{
    return sortedKeys(schedulerFactories());
}

std::vector<std::string>
prefetcherNames()
{
    return sortedKeys(prefetcherFactories());
}

std::unique_ptr<Scheduler>
makeScheduler(const GpuConfig& cfg)
{
    const auto it = schedulerFactories().find(cfg.scheduler);
    if (it == schedulerFactories().end())
        throwConfigError("unknown scheduler \"" + cfg.scheduler +
                         "\" (known: " + joinNames(schedulerNames()) + ")");
    return it->second(cfg);
}

std::unique_ptr<Prefetcher>
makePrefetcher(const GpuConfig& cfg, Scheduler& sched)
{
    const auto it = prefetcherFactories().find(cfg.prefetcher);
    if (it == prefetcherFactories().end())
        throwConfigError("unknown prefetcher \"" + cfg.prefetcher +
                         "\" (known: " + joinNames(prefetcherNames()) + ")");
    return it->second(cfg, sched);
}

} // namespace apres
