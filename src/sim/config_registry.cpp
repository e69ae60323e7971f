/**
 * @file
 * ConfigRegistry implementation: field registration and strict
 * string-to-field assignment.
 */

#include "config_registry.hpp"

#include <limits>

#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "sim/policy_registry.hpp"

namespace apres {

namespace {

/**
 * The observation-only keys (semanticSnapshot() leaves them out);
 * every other key is semantic, so a new key defaults to changing the
 * cache key. sim.fastForward qualifies because the ff-equivalence
 * suite pins its stats bitwise-identical to the naive loop;
 * sim.shards because the parallel epoch engine is pinned
 * bitwise-identical to the serial one by the same suite (a cached
 * result is valid for any shard count); sim.watchdogCycles because it
 * can only turn a hang into an error, and errors are never cached.
 * sim.metrics is not one: it adds the metrics.* stats.
 */
constexpr const char* kObservationKeys[] = {
    "sim.audit",     "sim.auditInterval",  "sim.fastForward",
    "sim.shards",    "sim.trace",          "sim.traceBufferEvents",
    "sim.traceFile", "sim.watchdogCycles"};

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
ConfigRegistry::addPolicyName(const std::string& key, std::string& field,
                              bool (*known)(const std::string&),
                              std::vector<std::string> (*names)())
{
    addEntry(
        key,
        [&field, known, names, key](const std::string& value,
                                    std::string* error) {
            if (!known(value)) {
                *error = key + ": unknown policy \"" + value +
                    "\" (known: " + joinNames(names()) + ")";
                return false;
            }
            field = value;
            return true;
        },
        [&field] { return field; });
}

void
ConfigRegistry::addReplacement(const std::string& key,
                               ReplacementPolicy& field)
{
    addEntry(
        key,
        [&field, key](const std::string& value, std::string* error) {
            if (value == "lru")
                field = ReplacementPolicy::kLru;
            else if (value == "fifo")
                field = ReplacementPolicy::kFifo;
            else if (value == "random")
                field = ReplacementPolicy::kRandom;
            else {
                *error = key + ": \"" + value +
                    "\" is not a replacement policy (lru, fifo, random)";
                return false;
            }
            return true;
        },
        [&field] {
            switch (field) {
              case ReplacementPolicy::kLru:    return std::string("lru");
              case ReplacementPolicy::kFifo:   return std::string("fifo");
              case ReplacementPolicy::kRandom: return std::string("random");
            }
            return std::string("?");
        });
}

ConfigRegistry::ConfigRegistry(GpuConfig& c)
    : KeyRegistry("apres_sim --list-keys prints the full namespace")
{
    const double inf = std::numeric_limits<double>::infinity();

    // Upper bounds on structural keys are sanity ceilings, not model
    // limits: generous enough for any plausible design-space sweep,
    // tight enough that a unit mixup (bytes-vs-KB, cycles-vs-seconds)
    // or a corrupted sweep script fails at parse time with the key
    // named, not deep inside the run.
    addInt("numSms", c.numSms, 1, 4096);
    addInt("maxCycles", c.maxCycles, 1);
    addInt("seed", c.seed, 0);
    addBool("sim.fastForward", c.fastForward);
    addInt("sim.shards", c.shards, 0, 4096); // 0 = one per hardware core
    addBool("sim.audit", c.audit);
    addInt("sim.auditInterval", c.auditInterval, 1, 1'000'000'000);
    addInt("sim.watchdogCycles", c.watchdogCycles, 0, // 0 = disabled
           1'000'000'000'000ull);
    addBool("sim.trace", c.trace);
    addString("sim.traceFile", c.traceFile);
    addInt("sim.traceBufferEvents", c.traceBufferEvents, 1,
           std::uint64_t{1} << 24);
    addBool("sim.metrics", c.metrics);
    addPolicyName("scheduler", c.scheduler, &knownScheduler,
                  &schedulerNames);
    addPolicyName("prefetcher", c.prefetcher, &knownPrefetcher,
                  &prefetcherNames);

    // Warp sets (LAWS groups, per-line consumer tracking) are
    // dynamically sized WarpMasks, so warpsPerSm goes up to the same
    // sanity ceiling as numSms — full-chip configs (2048 threads/SM =
    // 64 warps) and beyond are expressible. warpsPerBlock stays at 64:
    // barrier participant masks are per-block 64-bit lane masks.
    addInt("sm.warpsPerSm", c.sm.warpsPerSm, 1, 4096);
    addInt("sm.warpsPerBlock", c.sm.warpsPerBlock, 1, 64);
    addInt("sm.jobsPerWarp", c.sm.jobsPerWarp, 1, 1'000'000);
    addDouble("sm.prefetchMshrGate", c.sm.prefetchMshrGate, 0.0, 1.0);

    addInt("l1.sizeBytes", c.sm.l1.sizeBytes, 1, std::uint64_t{1} << 30);
    addInt("l1.ways", c.sm.l1.ways, 1, 256);
    addInt("l1.lineSize", c.sm.l1.lineSize, 1, 4096);
    addInt("l1.numMshrs", c.sm.l1.numMshrs, 1, 65'536);
    addInt("l1.maxMergesPerMshr", c.sm.l1.maxMergesPerMshr, 1, 65'536);
    addReplacement("l1.replacement", c.sm.l1.replacement);
    addBool("l1.hashSetIndex", c.sm.l1.hashSetIndex);

    addInt("lsu.queueCapacity", c.sm.lsu.queueCapacity, 1, 65'536);
    addInt("lsu.linesPerCycle", c.sm.lsu.linesPerCycle, 1, 1024);
    addInt("lsu.l1HitLatency", c.sm.lsu.l1HitLatency, 1, 1'000'000);
    addBool("lsu.adaptiveBypass", c.sm.lsu.adaptiveBypass);
    addInt("lsu.bypassMinAccesses", c.sm.lsu.bypassMinAccesses, 1);
    addDouble("lsu.bypassMissRate", c.sm.lsu.bypassMissRate, 0.0, 1.0);

    addInt("sharedMem.baseLatency", c.sm.sharedMem.baseLatency, 1,
           1'000'000);
    addInt("sharedMem.numBanks", c.sm.sharedMem.numBanks, 1, 1024);
    addInt("sharedMem.wordBytes", c.sm.sharedMem.wordBytes, 1, 4096);

    addInt("mem.numPartitions", c.mem.numPartitions, 1, 1024);
    addInt("mem.l2HitLatency", c.mem.l2HitLatency, 1, 1'000'000);

    addInt("l2.sizeBytes", c.mem.l2Partition.sizeBytes, 1,
           std::uint64_t{1} << 32);
    addInt("l2.ways", c.mem.l2Partition.ways, 1, 256);
    addInt("l2.lineSize", c.mem.l2Partition.lineSize, 1, 4096);
    addInt("l2.numMshrs", c.mem.l2Partition.numMshrs, 1, 65'536);
    addInt("l2.maxMergesPerMshr", c.mem.l2Partition.maxMergesPerMshr, 1,
           65'536);
    addReplacement("l2.replacement", c.mem.l2Partition.replacement);
    addBool("l2.hashSetIndex", c.mem.l2Partition.hashSetIndex);

    addInt("dram.baseLatency", c.mem.dram.baseLatency, 1, 100'000'000);
    addInt("dram.serviceInterval", c.mem.dram.serviceInterval, 1,
           100'000'000);
    addBool("dram.rowBufferModel", c.mem.dram.rowBufferModel);
    addInt("dram.numBanks", c.mem.dram.numBanks, 1, 4096);
    addInt("dram.rowBytes", c.mem.dram.rowBytes, 1,
           std::uint32_t{1} << 20);
    addInt("dram.rowHitInterval", c.mem.dram.rowHitInterval, 1,
           100'000'000);
    addInt("dram.rowMissInterval", c.mem.dram.rowMissInterval, 1,
           100'000'000);

    addInt("ccws.vtaEntries", c.ccws.vtaEntries, 1);
    addInt("ccws.scoreBonus", c.ccws.scoreBonus, 0);
    addInt("ccws.scoreCap", c.ccws.scoreCap, 1);
    addInt("ccws.decayPeriod", c.ccws.decayPeriod, 1);
    addInt("ccws.throttleScale", c.ccws.throttleScale, 1);
    addInt("ccws.minActiveWarps", c.ccws.minActiveWarps, 1);

    addBool("laws.promoteOnHit", c.laws.promoteOnHit);
    addBool("laws.demoteOnMiss", c.laws.demoteOnMiss);
    addBool("laws.promotePrefetchTargets", c.laws.promotePrefetchTargets);
    addInt("laws.groupCap", c.laws.groupCap, 1);

    addDouble("mascar.saturateHigh", c.mascar.saturateHigh, 0.0, 1.0);
    addDouble("mascar.saturateLow", c.mascar.saturateLow, 0.0, 1.0);

    addInt("pa.groupSize", c.pa.groupSize, 1);

    // Prefetcher tables are allocated up front and STR issues `degree`
    // prefetches per trigger, so these carry the same ceiling as sap.*.
    addInt("str.tableEntries", c.str.tableEntries, 1, 4096);
    addInt("str.degree", c.str.degree, 1, 4096);
    addInt("str.trainThreshold", c.str.trainThreshold, 1);

    // A one-line macro-block has no other line to prefetch, and SLD
    // tracks a block's touched lines in a 32-bit mask.
    addInt("sld.linesPerBlock", c.sld.linesPerBlock, 2, 32);
    addInt("sld.tableEntries", c.sld.tableEntries, 1, 4096);

    addInt("sap.ptEntries", c.sap.ptEntries, 1, 4096);
    addInt("sap.wqEntries", c.sap.wqEntries, 1, 4096);
    addInt("sap.drqEntries", c.sap.drqEntries, 1, 4096);

    addDouble("energy.aluOp", c.energy.aluOp, 0.0, inf);
    addDouble("energy.registerAccess", c.energy.registerAccess, 0.0, inf);
    addDouble("energy.l1Access", c.energy.l1Access, 0.0, inf);
    addDouble("energy.l2Access", c.energy.l2Access, 0.0, inf);
    addDouble("energy.dramAccess", c.energy.dramAccess, 0.0, inf);
    addDouble("energy.structureAccess", c.energy.structureAccess, 0.0, inf);
    addDouble("energy.smCyclePipeline", c.energy.smCyclePipeline, 0.0, inf);

    // A typo in the list is fatal so it can never drift from the real
    // key namespace.
    for (const char* key : kObservationKeys) {
        if (!has(key))
            fatal(std::string("unknown observation key \"") + key + "\"");
    }
}

std::map<std::string, std::string>
ConfigRegistry::semanticSnapshot() const
{
    std::map<std::string, std::string> out = snapshot();
    for (const char* key : kObservationKeys)
        out.erase(key);
    return out;
}

void
applyOverrides(
    GpuConfig& config,
    const std::vector<std::pair<std::string, std::string>>& overrides)
{
    ConfigRegistry registry(config);
    for (const auto& [key, value] : overrides)
        registry.set(key, value);
}

} // namespace apres
