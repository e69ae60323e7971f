/**
 * @file
 * ConfigRegistry implementation: field registration and strict
 * string-to-field assignment.
 */

#include "config_registry.hpp"

#include <fstream>
#include <limits>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "sim/policy_registry.hpp"

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
ConfigRegistry::addEntry(const std::string& key, Entry entry)
{
    if (!entries_.emplace(key, std::move(entry)).second)
        fatal("config key \"" + key + "\" registered twice");
}

void
ConfigRegistry::addInt(const std::string& key, int& field, int min_value,
                       int max_value)
{
    addEntry(key,
             {[&field, min_value, max_value, key](const std::string& value,
                                                  std::string* error) {
                  std::int64_t parsed = 0;
                  if (!parseInt64Strict(value, &parsed) ||
                      parsed > std::numeric_limits<int>::max()) {
                      *error = key + ": \"" + value + "\" is not an integer";
                      return false;
                  }
                  if (parsed < min_value) {
                      *error = key + ": " + value +
                          " is below the minimum of " +
                          std::to_string(min_value);
                      return false;
                  }
                  if (parsed > max_value) {
                      *error = key + ": " + value +
                          " is above the maximum of " +
                          std::to_string(max_value);
                      return false;
                  }
                  field = static_cast<int>(parsed);
                  return true;
              },
              [&field] { return std::to_string(field); }});
}

void
ConfigRegistry::addU32(const std::string& key, std::uint32_t& field,
                       std::uint32_t min_value, std::uint32_t max_value)
{
    addEntry(key,
             {[&field, min_value, max_value, key](const std::string& value,
                                                  std::string* error) {
                  std::uint64_t parsed = 0;
                  if (!parseUint64Strict(value, &parsed) ||
                      parsed > std::numeric_limits<std::uint32_t>::max()) {
                      *error = key + ": \"" + value +
                          "\" is not a 32-bit unsigned integer";
                      return false;
                  }
                  if (parsed < min_value) {
                      *error = key + ": " + value +
                          " is below the minimum of " +
                          std::to_string(min_value);
                      return false;
                  }
                  if (parsed > max_value) {
                      *error = key + ": " + value +
                          " is above the maximum of " +
                          std::to_string(max_value);
                      return false;
                  }
                  field = static_cast<std::uint32_t>(parsed);
                  return true;
              },
              [&field] { return std::to_string(field); }});
}

void
ConfigRegistry::addU64(const std::string& key, std::uint64_t& field,
                       std::uint64_t min_value, std::uint64_t max_value)
{
    addEntry(key,
             {[&field, min_value, max_value, key](const std::string& value,
                                                  std::string* error) {
                  std::uint64_t parsed = 0;
                  if (!parseUint64Strict(value, &parsed)) {
                      *error = key + ": \"" + value +
                          "\" is not an unsigned integer";
                      return false;
                  }
                  if (parsed < min_value) {
                      *error = key + ": " + value +
                          " is below the minimum of " +
                          std::to_string(min_value);
                      return false;
                  }
                  if (parsed > max_value) {
                      *error = key + ": " + value +
                          " is above the maximum of " +
                          std::to_string(max_value);
                      return false;
                  }
                  field = parsed;
                  return true;
              },
              [&field] { return std::to_string(field); }});
}

void
ConfigRegistry::addDouble(const std::string& key, double& field,
                          double min_value, double max_value)
{
    addEntry(key,
             {[&field, min_value, max_value, key](const std::string& value,
                                                  std::string* error) {
                  double parsed = 0.0;
                  if (!parseDoubleStrict(value, &parsed)) {
                      *error = key + ": \"" + value +
                          "\" is not a finite number";
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
              [&field] { return formatDouble(field); }});
}

void
ConfigRegistry::addBool(const std::string& key, bool& field)
{
    addEntry(key,
             {[&field, key](const std::string& value, std::string* error) {
                  bool parsed = false;
                  if (!parseBoolStrict(value, &parsed)) {
                      *error = key + ": \"" + value +
                          "\" is not a boolean (true/false/1/0/on/off)";
                      return false;
                  }
                  field = parsed;
                  return true;
              },
              [&field] { return field ? std::string("true")
                                      : std::string("false"); }});
}

void
ConfigRegistry::addString(const std::string& key, std::string& field)
{
    // Free-form strings (file paths): any value is accepted verbatim.
    addEntry(key, {[&field](const std::string& value, std::string*) {
                       field = value;
                       return true;
                   },
                   [&field] { return field; }});
}

void
ConfigRegistry::addPolicyName(const std::string& key, std::string& field,
                              bool (*known)(const std::string&),
                              std::vector<std::string> (*names)())
{
    addEntry(key,
             {[&field, known, names, key](const std::string& value,
                                          std::string* error) {
                  if (!known(value)) {
                      *error = key + ": unknown policy \"" + value +
                          "\" (known: " + joinNames(names()) + ")";
                      return false;
                  }
                  field = value;
                  return true;
              },
              [&field] { return field; }});
}

void
ConfigRegistry::addReplacement(const std::string& key,
                               ReplacementPolicy& field)
{
    addEntry(key,
             {[&field, key](const std::string& value, std::string* error) {
                  if (value == "lru")
                      field = ReplacementPolicy::kLru;
                  else if (value == "fifo")
                      field = ReplacementPolicy::kFifo;
                  else if (value == "random")
                      field = ReplacementPolicy::kRandom;
                  else {
                      *error = key + ": \"" + value +
                          "\" is not a replacement policy "
                          "(lru, fifo, random)";
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
              }});
}

ConfigRegistry::ConfigRegistry(GpuConfig& c)
{
    const double inf = std::numeric_limits<double>::infinity();

    // Upper bounds on structural keys are sanity ceilings, not model
    // limits: generous enough for any plausible design-space sweep,
    // tight enough that a unit mixup (bytes-vs-KB, cycles-vs-seconds)
    // or a corrupted sweep script fails at parse time with the key
    // named, not deep inside the run.
    addInt("numSms", c.numSms, 1, 4096);
    addU64("maxCycles", c.maxCycles, 1);
    addU64("seed", c.seed, 0);
    addBool("sim.fastForward", c.fastForward);
    addInt("sim.shards", c.shards, 0, 4096); // 0 = one per hardware core
    addBool("sim.audit", c.audit);
    addU64("sim.auditInterval", c.auditInterval, 1, 1'000'000'000);
    addU64("sim.watchdogCycles", c.watchdogCycles, 0, // 0 = disabled
           1'000'000'000'000ull);
    addBool("sim.trace", c.trace);
    addString("sim.traceFile", c.traceFile);
    addU64("sim.traceBufferEvents", c.traceBufferEvents, 1,
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

    addU64("l1.sizeBytes", c.sm.l1.sizeBytes, 1, std::uint64_t{1} << 30);
    addU32("l1.ways", c.sm.l1.ways, 1, 256);
    addU32("l1.lineSize", c.sm.l1.lineSize, 1, 4096);
    addU32("l1.numMshrs", c.sm.l1.numMshrs, 1, 65'536);
    addU32("l1.maxMergesPerMshr", c.sm.l1.maxMergesPerMshr, 1, 65'536);
    addReplacement("l1.replacement", c.sm.l1.replacement);
    addBool("l1.hashSetIndex", c.sm.l1.hashSetIndex);

    addInt("lsu.queueCapacity", c.sm.lsu.queueCapacity, 1, 65'536);
    addInt("lsu.linesPerCycle", c.sm.lsu.linesPerCycle, 1, 1024);
    addU64("lsu.l1HitLatency", c.sm.lsu.l1HitLatency, 1, 1'000'000);
    addBool("lsu.adaptiveBypass", c.sm.lsu.adaptiveBypass);
    addU64("lsu.bypassMinAccesses", c.sm.lsu.bypassMinAccesses, 1);
    addDouble("lsu.bypassMissRate", c.sm.lsu.bypassMissRate, 0.0, 1.0);

    addU64("sharedMem.baseLatency", c.sm.sharedMem.baseLatency, 1,
           1'000'000);
    addInt("sharedMem.numBanks", c.sm.sharedMem.numBanks, 1, 1024);
    addU32("sharedMem.wordBytes", c.sm.sharedMem.wordBytes, 1, 4096);

    addInt("mem.numPartitions", c.mem.numPartitions, 1, 1024);
    addU64("mem.l2HitLatency", c.mem.l2HitLatency, 1, 1'000'000);

    addU64("l2.sizeBytes", c.mem.l2Partition.sizeBytes, 1,
           std::uint64_t{1} << 32);
    addU32("l2.ways", c.mem.l2Partition.ways, 1, 256);
    addU32("l2.lineSize", c.mem.l2Partition.lineSize, 1, 4096);
    addU32("l2.numMshrs", c.mem.l2Partition.numMshrs, 1, 65'536);
    addU32("l2.maxMergesPerMshr", c.mem.l2Partition.maxMergesPerMshr, 1,
           65'536);
    addReplacement("l2.replacement", c.mem.l2Partition.replacement);
    addBool("l2.hashSetIndex", c.mem.l2Partition.hashSetIndex);

    addU64("dram.baseLatency", c.mem.dram.baseLatency, 1, 100'000'000);
    addU64("dram.serviceInterval", c.mem.dram.serviceInterval, 1,
           100'000'000);
    addBool("dram.rowBufferModel", c.mem.dram.rowBufferModel);
    addInt("dram.numBanks", c.mem.dram.numBanks, 1, 4096);
    addU32("dram.rowBytes", c.mem.dram.rowBytes, 1,
           std::uint32_t{1} << 20);
    addU64("dram.rowHitInterval", c.mem.dram.rowHitInterval, 1,
           100'000'000);
    addU64("dram.rowMissInterval", c.mem.dram.rowMissInterval, 1,
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

    addInt("str.tableEntries", c.str.tableEntries, 1);
    addInt("str.degree", c.str.degree, 1);
    addInt("str.trainThreshold", c.str.trainThreshold, 1);

    // A one-line macro-block has no other line to prefetch.
    addInt("sld.linesPerBlock", c.sld.linesPerBlock, 2);
    addInt("sld.tableEntries", c.sld.tableEntries, 1);
    addU32("sld.lineSize", c.sld.lineSize, 1);

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

    // Everything registered above defaults to kSemantic; list the
    // exceptions explicitly. sim.fastForward qualifies because the
    // ff-equivalence suite pins its stats bitwise-identical to the
    // naive loop; sim.shards because the parallel epoch engine is
    // pinned bitwise-identical to the serial one by the same suite
    // (a cached result is valid for any shard count);
    // sim.watchdogCycles because it can only turn a hang into an
    // error, and errors are never cached.
    markObservation({"sim.audit", "sim.auditInterval", "sim.fastForward",
                     "sim.metrics", "sim.shards", "sim.trace",
                     "sim.traceBufferEvents", "sim.traceFile",
                     "sim.watchdogCycles"});
}

void
ConfigRegistry::markObservation(std::initializer_list<const char*> keys)
{
    for (const char* key : keys) {
        const auto it = entries_.find(key);
        if (it == entries_.end())
            fatal(std::string("markObservation: unknown config key \"") +
                  key + "\"");
        it->second.kind = ConfigKeyKind::kObservation;
    }
}

ConfigKeyKind
ConfigRegistry::keyKind(const std::string& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        throwConfigError("unknown config key \"" + key + "\"");
    return it->second.kind;
}

bool
ConfigRegistry::trySet(const std::string& key, const std::string& value,
                       std::string* error)
{
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        *error = "unknown config key \"" + key +
            "\" (apres_sim --list-keys prints the full namespace)";
        return false;
    }
    return it->second.set(value, error);
}

void
ConfigRegistry::set(const std::string& key, const std::string& value)
{
    std::string error;
    if (!trySet(key, value, &error))
        throwConfigError(error);
}

std::string
ConfigRegistry::get(const std::string& key) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        throwConfigError("unknown config key \"" + key + "\"");
    return it->second.get();
}

bool
ConfigRegistry::has(const std::string& key) const
{
    return entries_.count(key) != 0;
}

std::vector<std::string>
ConfigRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_)
        out.push_back(key);
    return out;
}

void
ConfigRegistry::applyAssignment(const std::string& assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos)
        throwConfigError("malformed override \"" + assignment +
                         "\" (expected key=value)");
    const std::string key = trim(assignment.substr(0, eq));
    const std::string value = trim(assignment.substr(eq + 1));
    if (key.empty())
        throwConfigError("malformed override \"" + assignment +
                         "\" (empty key)");
    set(key, value);
}

void
ConfigRegistry::loadFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throwConfigError("cannot open config file " + path);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const auto eq = stripped.find('=');
        if (eq == std::string::npos)
            throwConfigError(path + ":" + std::to_string(lineno) +
                             ": expected `key = value`, got \"" + stripped +
                             "\"");
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        std::string error;
        if (key.empty() || !trySet(key, value, &error))
            throwConfigError(path + ":" + std::to_string(lineno) + ": " +
                             (key.empty() ? "empty key" : error));
    }
}

std::map<std::string, std::string>
ConfigRegistry::snapshot() const
{
    std::map<std::string, std::string> out;
    for (const auto& [key, entry] : entries_)
        out.emplace(key, entry.get());
    return out;
}

std::map<std::string, std::string>
ConfigRegistry::semanticSnapshot() const
{
    std::map<std::string, std::string> out;
    for (const auto& [key, entry] : entries_) {
        if (entry.kind == ConfigKeyKind::kSemantic)
            out.emplace(key, entry.get());
    }
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
