/**
 * @file
 * apres_serve wire protocol: batched run requests and results as
 * JSON, plus the canonical serialization and cache-key anatomy the
 * content-addressed result cache is built on.
 *
 * A request is one JSON object:
 *
 *   {"type": "ping"}                     -> {"type": "pong"}
 *   {"type": "stats"}                    -> cache/executor counters
 *   {"type": "shutdown"}                 -> ack, then the daemon stops
 *   {"type": "run",
 *    "options": {"timeoutSeconds": 5.0},                 (optional)
 *    "jobs": [
 *      {"label": "km-64k",                               (optional)
 *       "workload": "KM", "scale": 1.0,    (or "kernelText": "...")
 *       "overrides": {"l1.sizeBytes": 65536,             (optional)
 *                     "scheduler": "laws"}}, ...]}
 *
 * The run response carries one entry per job, in request order:
 *
 *   {"type": "result",
 *    "fingerprint": "<schema fingerprint>",
 *    "cache": {"memoryHits": 3, "diskHits": 1, "misses": 4, ...},
 *    "simulations": 4,
 *    "runs": [{"label": "km-64k", "key": "<32 hex>", "cached": true,
 *              "result": { ...RunResult document... }}, ...]}
 *
 * Cache-key anatomy — the "result" payload of a job is memoized under
 * contentHash over, in order:
 *
 *   1. the schema fingerprint (serveFingerprint()): stats-schema
 *      version + protocol version; bumping either orphan-invalidates
 *      every existing entry, so results can never leak across
 *      code changes that alter what a RunResult means;
 *   2. the kernel fingerprint: "workload:<name>@<scale>" for named
 *      workloads, "text:<contentHash(kernel text)>" for inline
 *      kernels — kernel identity, not kernel pointer;
 *   3. the *semantic* ConfigRegistry snapshot (sorted key=value
 *      lines). Observation-only keys (sim.trace*, sim.audit*, ...)
 *      are excluded; see ConfigRegistry::semanticSnapshot. The same
 *      snapshot is the "config" echo of every result, so a cached
 *      payload never depends on which request stored it.
 *
 * Only status=="ok" results are cached: errors and timeouts are
 * environmental or diagnostic, and re-running them is the point.
 *
 * Overload control: a daemon whose bounded admission queue is full,
 * or that is shutting down with requests still queued, answers with a
 * typed shed document instead of queueing silently:
 *
 *   {"type": "overloaded", "reason": "queueFull" | "shutdown",
 *    "retryAfterMs": 500}
 *
 * retryAfterMs is the daemon's backlog-scaled hint; well-behaved
 * clients (apres_sim --connect, serveRoundTripWithRetry) honor it as
 * a lower bound on their jittered exponential backoff. Oversized
 * requests (serve.maxRequestBytes) are rejected with
 * {"type":"error","kind":"RequestTooLarge",...} and slow or half-open
 * clients are cut off by the socket deadlines (serve.ioTimeoutMs).
 */

#ifndef APRES_SERVE_PROTOCOL_HPP
#define APRES_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json_value.hpp"
#include "sim/gpu.hpp"

namespace apres {

/**
 * Version of the RunResult stats schema + wire protocol. Bump
 * whenever serialized results change meaning (new/renamed stats,
 * changed config keys, changed serialization): the fingerprint is
 * part of every cache key, so a bump invalidates all cached entries
 * at once instead of serving stale documents.
 */
inline constexpr const char* kStatsSchemaVersion = "apres-results-v3";

/** The fingerprint cache keys embed: kStatsSchemaVersion. */
std::string serveFingerprint();

/** One job of a batched run request. */
struct ServeJobSpec
{
    std::string label;      ///< defaults to the workload name
    std::string workload;   ///< Table IV abbreviation; empty for text
    double scale = 1.0;     ///< workload trip-count multiplier
    std::string kernelText; ///< declarative .kt text; empty for named

    /** Dotted config keys -> value strings, applied over defaults. */
    std::vector<std::pair<std::string, std::string>> overrides;
};

/** A parsed request. */
struct ServeRequest
{
    enum class Type { kPing, kStats, kShutdown, kRun };
    Type type = Type::kPing;

    std::vector<ServeJobSpec> jobs; ///< kRun only
    double timeoutSeconds = 0.0;    ///< kRun option, the only one
};

/**
 * Parse one request document. Throws SimError(kSerialization) on
 * malformed JSON or protocol shape, SimError(kConfig) on bad option
 * values or an unknown run option — either way the daemon answers
 * with an error response instead of running anything.
 */
ServeRequest parseServeRequest(const std::string& text);

/** Serialize @p job back to its request JSON (client side). */
void writeServeJob(class JsonWriter& json, const ServeJobSpec& job);

/**
 * Kernel identity for cache keys: "workload:<name>@<scale>" or
 * "text:<contentHash(kernel text)>".
 */
std::string kernelFingerprint(const ServeJobSpec& job);

/**
 * The content-addressed cache key of one job: contentHash over the
 * schema fingerprint, the kernel fingerprint and the semantic config
 * snapshot (see the anatomy above). 32 lowercase hex chars.
 */
std::string computeCacheKey(
    const std::string& fingerprint, const std::string& kernel_fp,
    const std::map<std::string, std::string>& semantic_config);

/**
 * Write one RunResult's fields (completed, status, error when not ok,
 * the echoed config, the flattened stats) into the object @p json has
 * open. serializeRunResult and apres_sim --json both write results
 * through it.
 */
void writeRunResultFields(class JsonWriter& json, const RunResult& result);

/**
 * Canonical serialization of one RunResult: a complete JSON object
 * holding writeRunResultFields with canonical doubles, suitable both
 * as a response payload and as the bitwise-stable cached document.
 */
std::string serializeRunResult(const RunResult& result);

/** {"type":"error","kind":...,"detail":...} */
std::string errorResponse(const std::string& kind,
                          const std::string& detail);

/**
 * The typed shed document: {"type":"overloaded","reason":...,
 * "retryAfterMs":...}. @p reason is "queueFull" or "shutdown".
 */
std::string overloadedResponse(const std::string& reason,
                               std::uint64_t retry_after_ms);

} // namespace apres

#endif // APRES_SERVE_PROTOCOL_HPP
