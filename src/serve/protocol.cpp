/**
 * @file
 * Wire-protocol implementation: request parsing, cache keys and the
 * canonical RunResult serialization.
 */

#include "protocol.hpp"

#include <sstream>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"

namespace apres {

std::string
serveFingerprint()
{
    return kStatsSchemaVersion;
}

namespace {

/**
 * An override value may arrive as a JSON string, number or bool; the
 * registry wants the string form. Numbers use their exact source
 * lexeme so 64-bit seeds survive untouched.
 */
std::string
overrideValueToString(const std::string& key, const JsonValue& value)
{
    switch (value.type()) {
      case JsonValue::Type::kString: return value.asString();
      case JsonValue::Type::kBool:   return value.asBool() ? "true"
                                                           : "false";
      // The exact source lexeme, so 64-bit seeds survive untouched
      // (the registry's strict parsers re-validate per key type).
      case JsonValue::Type::kNumber: return value.numberLexeme();
      default:
        throwSerializationError(
            "override \"" + key +
            "\" must be a string, number or bool");
    }
}

ServeJobSpec
parseJob(const JsonValue& v, std::size_t index)
{
    if (!v.isObject())
        throwSerializationError("jobs[" + std::to_string(index) +
                                "] must be an object");
    ServeJobSpec job;
    const bool has_workload = v.has("workload");
    const bool has_text = v.has("kernelText");
    if (has_workload == has_text) {
        throwSerializationError(
            "jobs[" + std::to_string(index) +
            "] must carry exactly one of \"workload\" or \"kernelText\"");
    }
    if (has_workload)
        job.workload = v.at("workload").asString();
    else
        job.kernelText = v.at("kernelText").asString();
    if (const JsonValue* scale = v.find("scale")) {
        job.scale = scale->asDouble();
        if (!(job.scale > 0.0))
            throwConfigError("jobs[" + std::to_string(index) +
                             "].scale must be > 0");
    }
    if (const JsonValue* label = v.find("label"))
        job.label = label->asString();
    if (job.label.empty())
        job.label = has_workload ? job.workload
                                 : ("kernel-" + std::to_string(index));
    if (const JsonValue* overrides = v.find("overrides")) {
        for (const auto& [key, value] : overrides->members())
            job.overrides.emplace_back(key,
                                       overrideValueToString(key, value));
    }
    return job;
}

} // namespace

ServeRequest
parseServeRequest(const std::string& text)
{
    const JsonValue doc = JsonValue::parse(text);
    if (!doc.isObject())
        throwSerializationError("request must be a JSON object");
    const std::string& type = doc.at("type").asString();

    ServeRequest req;
    if (type == "ping") {
        req.type = ServeRequest::Type::kPing;
        return req;
    }
    if (type == "stats") {
        req.type = ServeRequest::Type::kStats;
        return req;
    }
    if (type == "shutdown") {
        req.type = ServeRequest::Type::kShutdown;
        return req;
    }
    if (type != "run")
        throwSerializationError("unknown request type \"" + type + "\"");

    req.type = ServeRequest::Type::kRun;
    if (const JsonValue* options = doc.find("options")) {
        // Strict: an unknown option would otherwise be a silent no-op.
        for (const auto& [key, value] : options->members()) {
            if (key != "timeoutSeconds")
                throwConfigError("unknown run option \"options." + key +
                                 "\" (the only option is timeoutSeconds)");
        }
        if (const JsonValue* t = options->find("timeoutSeconds")) {
            req.timeoutSeconds = t->asDouble();
            if (req.timeoutSeconds < 0.0)
                throwConfigError("options.timeoutSeconds must be >= 0");
        }
    }
    const JsonValue& jobs = doc.at("jobs");
    if (!jobs.isArray() || jobs.size() == 0)
        throwSerializationError("\"jobs\" must be a non-empty array");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        req.jobs.push_back(parseJob(jobs.at(i), i));
    return req;
}

void
writeServeJob(JsonWriter& json, const ServeJobSpec& job)
{
    json.beginObject();
    json.field("label", job.label);
    if (!job.kernelText.empty()) {
        json.field("kernelText", job.kernelText);
    } else {
        json.field("workload", job.workload);
        json.field("scale", job.scale);
    }
    if (!job.overrides.empty()) {
        json.beginObject("overrides");
        for (const auto& [key, value] : job.overrides)
            json.field(key, value);
        json.endObject();
    }
    json.endObject();
}

std::string
kernelFingerprint(const ServeJobSpec& job)
{
    if (!job.kernelText.empty())
        return "text:" + contentHash(job.kernelText);
    return "workload:" + job.workload + "@" + formatDouble(job.scale);
}

std::string
computeCacheKey(const std::string& fingerprint,
                const std::string& kernel_fp,
                const std::map<std::string, std::string>& semantic_config)
{
    ContentHasher hasher;
    hasher.update(fingerprint);
    hasher.update(kernel_fp);
    hasher.update(static_cast<std::uint64_t>(semantic_config.size()));
    for (const auto& [key, value] : semantic_config) {
        hasher.update(key);
        hasher.update(value);
    }
    return hasher.hexDigest();
}

std::string
errorResponse(const std::string& kind, const std::string& detail)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "error");
    json.field("kind", kind);
    json.field("detail", detail);
    json.endObject();
    json.finish();
    return os.str();
}

std::string
overloadedResponse(const std::string& reason,
                   std::uint64_t retry_after_ms)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "overloaded");
    json.field("reason", reason);
    json.field("retryAfterMs", retry_after_ms);
    json.endObject();
    json.finish();
    return os.str();
}

void
writeRunResultFields(JsonWriter& json, const RunResult& r)
{
    json.field("completed", r.completed);
    json.field("status", r.status);
    if (r.status != "ok") {
        json.beginObject("error");
        json.field("kind", r.errorKind);
        json.field("detail", r.errorDetail);
        json.endObject();
    }
    json.beginObject("config");
    for (const auto& [key, value] : r.config)
        json.field(key, value);
    json.endObject();
    json.beginObject("stats");
    const StatSet stats = r.toStatSet();
    for (const auto& [key, value] : stats.entries())
        json.field(key, value);
    json.endObject();
}

std::string
serializeRunResult(const RunResult& r)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    writeRunResultFields(json, r);
    json.endObject();
    json.finish();
    return os.str();
}

} // namespace apres
