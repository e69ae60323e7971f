/**
 * @file
 * Tracer implementation: ring bookkeeping and the two renderers.
 */

#include "trace.hpp"

#include <cassert>
#include <sstream>

#include "common/json.hpp"

namespace apres {

const char*
traceEventTypeName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::kWarpIssue: return "warp-issue";
      case TraceEventType::kSchedulerIdle: return "scheduler-idle";
      case TraceEventType::kL1Hit: return "l1-hit";
      case TraceEventType::kL1Miss: return "l1-miss";
      case TraceEventType::kL1Bypass: return "l1-bypass";
      case TraceEventType::kMshrMerge: return "mshr-merge";
      case TraceEventType::kDramService: return "dram-service";
      case TraceEventType::kLawsGroupPromote: return "laws-group-promote";
      case TraceEventType::kLawsGroupDemote: return "laws-group-demote";
      case TraceEventType::kSapPtTrain: return "sap-pt-train";
      case TraceEventType::kSapStrideMatch: return "sap-stride-match";
      case TraceEventType::kSapPrefetchIssue: return "sap-prefetch-issue";
      case TraceEventType::kSapWqDrain: return "sap-wq-drain";
      case TraceEventType::kFfIdleSpan: return "ff-idle-span";
    }
    return "?";
}

Tracer::Tracer(int num_sms, std::size_t capacity_per_lane)
    : numSms_(num_sms), capacity_(capacity_per_lane)
{
    assert(num_sms >= 1);
    assert(capacity_per_lane >= 1);
    lanes_.resize(static_cast<std::size_t>(numLanes()));
}

void
Tracer::record(int lane, TraceEventType type, Cycle cycle, Pc pc,
               WarpId warp, std::uint64_t arg)
{
    assert(lane >= 0 && lane < numLanes());
    Lane& l = lanes_[static_cast<std::size_t>(lane)];
    TraceRecord rec;
    rec.cycle = cycle;
    rec.arg = arg;
    rec.pc = pc;
    rec.warp = warp;
    rec.type = type;
    if (l.buf.size() < capacity_) {
        l.buf.push_back(rec);
    } else {
        // Ring full: overwrite the oldest record (head) and advance.
        l.buf[l.head] = rec;
        l.head = (l.head + 1) % capacity_;
    }
    ++l.total;
    ++l.typeCounts[static_cast<std::size_t>(type)];
}

std::uint64_t
Tracer::eventTypeCount(TraceEventType type) const
{
    std::uint64_t n = 0;
    for (int lane = 0; lane < numLanes(); ++lane) {
        if (lane != engineLane()) {
            n += lanes_[static_cast<std::size_t>(lane)]
                     .typeCounts[static_cast<std::size_t>(type)];
        }
    }
    return n;
}

std::vector<std::pair<std::string, std::uint64_t>>
Tracer::eventTypeCounts() const
{
    std::vector<std::pair<std::string, std::uint64_t>> counts;
    for (std::size_t i = 0; i < kNumTraceEventTypes; ++i) {
        const auto type = static_cast<TraceEventType>(i);
        const std::uint64_t n = eventTypeCount(type);
        if (n != 0)
            counts.emplace_back(traceEventTypeName(type), n);
    }
    return counts;
}

std::uint64_t
Tracer::recorded() const
{
    std::uint64_t n = 0;
    for (const Lane& l : lanes_)
        n += l.total;
    return n;
}

std::uint64_t
Tracer::dropped() const
{
    std::uint64_t n = 0;
    for (const Lane& l : lanes_)
        n += l.total - l.buf.size();
    return n;
}

std::uint64_t
Tracer::retained() const
{
    std::uint64_t n = 0;
    for (const Lane& l : lanes_)
        n += l.buf.size();
    return n;
}

std::string
Tracer::laneLabel(int lane) const
{
    if (lane < numSms_)
        return "sm" + std::to_string(lane);
    return lane == memLane() ? "mem" : "engine";
}

template <typename Fn>
void
Tracer::forEachRetained(const Lane& lane, Fn&& fn) const
{
    // Oldest-first: once the ring wrapped, `head` is the oldest slot.
    const std::size_t n = lane.buf.size();
    const std::size_t start = lane.total > n ? lane.head : 0;
    for (std::size_t i = 0; i < n; ++i)
        fn(lane.buf[(start + i) % n]);
}

void
Tracer::writeChromeTrace(std::ostream& os) const
{
    JsonWriter json(os);
    json.beginObject();
    // 1 cycle = 1 us keeps sub-cycle zoom available in the viewers.
    json.field("displayTimeUnit", "ms");
    json.beginArray("traceEvents");

    // Metadata: name each lane's process so the viewer shows "sm0",
    // "mem", "engine" instead of bare pids.
    for (int lane = 0; lane < numLanes(); ++lane) {
        json.beginObject();
        json.field("name", "process_name");
        json.field("ph", "M");
        json.field("pid", static_cast<std::uint64_t>(lane));
        json.beginObject("args");
        json.field("name", laneLabel(lane));
        json.endObject();
        json.endObject();
    }

    for (int lane = 0; lane < numLanes(); ++lane) {
        forEachRetained(
            lanes_[static_cast<std::size_t>(lane)],
            [&](const TraceRecord& rec) {
                const bool span = rec.type == TraceEventType::kFfIdleSpan;
                json.beginObject();
                json.field("name", traceEventTypeName(rec.type));
                json.field("ph", span ? "X" : "i");
                if (!span)
                    json.field("s", "t"); // instant scope: thread
                json.field("ts", static_cast<std::uint64_t>(rec.cycle));
                if (span)
                    json.field("dur", rec.arg); // arg = skipped cycles
                json.field("pid", static_cast<std::uint64_t>(lane));
                json.field("tid",
                           static_cast<std::uint64_t>(
                               rec.warp >= 0 ? rec.warp : 0));
                json.beginObject("args");
                if (rec.pc != kInvalidPc)
                    json.field("pc", static_cast<std::uint64_t>(rec.pc));
                if (rec.warp != kInvalidWarp) {
                    json.field("warp", static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(
                                               rec.warp)));
                }
                if (!span && rec.arg != 0)
                    json.field("arg", rec.arg);
                json.endObject();
                json.endObject();
            });
    }
    json.endArray();

    json.beginObject("stats");
    json.field("recorded", recorded());
    json.field("retained", retained());
    json.field("dropped", dropped());
    json.endObject();
    json.endObject();
    json.finish();
}

std::string
Tracer::eventSummary(std::size_t max_per_lane) const
{
    std::ostringstream out;
    for (int lane = 0; lane < numLanes(); ++lane) {
        if (lane == engineLane())
            continue; // timing artifacts, not machine behaviour
        const std::string label = laneLabel(lane);
        std::size_t emitted = 0;
        forEachRetained(
            lanes_[static_cast<std::size_t>(lane)],
            [&](const TraceRecord& rec) {
                if (max_per_lane != 0 && emitted >= max_per_lane)
                    return;
                ++emitted;
                out << label << ' ' << traceEventTypeName(rec.type)
                    << " pc=";
                if (rec.pc != kInvalidPc)
                    out << rec.pc;
                else
                    out << '-';
                out << " warp=";
                if (rec.warp != kInvalidWarp)
                    out << rec.warp;
                else
                    out << '-';
                out << '\n';
            });
    }
    return out.str();
}

} // namespace apres
