/**
 * @file
 * perfbench_harness: runs one benchmark workload and prints one JSON
 * line with its outcome, metrics and build provenance. perfbench/run.py
 * builds this binary, runs it, and turns the line into the benchmark's
 * result.
 *
 *   perfbench_harness --workload fullchip-apres --seed 1 --seconds 10
 *                     [--trace 0|1] [--serve-bin PATH] [--span-file F]
 */

#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "common/parse.hpp"
#include "harness/bench_math.hpp"
#include "harness/workloads.hpp"

#if defined(__OPTIMIZE__) && defined(NDEBUG)
static constexpr bool kOptimizedBuild = true;
#else
static constexpr bool kOptimizedBuild = false;
#endif

namespace {

using namespace perfbench;

int
usage()
{
    std::cerr << "usage: perfbench_harness --workload "
                 "fullchip-apres|paper-suite|serve-mixed --seed N "
                 "--seconds S [--trace 0|1] [--serve-bin PATH] "
                 "[--span-file FILE]\n";
    return 2;
}

void
writeMetrics(apres::JsonWriter& json, const std::string& key,
             const MetricMap& metrics)
{
    json.beginObject(key);
    for (const auto& [name, metric] : metrics) {
        json.beginObject(name);
        json.field("value", metric.value);
        json.field("unit", metric.unit);
        json.endObject();
    }
    json.endObject();
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            if (!apres::parseUint64Strict(value, &opts.seed))
                return usage();
        } else if (arg == "--seconds") {
            if (!apres::parseDoubleStrict(value, &opts.seconds))
                return usage();
        } else if (arg == "--trace") {
            opts.trace = value == "1";
        } else if (arg == "--serve-bin") {
            opts.serveBinary = value;
        } else if (arg == "--span-file") {
            opts.spanFile = value;
        } else {
            return usage();
        }
    }
    if (!(opts.seconds > 0.0))
        return usage();

    // A debug build's timings say nothing about the simulator's speed.
    if (!kOptimizedBuild) {
        std::cerr << "perfbench: refusing to record from a non-optimised "
                     "build (build type " PERFBENCH_BUILD_TYPE ")\n";
        return 3;
    }

    SpanLog spans(opts.trace);
    Outcome out;
    try {
        if (opts.workload == "fullchip-apres")
            runFullchip(opts, spans, out);
        else if (opts.workload == "paper-suite")
            runPaperSuite(opts, spans, out);
        else if (opts.workload == "serve-mixed")
            runServeMixed(opts, spans, out);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opts.workload << " aborted: "
                  << e.what() << "\n";
        return 1;
    }
    if (opts.trace) {
        fillUnexercisedLayers(out.layers);
        if (!opts.spanFile.empty()) {
            std::ofstream file(opts.spanFile);
            spans.write(file);
        }
    }

    apres::JsonWriter json(std::cout);
    json.beginObject();
    json.field("workload", opts.workload);
    json.field("seed", opts.seed);
    json.field("trace", opts.trace);
    json.field("correct", out.failed == 0 && out.attempted > 0);
    json.field("attempted", out.attempted);
    json.field("failed", out.failed);
    json.field("failedFrac", failedFrac(out.failed, out.attempted));
    json.beginArray("failures");
    for (const std::string& f : out.failures) {
        json.beginObject();
        json.field("what", f);
        json.endObject();
    }
    json.endArray();
    json.beginArray("notes");
    for (const std::string& n : out.notes) {
        json.beginObject();
        json.field("note", n);
        json.endObject();
    }
    json.endArray();
    writeMetrics(json, "endToEnd", out.endToEnd);
    writeMetrics(json, "layers", out.layers);
    writeMetrics(json, "report", out.report);
    json.beginObject("build");
    json.field("type", PERFBENCH_BUILD_TYPE);
    json.field("compiler", PERFBENCH_COMPILER);
    json.field("optimized", kOptimizedBuild);
    json.endObject();
    json.endObject();
    json.finish();
    std::cout << "\n";
    return 0;
}
