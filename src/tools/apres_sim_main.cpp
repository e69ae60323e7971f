/**
 * @file
 * apres_sim — the command-line front end of the simulator.
 *
 * Runs one or more (workload, configuration) combinations and reports
 * the full statistics as text, CSV or JSON. The batch is a list of
 * ServeJobSpecs, built once: locally each spec is resolved like a
 * daemon job (resolveServeJob) and the jobs run as one SweepRunner
 * batch on APRES_BENCH_JOBS workers; with --connect the same specs go
 * to a running apres_serve, whose JSON answer is printed as it came.
 * Output follows submission order.
 *
 *   apres_sim --workload KM --apres
 *   apres_sim --workload all --sched ccws --pf str --csv results.csv
 *   apres_sim --workload SRAD --set l1.sizeBytes=1048576 --set numSms=4
 *   apres_sim --config paper.cfg --set scheduler=laws --json
 *
 * Configuration goes through the ConfigRegistry: every GpuConfig
 * field is reachable as a dotted key (`--list-keys` prints the
 * namespace), via `--set key=value` or a `--config` file of
 * `key = value` lines. Convenience flags (--sched, --l1-bytes, ...)
 * are sugar for the same keys. Precedence: defaults, then --config
 * files in order, then --set/convenience flags in command-line order.
 *
 * Run `apres_sim --help` for the full option list.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "serve/batch.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "sim/config_registry.hpp"
#include "sim/runner.hpp"
#include "sim/timeline.hpp"

using namespace apres;

namespace {

void
printHelp()
{
    std::cout <<
        "apres_sim - APRES (ISCA 2016) GPU timing simulator\n\n"
        "usage: apres_sim [options]\n\n"
        "workload selection:\n"
        "  --workload NAME   Table IV abbreviation, or 'all' (default KM)\n"
        "  --kernel-file F   run a declarative .kt kernel file instead\n"
        "  --scale F         trip-count multiplier (default 1.0)\n\n"
        "configuration (applied in order: --config files, then flags):\n"
        "  --set KEY=VALUE   set any config key (repeatable)\n"
        "  --config FILE     read 'key = value' lines ('#' comments)\n"
        "  --list-keys       print every key with its current value\n\n"
        "policy selection (sugar for --set):\n"
        "  --sched S         scheduler name (= scheduler=S; default lrr)\n"
        "  --pf P            prefetcher name (= prefetcher=P; default none)\n"
        "  --apres           shorthand for --sched laws --pf sap\n\n"
        "machine configuration (sugar for --set; Table III defaults):\n"
        "  --sms N           number of SMs (default 15)\n"
        "  --warps N         warps per SM (default 48; block size"
        " clamps at 64)\n"
        "  --jobs N          blocks per warp slot (default 4)\n"
        "  --l1-bytes N      L1 capacity (default 32768)\n"
        "  --mshrs N         L1 MSHR entries (default 64)\n"
        "  --replacement P   L1 victim policy: lru|fifo|random\n"
        "  --dram-interval N cycles per DRAM line transfer (default 6)\n"
        "  --dram-rows       enable the bank/row-buffer DRAM model\n"
        "  --bypass          enable adaptive L1 bypass for streams\n"
        "  --max-cycles N    simulation cap (default 50000000)\n\n"
        "service mode:\n"
        "  --connect SOCKET  submit the batch to a running apres_serve\n"
        "                    daemon instead of simulating locally; the\n"
        "                    raw JSON response is printed to stdout\n"
        "                    (so --csv, --quiet and --timeline are\n"
        "                    rejected) and repeated configurations are\n"
        "                    answered from its content-addressed result\n"
        "                    cache; a typed overloaded shed is retried\n"
        "                    up to 8 times with jittered backoff (100 ms\n"
        "                    doubling to 5 s, never under the daemon's\n"
        "                    retryAfterMs), a failed connection is\n"
        "                    reported at once\n\n"
        "output (jobs run on APRES_BENCH_JOBS workers, default all\n"
        "cores, and print in order; --json prints failed jobs as error\n"
        "rows, the other modes list them on stderr; any failure exits 1):\n"
        "  --trace FILE      write a Chrome trace_event JSON of the run\n"
        "                    (one job only; open in chrome://tracing or\n"
        "                    Perfetto; = sim.trace=true sim.traceFile=FILE)\n"
        "  --metrics         collect histogram metrics into the stats\n"
        "                    (metrics.* keys; = sim.metrics=true)\n"
        "  --json            print one JSON document with all runs\n"
        "  --csv FILE        append rows as CSV instead of text\n"
        "  --timeline FILE   write per-interval samples as CSV, each row\n"
        "                    led by its workload\n"
        "  --interval N      timeline sampling interval (default 2000)\n"
        "  --quiet           print only 'workload config ipc'\n"
        "  --help            this text\n";
}

/**
 * The settings of @p registry that differ from the defaults, as
 * overrides: resolving a spec that carries them rebuilds this config.
 */
std::vector<std::pair<std::string, std::string>>
overridesOverDefaults(const ConfigRegistry& registry)
{
    GpuConfig defaults;
    const auto base = ConfigRegistry(defaults).snapshot();
    std::vector<std::pair<std::string, std::string>> overrides;
    for (const auto& [key, value] : registry.snapshot()) {
        const auto it = base.find(key);
        if (it == base.end() || it->second != value)
            overrides.emplace_back(key, value);
    }
    return overrides;
}

/**
 * Service-mode client: ship the batch to a running apres_serve daemon
 * and print its raw JSON response. Returns the process exit code
 * (non-zero when any run is not "ok").
 */
int
runConnected(const std::string& socket_path,
             const std::vector<ServeJobSpec>& specs)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.beginArray("jobs");
    for (const ServeJobSpec& spec : specs)
        writeServeJob(json, spec);
    json.endArray();
    json.endObject();
    json.finish();

    int attempts = 0;
    const std::string response =
        serveRoundTripWithRetry(socket_path, os.str(), &attempts);
    std::cout << response << '\n';

    const JsonValue doc = JsonValue::parse(response);
    if (!doc.isObject() || doc.at("type").asString() != "result") {
        if (doc.isObject() && doc.find("type") &&
            doc.at("type").asString() == "overloaded") {
            std::cerr << "apres_sim: daemon still overloaded after "
                      << attempts << " attempt(s); try again later\n";
        }
        return 1;
    }
    const JsonValue& runs = doc.at("runs");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs.at(i).at("result").at("status").asString() != "ok")
            return 1;
    }
    return 0;
}

int run(int argc, char** argv);

} // namespace

int
main(int argc, char** argv)
{
    // Config, kernel and simulation failures are typed SimErrors now:
    // report them cleanly and exit non-zero (never std::terminate).
    try {
        return run(argc, argv);
    } catch (const SimError& e) {
        std::cerr << "apres_sim: " << e.what() << '\n';
        return 1;
    }
}

namespace {

int
run(int argc, char** argv)
{
    std::string workload = "KM";
    std::string kernel_file;
    std::string connect_path;
    double scale = 1.0;
    std::string csv_path;
    std::string timeline_path;
    Cycle timeline_interval = 2000;
    bool quiet = false;
    bool json_output = false;
    bool list_keys = false;
    std::vector<std::string> config_files;
    // "key=value" assignments from --set and the convenience flags,
    // in command-line order; applied after the --config files.
    std::vector<std::string> assignments;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--kernel-file") {
            kernel_file = next();
        } else if (arg == "--connect") {
            connect_path = next();
        } else if (arg == "--scale") {
            scale = parsePositiveDoubleOption(arg, next());
        } else if (arg == "--set") {
            assignments.push_back(next());
        } else if (arg == "--config") {
            config_files.push_back(next());
        } else if (arg == "--list-keys") {
            list_keys = true;
        } else if (arg == "--sched") {
            assignments.push_back("scheduler=" + next());
        } else if (arg == "--pf") {
            assignments.push_back("prefetcher=" + next());
        } else if (arg == "--apres") {
            assignments.push_back("scheduler=laws");
            assignments.push_back("prefetcher=sap");
        } else if (arg == "--sms") {
            assignments.push_back("numSms=" + next());
        } else if (arg == "--warps") {
            const std::string n = next();
            assignments.push_back("sm.warpsPerSm=" + n);
            // warpsPerSm is unbounded but blocks cap at 64 warps, so
            // the shorthand clamps its block half; non-numeric values
            // pass through for the registry's typed rejection.
            char* end = nullptr;
            const long parsed = std::strtol(n.c_str(), &end, 10);
            const bool numeric = end != nullptr && *end == '\0' &&
                                 !n.empty();
            assignments.push_back(
                "sm.warpsPerBlock=" +
                (numeric && parsed > 64 ? std::string("64") : n));
        } else if (arg == "--jobs") {
            assignments.push_back("sm.jobsPerWarp=" + next());
        } else if (arg == "--l1-bytes") {
            assignments.push_back("l1.sizeBytes=" + next());
        } else if (arg == "--mshrs") {
            assignments.push_back("l1.numMshrs=" + next());
        } else if (arg == "--replacement") {
            assignments.push_back("l1.replacement=" + next());
        } else if (arg == "--dram-interval") {
            assignments.push_back("dram.serviceInterval=" + next());
        } else if (arg == "--dram-rows") {
            assignments.push_back("dram.rowBufferModel=true");
        } else if (arg == "--bypass") {
            assignments.push_back("lsu.adaptiveBypass=true");
        } else if (arg == "--max-cycles") {
            assignments.push_back("maxCycles=" + next());
        } else if (arg == "--trace") {
            assignments.push_back("sim.trace=true");
            assignments.push_back("sim.traceFile=" + next());
        } else if (arg == "--metrics") {
            assignments.push_back("sim.metrics=true");
        } else if (arg == "--json") {
            json_output = true;
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--timeline") {
            timeline_path = next();
        } else if (arg == "--interval") {
            timeline_interval =
                parsePositiveUintOption(arg, next());
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            fatal("unknown option: " + arg + " (try --help)");
        }
    }
    // With --connect the daemon's answer is printed as it came, one
    // JSON document, so the flags that shape local output do not apply.
    const char* local_output = !csv_path.empty() ? "--csv"
        : quiet                                  ? "--quiet"
        : !timeline_path.empty()                 ? "--timeline"
                                                 : nullptr;
    if (!connect_path.empty() && local_output) {
        throwConfigError(std::string(local_output) +
                         " does not apply with --connect, which prints "
                         "the daemon's JSON response");
    }

    GpuConfig cfg;
    ConfigRegistry registry(cfg);
    for (const std::string& path : config_files)
        registry.loadFile(path);
    for (const std::string& assignment : assignments)
        registry.applyAssignment(assignment);

    if (list_keys) {
        for (const auto& [key, value] : registry.snapshot())
            std::cout << key << " = " << value << '\n';
        return 0;
    }

    // A kernel file replaces the workload.
    const bool from_file = !kernel_file.empty();
    const std::vector<ServeJobSpec> specs = makeServeJobSpecs(
        from_file ? std::vector<std::string>{} : std::vector{workload},
        from_file ? std::vector{kernel_file} : std::vector<std::string>{},
        scale, overridesOverDefaults(registry));
    if (!connect_path.empty())
        return runConnected(connect_path, specs);

    if (!cfg.traceFile.empty() && specs.size() > 1) {
        throwConfigError("sim.traceFile names one file, so --trace takes "
                         "one job (got " + std::to_string(specs.size()) +
                         ")");
    }
    // Every spec resolves before any job runs: a bad input fails the
    // command, not one row.
    std::vector<SweepJob> jobs;
    for (const ServeJobSpec& spec : specs) {
        try {
            jobs.push_back(resolveServeJob(spec));
        } catch (const SimError& e) {
            if (spec.kernelText.empty())
                throw;
            // A kernel file's label is its path: name the file.
            throw SimError(e.kind(), spec.label + ": " + e.detail());
        }
    }

    std::vector<TimelineRecorder> recorders;
    if (!timeline_path.empty())
        recorders.assign(jobs.size(), TimelineRecorder(timeline_interval));
    SweepRunner runner;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!recorders.empty()) {
            jobs[i].drive = [&recorder = recorders[i]](Gpu& gpu) {
                return recorder.record(gpu);
            };
        }
        runner.submit(std::move(jobs[i]));
    }
    const std::vector<SweepResult> results = runner.runAll();

    // Rows in submission order; --json prints every row, the other
    // modes the ones that succeeded (failureSummary covers the rest).
    const std::string label = cfg.label();
    CsvWriter csv("workload");
    CsvWriter timeline_csv("workload");
    std::unique_ptr<JsonWriter> json;
    if (json_output) {
        json = std::make_unique<JsonWriter>(std::cout);
        json->beginObject();
        json->beginArray("runs");
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string& name = results[i].label;
        const RunResult& r = results[i].result;
        const bool ok = r.status == "ok";
        if (ok && !recorders.empty())
            recorders[i].toCsv(timeline_csv, name);
        if (json_output) {
            json->beginObject();
            json->field("workload", name);
            json->field("label", label);
            writeRunResultFields(*json, r);
            json->endObject();
        } else if (!ok) {
            continue;
        } else if (!csv_path.empty()) {
            csv.addRow(name + ":" + label, r.toStatSet());
        } else if (quiet) {
            std::cout << name << ' ' << label << ' ' << r.ipc << '\n';
        } else {
            std::cout << "== " << name << " under " << label << " ==\n";
            r.toStatSet().dump(std::cout);
            std::cout << '\n';
        }
    }
    if (json_output) {
        json->endArray();
        json->endObject();
        json->finish();
        json.reset();
    }

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out)
            fatal("cannot open " + csv_path);
        csv.write(out);
        if (!json_output) {
            std::cout << "wrote " << csv.size() << " rows to " << csv_path
                      << '\n';
        }
    }
    if (!timeline_path.empty()) {
        std::ofstream out(timeline_path);
        if (!out)
            fatal("cannot open " + timeline_path);
        timeline_csv.write(out);
        if (!json_output) {
            std::cout << "wrote " << timeline_csv.size()
                      << " timeline samples to " << timeline_path << '\n';
        }
    }
    const std::string failures = failureSummary(results);
    if (failures.empty())
        return 0;
    if (!json_output)
        std::cerr << "apres_sim: " << failures;
    return 1;
}

} // namespace
