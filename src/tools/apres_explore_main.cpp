/**
 * @file
 * apres_explore — coverage-guided workload exploration and policy
 * comparison.
 *
 * Two modes, selected by the first positional argument:
 *
 *   apres_explore explore --seed 7 --budget 50 --corpus tests/corpus \
 *       --report explore_report.json
 *
 * runs a deterministic coverage-guided campaign (src/explore): random
 * and mutated kernels over the Table-I signature space are probed
 * under a small set of machine shapes, scored by which behavioral
 * coverage bins they newly light, minimized, and written to the
 * corpus directory as self-describing .kt files.
 *
 *   apres_explore compare --policy lrr+none --policy laws+sap \
 *       --workload KM,BFS --json compare.json
 *
 * simulates every (kernel, policy) cell once through the sweep runner
 * and reports both IPCs and their ratio per policy pair (JSON and/or
 * CSV). With --cache-dir the cells are memoized in the serve result
 * cache, so warm re-runs cost zero simulations.
 *
 * Both modes are bitwise-deterministic (explore given its --seed).
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/key_registry.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "explore/explorer.hpp"
#include "explore/policy_compare.hpp"
#include "serve/batch.hpp"

using namespace apres;

namespace {

void
printHelp()
{
    std::cout <<
        "apres_explore - coverage-guided exploration + policy comparison\n\n"
        "usage: apres_explore explore [options]\n"
        "       apres_explore compare [options]\n\n"
        "explore mode:\n"
        "  --seed N          campaign Rng seed (default 1); same seed =>\n"
        "                    same corpus, coverage map and report\n"
        "  --budget N        candidate kernels to evaluate (default 50)\n"
        "  --corpus DIR      load existing *.kt corpus and write new\n"
        "                    discoveries there (default: in-memory)\n"
        "  --report FILE     write the campaign report JSON (default\n"
        "                    stdout)\n"
        "  --fresh-bias F    chance of a fresh random kernel instead of\n"
        "                    a mutation (default 0.25)\n"
        "  --set KEY=VALUE   extra config override for every probe\n"
        "                    (repeatable)\n\n"
        "compare mode (one simulation per (kernel, policy) cell):\n"
        "  --policy S+P      scheduler+prefetcher contender (repeatable;\n"
        "                    default lrr+none, laws+sap)\n"
        "  --workload LIST   comma-separated Table IV names, or 'all'\n"
        "  --kernel-file F   add a .kt kernel (repeatable; corpus files\n"
        "                    work directly)\n"
        "  --scale F         workload trip multiplier (default 0.1)\n"
        "  --cache-dir DIR   memoize cells in a serve result cache\n"
        "  --threads N       sweep threads (default: all cores)\n"
        "  --json FILE       write the report JSON (default stdout)\n"
        "  --csv FILE        also write one CSV row per pair\n"
        "  --set KEY=VALUE   config override for every cell (repeatable)\n\n"
        "  --help            this text\n";
}

int
runExplore(const std::vector<std::string>& args)
{
    ExploreOptions opts;
    std::string report_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal("option " + arg + " needs a value");
            return args[++i];
        };
        if (arg == "--seed") {
            opts.seed = parseUintOption(arg, next());
        } else if (arg == "--budget") {
            opts.budget =
                static_cast<int>(parsePositiveUintOption(arg, next()));
        } else if (arg == "--corpus") {
            opts.corpusDir = next();
        } else if (arg == "--report") {
            report_path = next();
        } else if (arg == "--fresh-bias") {
            opts.freshBias = parsePositiveDoubleOption(arg, next());
        } else if (arg == "--set") {
            opts.overrides.push_back(KeyRegistry::parseAssignment(next()));
        } else if (arg == "--help") {
            printHelp();
            return 0;
        } else {
            fatal("unknown explore option '" + arg + "'");
        }
    }

    Explorer explorer(opts);
    const std::size_t new_bins = explorer.run();
    std::cerr << "apres_explore: " << new_bins << " new bin(s), corpus "
              << explorer.corpus().size() << " kernel(s), coverage "
              << explorer.coverage().size() << " bin(s)\n";

    if (report_path.empty()) {
        explorer.writeReport(std::cout);
        std::cout << '\n';
    } else {
        std::ofstream out(report_path);
        if (!out)
            fatal("cannot write " + report_path);
        explorer.writeReport(out);
        out << '\n';
    }
    return 0;
}

int
runCompare(const std::vector<std::string>& args)
{
    CompareOptions opts;
    std::string json_path;
    std::string csv_path;
    std::vector<std::string> workloads;
    std::vector<std::string> kernel_files;
    double scale = 0.1;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size())
                fatal("option " + arg + " needs a value");
            return args[++i];
        };
        if (arg == "--policy") {
            const std::string& spec = next();
            const std::size_t plus = spec.find('+');
            if (plus == std::string::npos || plus == 0 ||
                plus + 1 >= spec.size())
                fatal("--policy needs SCHED+PREFETCHER, got '" + spec +
                      "'");
            ComparePolicy p;
            p.scheduler = spec.substr(0, plus);
            p.prefetcher = spec.substr(plus + 1);
            opts.policies.push_back(std::move(p));
        } else if (arg == "--workload") {
            std::istringstream list(next());
            std::string name;
            while (std::getline(list, name, ','))
                if (!name.empty())
                    workloads.push_back(name);
        } else if (arg == "--kernel-file") {
            kernel_files.push_back(next());
        } else if (arg == "--scale") {
            scale = parsePositiveDoubleOption(arg, next());
        } else if (arg == "--cache-dir") {
            opts.cacheDir = next();
        } else if (arg == "--threads") {
            opts.threads =
                static_cast<int>(parsePositiveUintOption(arg, next()));
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--set") {
            opts.overrides.push_back(KeyRegistry::parseAssignment(next()));
        } else if (arg == "--help") {
            printHelp();
            return 0;
        } else {
            fatal("unknown compare option '" + arg + "'");
        }
    }

    if (opts.policies.empty()) {
        opts.policies.push_back({"lrr", "none"});
        opts.policies.push_back({"laws", "sap"});
    }
    if (workloads.empty() && kernel_files.empty())
        workloads = {"KM"};
    opts.kernels = makeServeJobSpecs(workloads, kernel_files, scale);

    const CompareReport report = runComparison(opts);
    std::cerr << "apres_explore: " << report.pairs.size() << " pair(s), "
              << report.simulations << " simulation(s), "
              << report.cacheHits << " cache hit(s)\n";

    if (json_path.empty()) {
        report.writeJson(std::cout);
        std::cout << '\n';
    } else {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write " + json_path);
        report.writeJson(out);
        out << '\n';
    }
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out)
            fatal("cannot write " + csv_path);
        report.writeCsv(out);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        std::vector<std::string> args(argv + 1, argv + argc);
        if (args.empty() || args[0] == "--help" || args[0] == "-h") {
            printHelp();
            return args.empty() ? 1 : 0;
        }
        const std::string mode = args[0];
        args.erase(args.begin());
        if (mode == "explore")
            return runExplore(args);
        if (mode == "compare")
            return runCompare(args);
        fatal("unknown mode '" + mode + "' (expected explore|compare)");
    } catch (const SimError& e) {
        std::cerr << "apres_explore: " << e.what() << '\n';
        return 1;
    }
}
