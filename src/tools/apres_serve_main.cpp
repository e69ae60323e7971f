/**
 * @file
 * apres_serve — the simulation service daemon.
 *
 * Accepts batched run requests as JSON over a local AF_UNIX socket
 * and memoizes results in a two-tier content-addressed cache, so
 * repeated configurations are served in O(1) without re-simulating.
 *
 *   apres_serve --socket /tmp/apres.sock --cache-dir ~/.cache/apres
 *
 * Submit work with the apres_sim client mode:
 *
 *   apres_sim --connect /tmp/apres.sock --workload KM --apres --json
 *
 * or with any tool that speaks the protocol (see DESIGN.md
 * "Simulation service"). Stop it with a {"type":"shutdown"} request
 * or SIGINT/SIGTERM.
 *
 * Every serving knob is a serve.* config key (--set serve.key=value,
 * enumerable with --list-keys); the named flags below are sugar over
 * the same registry. --fault-inject arms the deterministic
 * fault-injection seam for chaos testing — never use it in production.
 */

#include <atomic>
#include <csignal>
#include <iostream>
#include <string>

#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "serve/daemon.hpp"
#include "serve/serve_config.hpp"

using namespace apres;

namespace {

std::atomic<ServeDaemon*> g_daemon{nullptr};

void
onSignal(int)
{
    // async-signal-safe: just request the stop; the poll loop notices.
    if (ServeDaemon* daemon = g_daemon.load())
        daemon->requestStop();
}

void
printHelp()
{
    std::cout <<
        "apres_serve - APRES simulation service with a "
        "content-addressed result cache\n\n"
        "usage: apres_serve --socket PATH [options]\n\n"
        "  --socket PATH          AF_UNIX socket to listen on "
        "(required)\n"
        "  --cache-dir DIR        persistent cache directory (default: "
        "in-memory only)\n"
        "  --cache-max-bytes N    cache size cap, memory and disk each; "
        "LRU eviction\n"
        "                         (default: unlimited)\n"
        "  --cache-max-entries N  cache entry cap, memory and disk each "
        "(default:\n"
        "                         unlimited)\n"
        "  --threads N            requests served and simulations run "
        "at once\n"
        "                         (0-256; default 0 = hardware "
        "concurrency)\n"
        "  --queue-depth N        admission-queue depth; connections\n"
        "                         beyond it get a typed overloaded "
        "shed (default: 16)\n"
        "  --io-timeout-ms N      socket read/write deadline "
        "(default: 10000)\n"
        "  --max-request-bytes N  reject larger requests "
        "(default: 16 MiB)\n"
        "  --set KEY=VALUE        set any serve.* key directly\n"
        "  --list-keys            print every serve.* key and exit\n"
        "  --fault-inject SPEC    arm deterministic fault injection "
        "(testing only)\n"
        "  --help                 this text\n\n"
        "Requests are one JSON document per connection; see DESIGN.md\n"
        "\"Simulation service\" for the protocol, overload control "
        "and cache-key anatomy.\n";
}

int
run(int argc, char** argv)
{
    ServeOptions opts;
    ServeConfigRegistry registry(opts);
    std::string faultSpec;

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
        } else if (arg == "--list-keys") {
            for (const std::string& key : registry.keys())
                std::cout << key << " = " << registry.get(key) << "\n";
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--cache-dir") {
            opts.cacheDir = next();
        } else if (arg == "--cache-max-bytes") {
            registry.set("serve.cacheMaxBytes", next());
        } else if (arg == "--cache-max-entries") {
            registry.set("serve.cacheMaxEntries", next());
        } else if (arg == "--threads") {
            registry.set("serve.threads", next());
        } else if (arg == "--queue-depth") {
            registry.set("serve.queueDepth", next());
        } else if (arg == "--io-timeout-ms") {
            registry.set("serve.ioTimeoutMs", next());
        } else if (arg == "--max-request-bytes") {
            registry.set("serve.maxRequestBytes", next());
        } else if (arg == "--set") {
            registry.applyAssignment(next());
        } else if (arg == "--fault-inject") {
            faultSpec = next();
        } else {
            fatal("unknown option: " + arg + " (try --help)");
        }
    }
    if (opts.socketPath.empty())
        fatal("apres_serve: --socket PATH is required (try --help)");

    if (!faultSpec.empty()) {
        FaultInjector::instance().configure(faultSpec);
        std::cerr << "[apres-serve] FAULT INJECTION ARMED: "
                  << faultSpec << "\n";
    }

    ServeDaemon daemon(opts);
    daemon.start();
    g_daemon.store(&daemon);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::cerr << "[apres-serve] listening on " << opts.socketPath
              << (opts.cacheDir.empty()
                      ? std::string(" (in-memory cache)")
                      : " (cache dir " + opts.cacheDir + ")")
              << "\n";
    daemon.wait();
    g_daemon.store(nullptr);
    daemon.stop();

    const ResultCacheStats stats = daemon.cache().stats();
    const ServeLoadStats load = daemon.loadStats();
    std::cerr << "[apres-serve] served " << stats.hits() << " hit(s), "
              << stats.misses << " miss(es), ran "
              << daemon.simulationsRun() << " simulation(s)";
    if (load.shedQueueFull + load.shedShutdown > 0) {
        std::cerr << "; shed " << load.shedQueueFull << " queueFull / "
                  << load.shedShutdown << " shutdown";
    }
    if (stats.evictions > 0)
        std::cerr << "; evicted " << stats.evictions << " entr(ies)";
    std::cerr << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError& e) {
        std::cerr << "apres_serve: " << e.what() << '\n';
        return 1;
    }
}
