/**
 * @file
 * Deterministic fault injection for robustness tests and the chaos
 * harness (scripts/chaos_serve.py).
 *
 * Library code marks *sites* where the environment can fail — a cache
 * write hitting ENOSPC, accept() running out of file descriptors, a
 * job crashing mid-run — by calling faultInjectAt("site.name") right
 * before the real operation. The registry decides, purely from a
 * per-site call counter and the configured plan, whether that
 * occurrence fails and how:
 *
 *   - errno faults: the call returns a non-zero errno and the site
 *     behaves exactly as if the syscall had failed with it (the real
 *     operation must not be attempted);
 *   - throw faults: the call throws std::runtime_error, modelling a
 *     crash inside the operation;
 *   - sleep faults: the call blocks for a fixed duration and returns
 *     0, modelling a slow operation (the real operation proceeds).
 *
 * Plans are written as a spec string, set by apres_serve's
 * --fault-inject flag or programmatically by tests:
 *
 *   site=action[@occurrences][;site=action[@occurrences]...]
 *
 *   action:       enospc | eio | emfile | enfile | eagain | enoent |
 *                 epipe | econnreset | enomem | throw | sleep:<ms>
 *   occurrences:  N      fire on the Nth call only (1-based)
 *                 N-M    fire on calls N through M
 *                 N+     fire on every call from the Nth onward
 *                 (omitted: fire on every call)
 *
 *   e.g.  "cache.write=enospc@3+;socket.accept=emfile@1-3"
 *
 * Determinism: firing depends only on the per-site call count, so a
 * test that performs the same sequence of operations sees the same
 * failures every run. Observation purity: when no plan is configured
 * the whole mechanism is one relaxed atomic load per site — it
 * injects nothing, counts nothing and allocates nothing, which is
 * what lets the seam live on hot-ish paths without a build flag.
 *
 * Canonical sites (grep for faultInjectAt to enumerate):
 *   cache.read, cache.write, cache.fsync, cache.rename,
 *   socket.accept, job.execute
 */

#ifndef APRES_COMMON_FAULT_INJECT_HPP
#define APRES_COMMON_FAULT_INJECT_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace apres {

/** What happens when a site's occurrence window matches. */
struct FaultAction
{
    enum class Kind { kErrno, kThrow, kSleep };
    Kind kind = Kind::kErrno;
    int err = 0;                ///< kErrno: the errno to simulate
    std::uint32_t sleepMs = 0;  ///< kSleep: how long to block
};

/**
 * Process-global fault plan. Configure/reset from one thread (test
 * setup, daemon startup); faultInjectAt is safe from any thread.
 */
class FaultInjector
{
  public:
    static FaultInjector& instance();

    /**
     * Replace the current plan with @p spec (see the grammar above).
     * An empty spec disables injection. Throws SimError(kConfig) on a
     * malformed spec — the daemon must refuse a typo'd chaos plan
     * instead of silently running faultless.
     */
    void configure(const std::string& spec);

    /** Disable injection and clear all plans and counters. */
    void reset();

    /** True when any plan is configured. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Consult the plan at @p site. Returns 0 when nothing fires;
     * returns the errno for errno faults; sleeps then returns 0 for
     * sleep faults; throws std::runtime_error for throw faults.
     * Prefer the faultInjectAt() free function at call sites.
     */
    int at(const char* site);

    /** Calls observed at @p site while a plan was configured. */
    std::uint64_t calls(const std::string& site) const;

    /** Faults actually fired at @p site. */
    std::uint64_t fired(const std::string& site) const;

  private:
    FaultInjector() = default;

    struct Rule
    {
        FaultAction action;
        std::uint64_t first = 1; ///< 1-based occurrence window
        std::uint64_t last = UINT64_MAX;
    };

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::map<std::string, std::vector<Rule>> rules_;
    std::map<std::string, std::uint64_t> calls_;
    std::map<std::string, std::uint64_t> fired_;
};

/**
 * The one call a site makes. Returns 0 (proceed normally) or an errno
 * the site must simulate; may sleep or throw per the plan. When no
 * plan is configured this is a single relaxed atomic load.
 */
int faultInjectAt(const char* site);

} // namespace apres

#endif // APRES_COMMON_FAULT_INJECT_HPP
