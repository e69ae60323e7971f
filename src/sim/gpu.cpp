/**
 * @file
 * Gpu implementation: construction through the policy registry, run
 * loop, and result collection.
 *
 * Collection is policy-agnostic: schedulers and prefetchers report
 * their own statistics through the reportStats() virtual, so this
 * file needs no knowledge of (and no edits for) individual policies.
 */

#include "gpu.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/bitutils.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "sim/auditor.hpp"
#include "sim/config_registry.hpp"
#include "sim/policy_registry.hpp"

namespace apres {

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

std::string
upperCased(const std::string& name)
{
    std::string out = name;
    for (char& c : out) {
        if (c >= 'a' && c <= 'z')
            c = static_cast<char>(c - 'a' + 'A');
    }
    return out;
}

/**
 * Most sets one cache may model: its slot index (4 bytes per set) is
 * built before the first cycle, so this bounds it at 4 MiB. The
 * largest geometry in use, a 1 GB L1 at 8 ways x 128 B, has exactly
 * this many.
 */
constexpr std::uint64_t kMaxCacheSets = std::uint64_t{1} << 20;

/**
 * Reject a cache geometry the Cache model cannot index or cannot
 * afford: the line size and the set count (sizeBytes / (ways *
 * lineSize)) must be powers of two, and the set count at most
 * kMaxCacheSets. @p prefix is the cache's key namespace ("l1" or "l2").
 */
void
checkCacheGeometry(const std::string& prefix, const CacheConfig& c)
{
    if (c.ways == 0)
        throwConfigError(prefix + ".ways must be >= 1");
    if (!isPowerOfTwo(c.lineSize))
        throwConfigError(prefix + ".lineSize=" + std::to_string(c.lineSize) +
                         " is not a power of two");
    const std::uint64_t sets =
        c.sizeBytes / (std::uint64_t{c.lineSize} * c.ways);
    const auto reject = [&](const std::string& why) {
        throwConfigError(prefix + ".sizeBytes=" +
                         std::to_string(c.sizeBytes) + " holds " +
                         std::to_string(sets) + " sets of " + prefix +
                         ".ways=" + std::to_string(c.ways) + " lines of " +
                         prefix + ".lineSize=" + std::to_string(c.lineSize) +
                         " B; " + why);
    };
    if (!isPowerOfTwo(sets))
        reject("the set count must be a power of two");
    if (sets > kMaxCacheSets)
        reject("a cache holds at most 2^20 sets (a 4 MiB slot index)");
}

} // namespace

std::string
GpuConfig::label() const
{
    if (scheduler == "laws" && prefetcher == "sap")
        return "APRES";
    std::string out = upperCased(scheduler);
    if (prefetcher != "none") {
        out += '+';
        out += upperCased(prefetcher);
    }
    return out;
}

Gpu::Gpu(const GpuConfig& config, const Kernel& kernel_ref)
    : cfg(config), kernel(kernel_ref)
{
    assert(cfg.numSms >= 1);
    if (cfg.sm.warpsPerSm < 1)
        throwConfigError("warpsPerSm must be >= 1 (got " +
                         std::to_string(cfg.sm.warpsPerSm) + ")");
    // Warp sets (LAWS/WGT groups, the cache's per-line consumer
    // tracking) are dynamically sized WarpMasks, so warpsPerSm itself
    // is unbounded here. Barrier participant masks, however, are
    // per-block 64-bit lane masks baked into Instruction, so a block
    // wider than 64 warps is unrepresentable (real GPUs cap blocks at
    // 32 warps anyway).
    if (cfg.sm.warpsPerBlock > 64)
        throwConfigError(
            "warpsPerBlock=" + std::to_string(cfg.sm.warpsPerBlock) +
            " exceeds the 64-lane barrier participant mask width; "
            "configure at most 64 warps per block");
    checkCacheGeometry("l1", cfg.sm.l1);
    checkCacheGeometry("l2", cfg.mem.l2Partition);
    if (cfg.mem.dram.rowBufferModel && cfg.mem.dram.rowBytes < 128) {
        throwConfigError("dram.rowBytes=" +
                         std::to_string(cfg.mem.dram.rowBytes) +
                         " is below one 128 B line; the row-buffer model "
                         "(dram.rowBufferModel) needs at least 128");
    }
    memsys = std::make_unique<MemorySystem>(cfg.mem);
    for (int s = 0; s < cfg.numSms; ++s) {
        schedulers.push_back(makeScheduler(cfg));
        prefetchers.push_back(makePrefetcher(cfg, *schedulers.back()));
        sms.push_back(std::make_unique<Sm>(s, cfg.sm, kernel,
                                           *schedulers.back(),
                                           prefetchers.back().get(),
                                           *memsys));
        sms.back()->setFastForward(cfg.fastForward);
    }
    if (cfg.audit) {
        auditor_ = std::make_unique<Auditor>(cfg, kernel, sms, schedulers,
                                             prefetchers, *memsys);
    }
    // Observation sinks (both off by default). Installation is the
    // only state change: every emit site is null-guarded, and emitting
    // never feeds back into simulation state, so stats stay bitwise
    // identical with observation on or off.
    if (cfg.trace) {
        tracer_ = std::make_unique<Tracer>(
            cfg.numSms, static_cast<std::size_t>(cfg.traceBufferEvents));
    }
    if (cfg.metrics) {
        // One registry per SM, so shard workers never contend.
        for (std::size_t i = 0; i < sms.size(); ++i)
            smMetrics_.push_back(std::make_unique<MetricsRegistry>());
    }
    if (tracer_ || cfg.metrics) {
        memsys->setTracer(tracer_.get());
        for (std::size_t i = 0; i < sms.size(); ++i) {
            MetricsRegistry* m = cfg.metrics ? smMetrics_[i].get() : nullptr;
            sms[i]->setObservability(tracer_.get(), m);
            schedulers[i]->setObservability(tracer_.get(), m);
            if (prefetchers[i])
                prefetchers[i]->setObservability(tracer_.get(), m);
        }
    }
}

Gpu::~Gpu() = default;

bool
Gpu::done() const
{
    // Sm::done() is monotone (a drained SM never wakes up again), so a
    // prefix pointer over the SM vector makes the per-epoch check
    // amortized O(1) instead of an SMs x warps scan: only the first
    // still-active SM is ever queried, and each SM is passed at most
    // once over the whole run.
    while (firstActiveSm_ < sms.size() && sms[firstActiveSm_]->done())
        ++firstActiveSm_;
    return firstActiveSm_ == sms.size() && memsys->idle();
}

void
Gpu::step(Cycle cycles)
{
    advanceTo(cycle + std::min<Cycle>(cycles, cfg.maxCycles - cycle));
}

int
Gpu::resolveShardCount() const
{
    int shards = cfg.shards;
    if (shards == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        shards = hw == 0 ? 1 : static_cast<int>(hw);
    }
    shards = std::min(shards, cfg.numSms);
    return std::max(shards, 1);
}

RunResult
Gpu::run()
{
    advanceTo(cfg.maxCycles);
    return finish();
}

RunResult
Gpu::finish()
{
    if (auditor_)
        auditor_->checkInvariants(cycle);
    RunResult result = collect();
    result.completed = done();
    if (!result.completed) {
        logWarn("simulation hit maxCycles=", cfg.maxCycles,
                " before the kernel drained");
    }
    writeTraceFile();
    return result;
}

namespace {

/**
 * Generation-counted spin barrier for the epoch engine. Epochs last
 * at most minResponseLatency() simulated cycles (200 by default) and
 * usually far fewer, so parties meet every few microseconds of wall
 * time — spinning beats a mutex+condvar sleep/wake round trip at that
 * cadence by an order of magnitude.
 *
 * The wait loop spins with a CPU relax hint first (a pause keeps the
 * waiting hyperthread from starving its sibling and cuts the
 * speculation flush when the generation flips), and falls back to
 * yield() once the wait has clearly outlived an epoch's useful spin
 * window — e.g. when shards are imbalanced or the host is
 * oversubscribed.
 */

/** One idle iteration of a spin-wait loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties)
        : parties_(parties),
          // Pause-spinning is only safe when every party can hold a
          // hardware thread; on an oversubscribed host the spinner
          // would burn the very core the straggler needs, so concede
          // it immediately.
          spinLimit_(std::thread::hardware_concurrency() >=
                             static_cast<unsigned>(parties)
                         ? kSpinsBeforeYield
                         : 0)
    {
    }

    void
    arriveAndWait()
    {
        const std::uint64_t gen = generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            arrived_.store(0, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        int spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            if (++spins <= spinLimit_)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }

  private:
    /** ~1-2 us of pause-spinning before conceding the core. */
    static constexpr int kSpinsBeforeYield = 4096;

    const int parties_;
    const int spinLimit_;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> generation_{0};
};

/** One shard's slice of the machine plus its per-epoch report. */
struct ShardState
{
    std::vector<Sm*> sms;        ///< owned SMs (contiguous slice)
    std::size_t donePrefix = 0;  ///< owned SMs [0, donePrefix) drained
    Cycle brokeAt = 0;           ///< cycle the epoch loop stopped at
    Cycle lastIssue = 0;         ///< latest owned-SM issue this epoch
    bool issuedAny = false;      ///< any owned SM issued this epoch
    std::exception_ptr error;    ///< captured epoch failure, if any
};

} // namespace

void
Gpu::advanceTo(Cycle cap)
{
    // Contiguous SM partition: shard s owns SMs [s*n/k, (s+1)*n/k).
    // The partition never affects results — SMs interact only through
    // the memory system — it only balances work.
    const int shard_count = resolveShardCount();
    const bool staged = shard_count > 1;
    std::vector<ShardState> shards(static_cast<std::size_t>(shard_count));
    for (int i = 0; i < cfg.numSms; ++i) {
        shards[static_cast<std::size_t>(i * shard_count / cfg.numSms)]
            .sms.push_back(sms[static_cast<std::size_t>(i)].get());
    }

    // One shard's epoch: tick its SMs over [c, end) exactly as a
    // cycle-by-cycle loop would, jumping provably issue-free stretches
    // under fast-forward. No response is delivered inside an epoch, so
    // SMs share no mutable state within it, and each shard evolves
    // bit-identically whatever the other shards' pacing. Staged, a
    // drained shard stops early; the caller credits the rest of the
    // epoch. Unstaged, submissions reach the event queue at once and
    // can bring the epoch end closer, and the one shard stops early
    // only when the whole machine is done.
    const auto runEpoch = [this, staged](ShardState& shard, Cycle c,
                                         Cycle end) {
        shard.issuedAny = false;
        try {
            do {
                bool issued = false;
                for (Sm* sm : shard.sms)
                    issued = sm->tick(c) || issued;
                if (issued) {
                    shard.issuedAny = true;
                    shard.lastIssue = c;
                }
                ++c;
                while (shard.donePrefix < shard.sms.size() &&
                       shard.sms[shard.donePrefix]->done())
                    ++shard.donePrefix;
                if (shard.donePrefix == shard.sms.size() &&
                    (staged || memsys->idle()))
                    break;
                if (!staged)
                    end = std::min(end, memsys->nextEventCycle());
                if (!cfg.fastForward || issued || c >= end)
                    continue;
                Cycle wake = end;
                for (Sm* sm : shard.sms)
                    wake = std::min(wake, sm->nextWakeup(c));
                if (wake <= c)
                    continue;
                for (Sm* sm : shard.sms)
                    sm->skipIdle(wake - c);
                if (auditor_)
                    auditor_->checkSkipWindow(shard.sms, c, wake);
                if (tracer_ && !staged) {
                    // Engine-lane span showing where wall time was
                    // jumped; ts = span start, dur = skipped cycles.
                    tracer_->record(tracer_->engineLane(),
                                    TraceEventType::kFfIdleSpan, c,
                                    kInvalidPc, kInvalidWarp, wake - c);
                }
                c = wake;
            } while (c < end);
        } catch (...) {
            shard.error = std::current_exception();
        }
        shard.brokeAt = c;
    };

    // Shards 1..k-1 run on worker threads that meet the caller at two
    // barrier crossings per epoch: A publishes the window (the
    // barrier's generation counter orders it for the workers), B ends
    // the epoch. One shard runs alone on the calling thread.
    Cycle epochStart = 0;
    Cycle epochEnd = 0;
    std::atomic<bool> stop{false};
    std::unique_ptr<SpinBarrier> barrier;
    if (staged)
        barrier = std::make_unique<SpinBarrier>(shard_count);
    std::vector<std::thread> workers;
    for (int s = 1; s < shard_count; ++s) {
        workers.emplace_back([&, s] {
            while (true) {
                barrier->arriveAndWait(); // A: epoch published (or stop)
                if (stop.load(std::memory_order_acquire))
                    return;
                runEpoch(shards[static_cast<std::size_t>(s)], epochStart,
                         epochEnd);
                barrier->arriveAndWait(); // B: epoch complete
            }
        });
    }
    // Release the workers (waiting at A) and join them, on every exit
    // path.
    const auto shutdown = [&] {
        if (workers.empty())
            return;
        stop.store(true, std::memory_order_release);
        barrier->arriveAndWait();
        for (std::thread& t : workers)
            t.join();
        workers.clear();
    };

    const Cycle minRespLat =
        std::max<Cycle>(memsys->minResponseLatency(), 1);
    try {
        while (cycle < cap && !done()) {
            // Deliveries happen only here, at an epoch start.
            memsys->tick(cycle);
            const std::uint64_t responses = memsys->responsesDelivered();
            if (responses != lastResponses_) {
                lastResponses_ = responses;
                lastProgress_ = cycle;
            }

            // The epoch ends at the next delivery, the next deadline or
            // the cap. Staged, it must also end before any request
            // submitted inside it could be answered: nothing is
            // submitted before `cycle`, and no answer comes sooner than
            // minResponseLatency() after its submission.
            Cycle end =
                std::min({cap, memsys->nextEventCycle(), nextDeadline()});
            if (staged)
                end = std::min(end, cycle + minRespLat);
            end = std::max(end, cycle + 1);

            if (staged) {
                epochStart = cycle;
                epochEnd = end;
                memsys->setStaging(true);
                barrier->arriveAndWait(); // A: workers start the epoch
                runEpoch(shards[0], cycle, end);
                barrier->arriveAndWait(); // B: every shard finished
                memsys->setStaging(false);
            } else {
                runEpoch(shards[0], cycle, end);
            }
            // Deterministic failure propagation: the lowest shard's
            // error wins regardless of wall-clock interleaving.
            for (const ShardState& shard : shards) {
                if (shard.error)
                    std::rethrow_exception(shard.error);
            }
            // Replay the staged traffic in canonical order: the
            // L2/DRAM transitions of unstaged submission, at the
            // original submission cycles.
            if (staged)
                memsys->drainStaged();

            // The epoch ends where its shards stopped: at `end` while
            // the machine runs on, else at the latest drain — the exit
            // cycle of a cycle-by-cycle loop. Shards that stopped
            // earlier are credited the gap as idle cycles.
            Cycle reached = staged && !done() ? end : 0;
            for (const ShardState& shard : shards) {
                reached = std::max(reached, shard.brokeAt);
                if (shard.issuedAny)
                    lastProgress_ = std::max(lastProgress_, shard.lastIssue);
            }
            for (const ShardState& shard : shards) {
                if (shard.brokeAt == reached)
                    continue;
                for (Sm* sm : shard.sms)
                    sm->skipIdle(reached - shard.brokeAt);
            }
            cycle = reached;
            fireDeadlines();
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
}

Cycle
Gpu::nextDeadline() const
{
    Cycle due = kNever;
    if (cfg.watchdogCycles != 0)
        due = lastProgress_ + cfg.watchdogCycles + 1;
    if (auditor_)
        due = std::min(due, nextAudit_);
    if (interruptCheck_)
        due = std::min(due, nextInterrupt_);
    return due;
}

void
Gpu::fireDeadlines()
{
    if (auditor_ && cycle >= nextAudit_) {
        auditor_->checkInvariants(cycle);
        nextAudit_ = cycle + cfg.auditInterval;
    }
    if (interruptCheck_ && cycle >= nextInterrupt_) {
        interruptCheck_();
        nextInterrupt_ = cycle + kInterruptCheckInterval;
    }
    // Every cycle strictly between the last progress and now passed
    // without any: fire once there are watchdogCycles of them.
    if (cfg.watchdogCycles != 0 &&
        cycle - lastProgress_ > cfg.watchdogCycles)
        reportDeadlock();
}

const MetricsRegistry*
Gpu::metrics() const
{
    if (smMetrics_.empty())
        return nullptr;
    mergedMetrics_ = std::make_unique<MetricsRegistry>();
    for (const auto& m : smMetrics_)
        mergedMetrics_->merge(*m);
    return mergedMetrics_.get();
}

void
Gpu::writeTrace(std::ostream& os) const
{
    if (tracer_)
        tracer_->writeChromeTrace(os);
}

void
Gpu::writeTraceFile() const
{
    if (!tracer_ || cfg.traceFile.empty())
        return;
    std::ofstream os(cfg.traceFile);
    if (!os) {
        throwConfigError("cannot open trace file \"" + cfg.traceFile +
                         "\" for writing");
    }
    tracer_->writeChromeTrace(os);
}

void
Gpu::reportDeadlock() const
{
    std::ostringstream out;
    out << "no forward progress for " << cfg.watchdogCycles
        << " cycles (zero instructions issued, zero memory responses "
           "delivered since cycle "
        << lastProgress_ << "; now at cycle " << cycle << ")\n"
        << stallReport();
    throwDeadlockError(out.str());
}

void
Gpu::auditNow()
{
    if (auditor_)
        auditor_->checkInvariants(cycle);
}

std::uint64_t
Gpu::auditPasses() const
{
    return auditor_ ? auditor_->passes() : 0;
}

std::string
Gpu::stallReport() const
{
    std::string out;
    for (const auto& sm : sms)
        out += sm->stallReport(cycle);
    return out;
}

RunResult
Gpu::collect() const
{
    RunResult r;
    r.cycles = cycle;

    double load_sum = 0.0;
    std::uint64_t load_n = 0;
    double miss_sum = 0.0;
    std::uint64_t miss_n = 0;
    for (std::size_t i = 0; i < sms.size(); ++i) {
        const Sm& sm = *sms[i];
        r.instructions += sm.stats().issuedInstructions;
        r.l1 += sm.l1().stats();
        r.prefetchesRequested += sm.stats().prefetchesRequested;
        r.prefetchesIssued += sm.stats().prefetchesIssued;
        r.idleCycles += sm.stats().idleCycles;
        const LsuStats& lsu = sm.lsuStats();
        r.mshrReplays += lsu.mshrReplays;
        load_sum += lsu.loadLatency.sum();
        load_n += lsu.loadLatency.count();
        miss_sum += lsu.missLatency.sum();
        miss_n += lsu.missLatency.count();

        const std::string prefix = "sm" + std::to_string(i) + ".";
        const CacheStats& l1 = sm.l1().stats();
        r.perSm.set(prefix + "instructions",
                    static_cast<double>(sm.stats().issuedInstructions));
        r.perSm.set(prefix + "idleCycles",
                    static_cast<double>(sm.stats().idleCycles));
        r.perSm.set(prefix + "l1.accesses",
                    static_cast<double>(l1.demandAccesses));
        r.perSm.set(prefix + "l1.misses",
                    static_cast<double>(l1.demandMisses));
        r.perSm.set(prefix + "l1.missRate", l1.missRate());
        r.perSm.set(prefix + "prefetchesIssued",
                    static_cast<double>(sm.stats().prefetchesIssued));
    }

    // Policies report their own statistics; per-SM instances
    // accumulate into shared keys, summing GPU-wide.
    for (std::size_t i = 0; i < schedulers.size(); ++i) {
        schedulers[i]->reportStats(r.policy);
        if (prefetchers[i])
            prefetchers[i]->reportStats(r.policy);
    }
    // Opt-in metrics ride along under their own "metrics." namespace:
    // the keys exist only when metrics are on, and the base stat keys
    // are untouched either way. Under the parallel engine this merges
    // the per-SM registries first.
    if (const MetricsRegistry* m = metrics())
        m->report(r.policy);

    r.ipc = r.cycles ? static_cast<double>(r.instructions) /
                           static_cast<double>(r.cycles)
                     : 0.0;
    r.l2 = memsys->l2StatsTotal();
    r.traffic = memsys->traffic();
    r.avgLoadLatency = load_n ? load_sum / static_cast<double>(load_n) : 0.0;
    r.avgMissLatency = miss_n ? miss_sum / static_cast<double>(miss_n) : 0.0;

    for (int p = 0; p < cfg.mem.numPartitions; ++p) {
        const DramStats& dram = memsys->dram(p).stats();
        r.dramRequests += dram.requests;
        r.dramRowHits += dram.rowHits;
        r.dramRowMisses += dram.rowMisses;
    }

    // Echo the semantic configuration so the result is
    // self-describing and the same for every run that shares its cache
    // key. The registry needs a mutable config; snapshot a copy.
    GpuConfig echo = cfg;
    r.config = ConfigRegistry(echo).semanticSnapshot();

    EnergyInputs ei;
    ei.instructions = r.instructions;
    ei.l1Accesses = r.l1.demandAccesses + r.l1.storeAccesses +
        r.l1.prefetchesAccepted + r.l1.fills;
    ei.l2Accesses = r.l2.demandAccesses + r.l2.storeAccesses + r.l2.fills;
    ei.dramAccesses = r.dramRequests;
    // Structure events: one table access per load observed by a
    // prefetcher plus one per LAWS grouping operation; approximated by
    // loads issued when any of the structures is active.
    std::uint64_t loads = 0;
    for (const auto& sm : sms)
        loads += sm->stats().issuedLoads;
    const bool has_structures = cfg.prefetcher != "none" ||
        cfg.scheduler == "laws" || cfg.scheduler == "ccws";
    ei.structureAccesses =
        has_structures ? loads + r.prefetchesRequested : 0;
    ei.smCycles = static_cast<std::uint64_t>(cfg.numSms) * r.cycles;
    r.energy = computeEnergy(ei, cfg.energy);
    return r;
}

double
RunResult::l1HitRate() const
{
    return l1.demandAccesses
        ? static_cast<double>(l1.demandHits) /
              static_cast<double>(l1.demandAccesses)
        : 0.0;
}

StatSet
RunResult::toStatSet() const
{
    StatSet s;
    s.set("sim.cycles", static_cast<double>(cycles));
    s.set("sim.instructions", static_cast<double>(instructions));
    s.set("sim.ipc", ipc);
    s.set("sim.completed", completed ? 1.0 : 0.0);

    s.set("l1.accesses", static_cast<double>(l1.demandAccesses));
    s.set("l1.hits", static_cast<double>(l1.demandHits));
    s.set("l1.misses", static_cast<double>(l1.demandMisses));
    s.set("l1.missRate", l1.missRate());
    s.set("l1.hitAfterHit", static_cast<double>(l1.hitAfterHit));
    s.set("l1.hitAfterMiss", static_cast<double>(l1.hitAfterMiss));
    s.set("l1.coldMisses", static_cast<double>(l1.coldMisses));
    s.set("l1.capacityConflictMisses",
          static_cast<double>(l1.capacityConflictMisses));
    s.set("l1.mshrMerges", static_cast<double>(l1.mshrMerges));
    s.set("l1.mshrFullEvents", static_cast<double>(l1.mshrFullEvents));
    s.set("l1.storeAccesses", static_cast<double>(l1.storeAccesses));
    s.set("l1.storeHits", static_cast<double>(l1.storeHits));
    s.set("l1.fills", static_cast<double>(l1.fills));
    s.set("l1.evictions", static_cast<double>(l1.evictions));
    s.set("l1.earlyEvictions", static_cast<double>(l1.earlyEvictions));
    s.set("l1.earlyEvictionRatio", l1.earlyEvictionRatio());
    s.set("l1.usefulPrefetches", static_cast<double>(l1.usefulPrefetches));
    s.set("l1.uselessPrefetchEvictions",
          static_cast<double>(l1.uselessPrefetchEvictions));
    s.set("l1.prefetchesAccepted",
          static_cast<double>(l1.prefetchesAccepted));
    s.set("l1.prefetchDropHit", static_cast<double>(l1.prefetchDropHit));
    s.set("l1.prefetchDropPending",
          static_cast<double>(l1.prefetchDropPending));
    s.set("l1.prefetchDropMshrFull",
          static_cast<double>(l1.prefetchDropMshrFull));
    s.set("l1.prefetchFills", static_cast<double>(l1.prefetchFills));
    s.set("l1.demandMergedIntoPrefetch",
          static_cast<double>(l1.demandMergedIntoPrefetch));

    s.set("l2.accesses", static_cast<double>(l2.demandAccesses));
    s.set("l2.hits", static_cast<double>(l2.demandHits));
    s.set("l2.misses", static_cast<double>(l2.demandMisses));
    s.set("l2.missRate", l2.missRate());

    s.set("mem.avgLoadLatency", avgLoadLatency);
    s.set("mem.avgMissLatency", avgMissLatency);
    s.set("mem.interconnectBytes",
          static_cast<double>(traffic.interconnectBytes()));
    s.set("mem.dramFillBytes",
          static_cast<double>(traffic.fillBytesFromDram));

    s.set("dram.requests", static_cast<double>(dramRequests));
    s.set("dram.rowHits", static_cast<double>(dramRowHits));
    s.set("dram.rowMisses", static_cast<double>(dramRowMisses));

    s.set("prefetch.requested", static_cast<double>(prefetchesRequested));
    s.set("prefetch.issued", static_cast<double>(prefetchesIssued));

    s.set("sm.idleCycles", static_cast<double>(idleCycles));
    s.set("lsu.mshrReplays", static_cast<double>(mshrReplays));

    s.set("energy.total", energy.total());
    s.set("energy.dram", energy.dram);
    s.set("energy.structures", energy.structures);

    s.mergeSum(policy);
    s.mergeSum(perSm);
    return s;
}

RunResult
simulate(const GpuConfig& config, const Kernel& kernel)
{
    Gpu gpu(config, kernel);
    return gpu.run();
}

} // namespace apres
