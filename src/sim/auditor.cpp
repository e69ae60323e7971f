/**
 * @file
 * Auditor implementation.
 */

#include "auditor.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "apres/laws.hpp"
#include "apres/sap.hpp"
#include "common/sim_error.hpp"
#include "sched/ccws.hpp"

namespace apres {

namespace {

/**
 * Re-derive a scheduler's ranked warp order: in-range IDs, each queued
 * once, every queued warp's rank equal to its position and every other
 * warp unranked.
 */
void
auditWarpOrder(std::ostringstream& out, std::size_t s, const char* what,
               const WarpOrder& order, int num_warps)
{
    std::vector<bool> queued(static_cast<std::size_t>(num_warps), false);
    const std::vector<WarpId>& warps = order.warps();
    for (std::size_t p = 0; p < warps.size(); ++p) {
        const WarpId w = warps[p];
        if (w < 0 || w >= num_warps) {
            out << "sm" << s << " " << what << " holds warp " << w
                << " outside [0, " << num_warps << ")\n";
        } else if (queued[static_cast<std::size_t>(w)]) {
            out << "sm" << s << " " << what << " holds warp " << w
                << " twice\n";
        } else {
            queued[static_cast<std::size_t>(w)] = true;
            if (order.rank(w) != static_cast<int>(p)) {
                out << "sm" << s << " " << what << " ranks warp " << w
                    << " at " << order.rank(w) << ", queued at " << p
                    << "\n";
            }
        }
    }
    for (int w = 0; w < num_warps; ++w) {
        if (!queued[static_cast<std::size_t>(w)] &&
            order.rank(w) != WarpOrder::kNotQueued) {
            out << "sm" << s << " " << what << " ranks warp " << w
                << " at " << order.rank(w) << " but does not queue it\n";
        }
    }
}

} // namespace

Auditor::Auditor(const GpuConfig& config, const Kernel& kernel_ref,
                 const std::vector<std::unique_ptr<Sm>>& sms_ref,
                 const std::vector<std::unique_ptr<Scheduler>>& schedulers_ref,
                 const std::vector<std::unique_ptr<Prefetcher>>& prefetchers_ref,
                 const MemorySystem& memsys_ref)
    : cfg(config), kernel(kernel_ref), sms(sms_ref),
      schedulers(schedulers_ref), prefetchers(prefetchers_ref),
      memsys(memsys_ref)
{
}

std::string
Auditor::checkPolicyStructures() const
{
    std::ostringstream out;

    // Static load PCs: the only values PC-keyed hardware tables (LLT,
    // SAP PT) may legitimately hold.
    std::set<Pc> load_pcs;
    for (const Instruction& instr : kernel.code()) {
        if (instr.op == Opcode::kLoad)
            load_pcs.insert(instr.pc);
    }

    for (std::size_t s = 0; s < schedulers.size(); ++s) {
        const Sm& sm = *sms[s];
        const int num_warps = cfg.sm.warpsPerSm;

        const auto* ccws =
            dynamic_cast<const CcwsScheduler*>(schedulers[s].get());
        if (ccws != nullptr) {
            // Age order: exactly the unfinished warps, oldest ageStamp
            // first (ties by warp ID, as attach() sorts them).
            const WarpOrder& ages = ccws->ageOrderForAudit();
            auditWarpOrder(out, s, "CCWS age order", ages, num_warps);
            std::vector<WarpId> expected;
            for (int w = 0; w < num_warps; ++w) {
                if (!sm.warpState(w).finished)
                    expected.push_back(w);
            }
            std::stable_sort(expected.begin(), expected.end(),
                             [&sm](WarpId a, WarpId b) {
                                 return sm.warpState(a).ageStamp <
                                     sm.warpState(b).ageStamp;
                             });
            if (ages.warps() != expected) {
                out << "sm" << s << " CCWS age order [";
                for (const WarpId w : ages.warps())
                    out << " " << w;
                out << " ] is not the unfinished warps by ageStamp [";
                for (const WarpId w : expected)
                    out << " " << w;
                out << " ]\n";
            }
        }

        const auto* laws =
            dynamic_cast<const LawsScheduler*>(schedulers[s].get());
        if (laws != nullptr) {
            // Scheduling queue: each unfinished warp exactly once.
            const WarpOrder& queue = laws->queueForAudit();
            auditWarpOrder(out, s, "LAWS queue", queue, num_warps);
            for (int w = 0; w < num_warps; ++w) {
                const bool queued = queue.rank(w) != WarpOrder::kNotQueued;
                const bool finished = sm.warpState(w).finished;
                if (queued == finished) {
                    out << "sm" << s << " LAWS queue "
                        << (finished ? "holds finished" : "misses unfinished")
                        << " warp " << w << "\n";
                }
            }

            // WGT: at most kEntries (3) entries of warp bits inside the
            // configured range (Table II: 48 bits x 3 entries).
            for (int e = 0; e < WarpGroupTable::kEntries; ++e) {
                const WarpGroupTable::Entry& entry =
                    laws->wgtForAudit().entry(e);
                if (!entry.valid)
                    continue;
                if (entry.owner < 0 || entry.owner >= cfg.sm.warpsPerSm) {
                    out << "sm" << s << " WGT entry " << e << " owner "
                        << entry.owner << " outside [0, "
                        << cfg.sm.warpsPerSm << ")\n";
                }
                if (entry.members.anyAtOrAbove(cfg.sm.warpsPerSm)) {
                    out << "sm" << s << " WGT entry " << e
                        << " member mask 0x" << entry.members.toHex()
                        << " sets bits outside the " << cfg.sm.warpsPerSm
                        << " configured warps\n";
                }
                if (load_pcs.count(entry.pc) == 0) {
                    out << "sm" << s << " WGT entry " << e << " pc 0x"
                        << std::hex << entry.pc << std::dec
                        << " is not a static load PC\n";
                }
            }

            // LLT: one entry per warp, each invalid or a real load PC.
            const LastLoadTable& llt = laws->lltForAudit();
            if (llt.size() != cfg.sm.warpsPerSm) {
                out << "sm" << s << " LLT has " << llt.size()
                    << " entries for " << cfg.sm.warpsPerSm << " warps\n";
            }
            for (int w = 0; w < llt.size(); ++w) {
                const Pc pc = llt.get(w);
                if (pc != kInvalidPc && load_pcs.count(pc) == 0) {
                    out << "sm" << s << " LLT warp " << w << " llpc 0x"
                        << std::hex << pc << std::dec
                        << " is not a static load PC\n";
                }
            }
        }

        if (s < prefetchers.size()) {
            const auto* sap =
                dynamic_cast<const SapPrefetcher*>(prefetchers[s].get());
            if (sap != nullptr) {
                // PT: physical slots and valid entries within the
                // configured sizing (Table II/IV: 10 entries).
                const int cap = sap->config().ptEntries;
                if (sap->ptSlotCount() > cap ||
                    sap->ptValidCount() > cap) {
                    out << "sm" << s << " SAP PT holds "
                        << sap->ptValidCount() << " valid entries in "
                        << sap->ptSlotCount() << " slots; configured cap "
                        << cap << "\n";
                }
                for (const Pc pc : sap->ptResidentPcs()) {
                    if (load_pcs.count(pc) == 0) {
                        out << "sm" << s << " SAP PT entry pc 0x"
                            << std::hex << pc << std::dec
                            << " is not a static load PC\n";
                    }
                }
                // WQ/DRQ occupancy peaks against Table IV capacities.
                const SapStats& st = sap->stats();
                if (st.wqPeak >
                    static_cast<std::uint64_t>(sap->config().wqEntries)) {
                    out << "sm" << s << " SAP Warp Queue peaked at "
                        << st.wqPeak << " entries; configured cap "
                        << sap->config().wqEntries << "\n";
                }
                if (st.drqPeak >
                    static_cast<std::uint64_t>(sap->config().drqEntries)) {
                    out << "sm" << s << " SAP DRQ peaked at " << st.drqPeak
                        << " entries; configured cap "
                        << sap->config().drqEntries << "\n";
                }
            }
        }
    }
    return out.str();
}

void
Auditor::checkInvariants(Cycle now) const
{
    std::string violations;
    for (const auto& sm : sms)
        violations += sm->auditInvariants(now);
    // The L2 partitions are the same Cache model as the L1s.
    for (int p = 0; p < cfg.mem.numPartitions; ++p)
        violations += memsys.l2(p).auditTags();
    violations += checkPolicyStructures();
    if (violations.empty()) {
        ++passes_;
        return;
    }
    std::ostringstream dump;
    dump << "invariant audit failed at cycle " << now << ":\n"
         << violations << "--- state dump ---\n";
    for (const auto& sm : sms)
        dump << sm->stallReport(now);
    throwInvariantViolation(dump.str());
}

void
Auditor::checkSkipWindow(const std::vector<Sm*>& skipped, Cycle begin,
                         Cycle end) const
{
    if (end <= begin)
        return;
    std::string violations;
    for (const Sm* sm : skipped)
        violations += sm->auditSkippedWindow(begin, end);
    // The memory system must not have had an event maturing inside the
    // window either, or responses (and the issues they enable) were
    // lost to the jump.
    if (memsys.nextEventCycle() < end) {
        std::ostringstream out;
        out << "memory system has an event at cycle "
            << memsys.nextEventCycle() << " inside the skipped window ["
            << begin << ", " << end << ")\n";
        violations += out.str();
    }
    if (violations.empty()) {
        ++passes_;
        return;
    }
    std::ostringstream dump;
    dump << "fast-forward skip audit failed for window [" << begin << ", "
         << end << "):\n"
         << violations << "--- state dump ---\n";
    for (const Sm* sm : skipped)
        dump << sm->stallReport(begin);
    throwInvariantViolation(dump.str());
}

} // namespace apres
