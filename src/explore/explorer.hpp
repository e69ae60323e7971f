/**
 * @file
 * The coverage-guided exploration loop.
 *
 * Each round the explorer either draws a fresh random signature or
 * mutates a corpus parent (chosen by rarity-weighted tournament: a
 * kernel holding bins few others hold is the most promising thing to
 * perturb), builds the kernel, and runs it under a small set of probe
 * machine configurations, one SweepRunner batch per candidate (and one
 * for the whole corpus a campaign loads). The bins the runs light up
 * (coverage.hpp) are folded into the campaign coverage map; a
 * candidate that lights at least one previously-dark bin is admitted
 * to the corpus. After the budget drains, greedy backward
 * minimization drops admitted kernels whose bins are all covered by
 * the rest, and the survivors are written to the corpus
 * directory as self-describing kernel-text files (leading `# sig:`
 * comment), ready to be checked in as regression workloads.
 *
 * Determinism contract: given the same options (seed, budget, probes,
 * corpus directory contents), a campaign reproduces the same corpus,
 * the same coverage map and a bitwise-identical report. All
 * randomness flows from one apres::Rng stream, candidates run
 * serially in round order (a candidate's probes run in parallel, but
 * their results return in submission order), a simulation is a pure
 * function of its config and kernel (so a kernel's coverage is a
 * function of the kernel and probe alone), and the report contains no
 * wall-clock times.
 */

#ifndef APRES_EXPLORE_EXPLORER_HPP
#define APRES_EXPLORE_EXPLORER_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "explore/coverage.hpp"
#include "explore/signature.hpp"
#include "sim/runner.hpp"

namespace apres {

/** One machine shape candidates are probed under. */
struct ProbeConfig
{
    std::string label; ///< coverage-bin prefix ("apres", "apres-tiny")

    /** Dotted overrides applied over GpuConfig defaults. */
    std::vector<std::pair<std::string, std::string>> overrides;
};

/** Campaign options. */
struct ExploreOptions
{
    std::uint64_t seed = 1;  ///< Rng stream; the determinism handle
    int budget = 50;         ///< candidate kernels to evaluate

    /**
     * Corpus directory: existing *.kt files seed the campaign (their
     * bins pre-populate the map, parseable `# sig:` headers make them
     * mutation parents), and newly admitted survivors are written
     * here. Empty = in-memory only.
     */
    std::string corpusDir;

    /** Chance of a fresh random draw instead of a mutation. */
    double freshBias = 0.25;

    /** Extra overrides applied to every probe (machine shaping). */
    std::vector<std::pair<std::string, std::string>> overrides;

    /** Probes; empty selects defaultProbes(). */
    std::vector<ProbeConfig> probes;
};

/** One corpus member. */
struct CorpusEntry
{
    std::string name;        ///< kernel + file stem ("x004_1a2b3c4d")
    KernelSignature signature;
    bool loaded = false;     ///< true when read from corpusDir
    bool kept = true;        ///< false when minimization dropped it
    std::vector<std::string> newBins; ///< bins dark before admission
    std::vector<std::string> bins;    ///< all bins it lights
};

/** One evaluated candidate (admitted or not). */
struct RoundRecord
{
    int round = 0;
    std::string mode;    ///< "fresh" or "mutate"
    std::string parent;  ///< parent entry name, empty for fresh
    std::string name;    ///< candidate name
    bool accepted = false;
    std::vector<std::string> newBins;
};

/** The campaign driver. */
class Explorer
{
  public:
    explicit Explorer(ExploreOptions options);

    /** The built-in probe set (see DESIGN.md §17). */
    static std::vector<ProbeConfig> defaultProbes();

    /**
     * Run the campaign: load the corpus, spend the budget, minimize,
     * write survivors. @return bins newly lit by this campaign
     * (excluding those the loaded corpus already covered).
     */
    std::size_t run();

    const CoverageMap& coverage() const { return coverage_; }
    const std::vector<CorpusEntry>& corpus() const { return corpus_; }
    const std::vector<RoundRecord>& rounds() const { return rounds_; }

    /**
     * Probe @p sig under every configured probe and return its bins.
     * Also the regression-side entry point: tests re-derive a corpus
     * kernel's coverage without running a campaign.
     */
    std::vector<std::string> probeSignature(const KernelSignature& sig,
                                            const std::string& name) const;

    /** Emit the deterministic campaign report JSON. */
    void writeReport(std::ostream& os) const;

  private:
    /** Queue @p sig's probe jobs on @p runner, in probe order. */
    void submitProbes(SweepRunner& runner, const KernelSignature& sig,
                      const std::string& name) const;

    /**
     * The sorted, distinct bins of one signature's probe results,
     * which start at results[@p first].
     */
    std::vector<std::string> probeBins(const std::vector<SweepResult>& results,
                                       std::size_t first) const;

    /** Parse every corpus file, then probe them all as one batch. */
    std::size_t loadCorpus();
    std::size_t pickParent(Rng& rng) const;
    void minimizeCorpus();
    void writeCorpus() const;

    ExploreOptions opts_;
    std::vector<ProbeConfig> probes_;
    CoverageMap coverage_;
    std::vector<CorpusEntry> corpus_;
    std::vector<RoundRecord> rounds_;
    std::size_t initialCoverage_ = 0;
    std::size_t loadedEntries_ = 0;
};

} // namespace apres

#endif // APRES_EXPLORE_EXPLORER_HPP
