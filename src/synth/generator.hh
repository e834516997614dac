/**
 * @file
 * Automated litmus-test synthesis (paper §6.3, following Lustig et al.,
 * ASPLOS 2017).
 *
 * The synthesizer enumerates all small programs over a fixed instruction
 * alphabet, canonicalizes them modulo thread/location symmetry, checks
 * each under the PTX 7.5 (and optionally PTX 6.0) model, and classifies
 * the interesting ones:
 *
 *  - weak: the relaxed model admits outcomes sequential consistency
 *    does not (classic litmus tests);
 *  - proxy-sensitive: the proxy-aware model admits outcomes the
 *    proxy-oblivious model forbids (the "non-standard patterns"
 *    the paper reports finding);
 *  - fence-minimal: removing any single fence strictly enlarges the
 *    admitted outcome set (every fence is load-bearing).
 *
 * The enumeration cost is exponential in the instruction count; the
 * paper reports ~6 instructions as the practical limit, which
 * bench/sec63_synthesis reproduces.
 */

#ifndef MIXEDPROXY_SYNTH_GENERATOR_HH
#define MIXEDPROXY_SYNTH_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "litmus/test.hh"
#include "obs/obs.hh"

namespace mixedproxy::synth {

/** Options controlling one synthesis run. */
struct SynthOptions
{
    /** Exact number of instructions across all threads. */
    std::size_t instructions = 3;

    /** Maximum number of threads (each in its own CTA). */
    std::size_t maxThreads = 2;

    /** Number of distinct physical locations available (1 or 2). */
    std::size_t maxLocations = 2;

    /**
     * Include the proxy alphabet: constant loads through an alias,
     * generic accesses through an alias, and proxy fences.
     */
    bool withProxies = true;

    /** Include fence.acq_rel.gpu / fence.sc.gpu in the alphabet. */
    bool withFences = true;

    /** Include release/acquire accesses in the alphabet. */
    bool withReleaseAcquire = true;

    /** Include atom.add in the alphabet. */
    bool withAtomics = false;

    /** Include cp.async / cp.async.wait_all in the alphabet. */
    bool withAsync = false;

    /** Include bar.sync in the alphabet (two-thread rendezvous). */
    bool withBarriers = false;

    /** Classify proxy-sensitivity by also checking under PTX 6.0. */
    bool classifyAgainstPtx60 = true;

    /** Classify weakness against the SC reference executor. */
    bool classifyAgainstSc = true;

    /** Classify fence-minimality by re-checking with fences removed. */
    bool classifyFenceMinimal = true;

    /**
     * Static pruning oracle (docs/static_solver.md): skip model checks
     * the pre-solver's single-proxy analysis proves redundant — the
     * PTX 6.0 recheck of a single-proxy program (both models interpret
     * it identically) and the fence-minimality recheck of a proxy
     * fence inside a single-proxy program (its removal provably
     * preserves the outcome set). Output-preserving by construction:
     * the report is byte-identical with the oracle off, only slower
     * (tests/synth assert this). The skip counts surface as
     * synth.presolve.* metrics.
     */
    bool presolve = true;

    /** Per-test enumeration guard (skip blow-ups). */
    std::uint64_t maxExecutionsPerTest = 2'000'000;

    /** Stop after this many unique programs (0 = unlimited). */
    std::size_t maxUniquePrograms = 0;

    /**
     * Worker threads for skeleton enumeration and classification
     * (runtime::parallelFor). The report is identical for any value —
     * enumeration shards merge their canonical-key dedup in
     * deterministic order and classification results fold by index
     * (docs/parallelism.md).
     */
    std::size_t jobs = 1;

    /**
     * Observability session to record into (bound for the duration of
     * run(); workers get per-worker sessions merged back into it).
     * Null uses the calling thread's ambient session.
     */
    obs::Session *session = nullptr;
};

/** One synthesized-and-classified test. */
struct SynthesizedTest
{
    litmus::LitmusTest test;
    bool weak = false;
    bool proxySensitive = false;
    bool fenceMinimal = false;
    std::size_t ptx75Outcomes = 0;
    std::size_t ptx60Outcomes = 0;
    std::size_t scOutcomeCount = 0;
};

/**
 * Aggregate statistics of a synthesis run. The synthesizer fills this
 * struct directly; publish() maps every field onto the stable
 * "synth.*" metric names (docs/observability.md), keeping summary()
 * and the --stats-json report on one source of truth.
 */
struct SynthStats
{
    std::uint64_t programsEnumerated = 0;
    std::uint64_t afterPruning = 0;
    std::uint64_t uniquePrograms = 0;
    std::uint64_t checked = 0;
    std::uint64_t skippedTooExpensive = 0;
    std::uint64_t weak = 0;
    std::uint64_t proxySensitive = 0;
    std::uint64_t fenceMinimal = 0;

    /**
     * Checks skipped by the static pruning oracle
     * (SynthOptions::presolve): PTX 6.0 classification checks and
     * fence-minimality rechecks, respectively. Published as metrics
     * only — summary() omits them so its text stays byte-identical
     * whether or not the oracle ran.
     */
    std::uint64_t presolvePrunedPtx60 = 0;
    std::uint64_t presolvePrunedFenceChecks = 0;

    /**
     * PTX 6.0 erasure classes whose PTX 6.0 verdict, respectively SC
     * outcome set, was computed (once per class, for every member that
     * asked). Metrics only, like the presolve counts.
     */
    std::uint64_t ptx60Classes = 0;
    std::uint64_t scClasses = 0;

    /** Wall time of run(); metrics and benchmarks only, not summary(). */
    double seconds = 0.0;

    /** Add every field to @p registry under the "synth." prefix. */
    void publish(obs::MetricsRegistry &registry) const;
};

/** The result of one synthesis run. */
struct SynthReport
{
    SynthStats stats;

    /** Tests with at least one interesting classification. */
    std::vector<SynthesizedTest> interesting;

    /** Multi-line human-readable table row. */
    std::string summary() const;

    /**
     * Write every interesting test as a .litmus file under @p directory
     * (created if absent), with a comment header recording its
     * classification — the "comprehensive litmus test suite" artifact
     * of the ASPLOS 2017 flow the paper follows.
     *
     * @return number of files written.
     */
    std::size_t writeSuite(const std::string &directory) const;
};

/** The exhaustive litmus-test synthesizer. */
class Synthesizer
{
  public:
    explicit Synthesizer(SynthOptions options = {});

    /** Run the enumeration and classification. */
    SynthReport run() const;

    const SynthOptions &options() const { return opts; }

  private:
    SynthOptions opts;
};

} // namespace mixedproxy::synth

#endif // MIXEDPROXY_SYNTH_GENERATOR_HH
