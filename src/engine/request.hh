/**
 * @file
 * The unified request/verdict surface of the checking engine.
 *
 * Before the engine existed, every caller hand-assembled per-subsystem
 * option structs — model::CheckOptions, synth::SynthOptions,
 * microarch::SimOptions, analyzer session arguments — and there was no
 * single value describing "one piece of work" that could be hashed,
 * cached, serialized, or dispatched. engine::Request is that value:
 * one litmus test (or a synthesis job) plus typed sub-blocks for each
 * concern (check / lint / sim / synth / obs). engine::Verdict is the
 * complete structured answer; rendering it to the classic CLI report
 * is a separate, pure step (engine/engine.hh renderReport), which is
 * what lets the daemon, the CLI, benches, and tests share one code
 * path.
 *
 * Each block converts implicitly to the subsystem struct it subsumes,
 * so model::Checker, synth::Synthesizer, and microarch::Simulator all
 * accept the engine blocks directly. (The deprecated per-subsystem
 * alias names were kept for one release after the engine API landed
 * and have been removed.)
 */

#ifndef MIXEDPROXY_ENGINE_REQUEST_HH
#define MIXEDPROXY_ENGINE_REQUEST_HH

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/analyzer.hh"
#include "conform/checker.hh"
#include "litmus/test.hh"
#include "microarch/simulator.hh"
#include "model/checker.hh"
#include "obs/obs.hh"
#include "synth/generator.hh"

namespace mixedproxy::engine {

/**
 * Axiomatic-check options. Every field except collectWitnesses and
 * compareModels is part of the verdict-cache fingerprint
 * (engine/cache.hh): witness collection bypasses the cache, and a
 * comparison is just two cached lookups under different modes.
 */
struct CheckBlock
{
    model::ProxyMode mode = model::ProxyMode::Ptx75;

    /** Render one witness execution per distinct outcome. */
    bool showWitnesses = false;

    /** Render a graphviz digraph per distinct outcome. */
    bool dot = false;

    /** Also check under the other model and report the outcome delta. */
    bool compareModels = false;

    /** See model::CheckOptions::staticFastPath. */
    bool staticFastPath = true;

    /** See model::CheckOptions::maxExecutions. */
    std::uint64_t maxExecutions = 100'000'000;

    /**
     * Static pre-solver policy (model::PresolvePolicy, CLI
     * --presolve). The engine owns the solver instance and injects it
     * when the policy is not Off; the policy is part of the cache
     * fingerprint, and any non-Off policy bypasses the verdict cache
     * (a discharged verdict carries no outcome set to reconstruct
     * from).
     */
    model::PresolvePolicy presolve = model::PresolvePolicy::Off;

    /** Whether the checker must record witnesses (either renderer). */
    bool collectWitnesses() const { return showWitnesses || dot; }

    /** The subsystem view (session is left to the engine to bind). */
    operator model::CheckOptions() const
    {
        model::CheckOptions opts;
        opts.mode = mode;
        opts.collectWitnesses = collectWitnesses();
        opts.staticFastPath = staticFastPath;
        opts.maxExecutions = maxExecutions;
        opts.presolve = presolve;
        return opts;
    }
};

/** Static-analyzer options. */
struct LintBlock
{
    /** Append the analyzer's findings to the verdict. */
    bool enabled = false;

    /** Run only the analyzer — no exhaustive checking. */
    bool lintOnly = false;
};

/** Operational-simulator options. */
struct SimBlock
{
    bool enabled = false;
    std::size_t iterations = 2000;
    microarch::CoherenceMode mode = microarch::CoherenceMode::Proxy;

    operator microarch::SimOptions() const
    {
        microarch::SimOptions opts;
        opts.iterations = iterations;
        opts.mode = mode;
        return opts;
    }
};

/** Synthesis-job options (RequestKind::Synth; the test is unused). */
struct SynthBlock
{
    /** Instructions per synthesized program. */
    std::size_t instructions = 3;

    /** Directory to write the interesting tests into ("" = don't). */
    std::string outDir;

    /** Classify fence-minimality (expensive; off above 3 instrs). */
    bool classifyFenceMinimal = true;

    /** See synth::SynthOptions::presolve (CLI --presolve=off). */
    bool presolve = true;

    /** Worker threads for enumeration and classification. */
    std::size_t jobs = 1;

    operator synth::SynthOptions() const
    {
        synth::SynthOptions opts;
        opts.instructions = instructions;
        opts.classifyFenceMinimal = classifyFenceMinimal;
        opts.presolve = presolve;
        opts.jobs = jobs;
        return opts;
    }
};

/**
 * Trace-conformance options (RequestKind::Conform; the test is
 * unused). The subject is a recorded `mixedproxy.trace.v1` stream —
 * either a file path (CLI `--conform`, daemon "path") or inline JSONL
 * text (daemon "trace"); exactly one must be set. Conformance verdicts
 * are never cached: a trace is one concrete execution, not a
 * canonicalizable program, and checking it is a single linear pass.
 */
struct ConformBlock
{
    /** Trace file to check ("" = use traceText). */
    std::string path;

    /** Inline trace text (used when path is empty). */
    std::string traceText;

    /** See conform::ConformOptions::window. */
    std::size_t window = 1024;

    /** See conform::ConformOptions::maxViolations. */
    std::size_t maxViolations = 16;

    operator conform::ConformOptions() const
    {
        conform::ConformOptions opts;
        opts.window = window;
        opts.maxViolations = maxViolations;
        return opts;
    }
};

/** Observability routing for one request. */
struct ObsBlock
{
    /**
     * Session to record this request's metrics and spans into. Null
     * uses the calling thread's ambient session (obs::ScopedSession).
     */
    obs::Session *session = nullptr;
};

/** What kind of work a Request describes. */
enum class RequestKind { Check, Lint, Synth, Conform };

/** One unit of work for the engine — the hashable, servable value. */
struct Request
{
    RequestKind kind = RequestKind::Check;

    /** The subject test (Check and Lint kinds). */
    litmus::LitmusTest test;

    CheckBlock check;
    LintBlock lint;
    SimBlock sim;
    SynthBlock synth;
    ConformBlock conform;
    ObsBlock obs;

    static Request forCheck(litmus::LitmusTest subject)
    {
        Request request;
        request.kind = RequestKind::Check;
        request.test = std::move(subject);
        return request;
    }

    static Request forLint(litmus::LitmusTest subject)
    {
        Request request;
        request.kind = RequestKind::Lint;
        request.test = std::move(subject);
        request.lint.enabled = true;
        request.lint.lintOnly = true;
        return request;
    }

    static Request forSynth(std::size_t instructions)
    {
        Request request;
        request.kind = RequestKind::Synth;
        request.synth.instructions = instructions;
        return request;
    }

    static Request forConform(std::string tracePath)
    {
        Request request;
        request.kind = RequestKind::Conform;
        request.conform.path = std::move(tracePath);
        return request;
    }
};

/** The complete structured answer to one Request. */
struct Verdict
{
    /** The axiomatic check (RequestKind::Check, unless lintOnly). */
    model::CheckResult check;

    /** The other model's result, when CheckBlock::compareModels. */
    std::optional<model::CheckResult> comparison;

    /** Analyzer findings, when LintBlock::enabled (or Lint kind). */
    std::optional<analysis::AnalysisResult> lint;

    /** Simulation campaign, when SimBlock::enabled. */
    std::optional<microarch::SimResult> sim;

    /** Synthesis report (RequestKind::Synth). */
    std::optional<synth::SynthReport> synth;

    /** Trace-conformance report (RequestKind::Conform). */
    std::optional<conform::ConformReport> conform;

    /** True when the primary check was served from the verdict cache. */
    bool cacheHit = false;

    /** Same, for the comparison model's check. */
    bool comparisonCacheHit = false;

    /**
     * The request's pass/fail bit (the CLI's exit-code input): every
     * assertion passed for a check; no warning-or-above finding for a
     * lint-only request; conformant for a trace-conformance request;
     * always true for synthesis.
     */
    bool passed() const;
};

} // namespace mixedproxy::engine

#endif // MIXEDPROXY_ENGINE_REQUEST_HH
