#include "driver.hh"

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/analyzer.hh"
#include "conform/checker.hh"
#include "engine/engine.hh"
#include "engine/service.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "relation/error.hh"
#include "runtime/parallel.hh"
#include "synth/generator.hh"
#include "synth/shrink.hh"

namespace mixedproxy::nvlitmus {

std::string
usage()
{
    return R"(nvlitmus - PTX mixed-proxy memory model litmus checker

usage: nvlitmus [options] <input>...

inputs:
  <path>           a litmus file in the plain-text format
  <name>           the name of a built-in test (see --list)
  -                read a litmus test from stdin

options:
  --model MODEL    ptx75 (default, proxy-aware) or ptx60 (baseline)
  --compare        check under both models and show the difference
  --witness        print one witness execution per allowed outcome
  --dot            emit a graphviz digraph per allowed outcome (pipe
                   through `dot -Tsvg` for the NVLitmus-style diagram)
  --simulate[=N]   also run N randomized schedules on the operational
                   GPU machine (default 2000)
  --sim-mode MODE  proxy (default), coherent, or fence-reuse
  --list           list the built-in litmus tests
  --all            check every built-in test and print a verdict table
                   (one line per test, so --witness, --dot, --compare,
                   --lint and --simulate are usage errors with it)
  --synth=N        synthesize and classify all N-instruction litmus
                   tests (paper Section 6.3); prints the report and a
                   sample of the proxy-sensitive tests found
  --synth-out=DIR  with --synth: also write every interesting test as a
                   .litmus file under DIR (the comprehensive-suite
                   artifact)
  --shrink COND    instead of checking, minimize each input while the
                   PTX 7.5 model still admits an outcome satisfying
                   COND, and print the minimized test
  --lint           also run the static mixed-proxy analyzer and append
                   its findings (race candidates, useless fences,
                   unread registers) to each report
  --lint-only      run only the static analyzer: no exhaustive
                   checking; exit 0 when every input is clean, 1 when
                   any warning or error fired
  --presolve[=MODE]
                   run the static pre-solver before enumeration
                   (docs/static_solver.md). MODE: on (discharge
                   statically when possible, fall back to enumeration
                   otherwise — always exact; the default when =MODE is
                   omitted), off (plain enumeration, the default), or
                   only (static verdicts only, never enumerate;
                   inconclusive assertions report failed). With
                   --synth, --presolve=off also disables the provably
                   output-preserving synthesis pruning oracle
  --presolve-diff  differential soundness harness: for every input
                   (default: every built-in test), compare the
                   pre-solver's conclusive verdicts against full
                   enumeration; prints a per-test table and exits 0
                   only on zero disagreements
  --jobs N         check batch inputs (--all, multiple inputs, --synth,
                   --lint-only, --conform) on N worker threads; output
                   and --stats-json are identical for any N (default 1)

trace conformance (docs/trace_conformance.md):
  --conform FILE   check a recorded mixedproxy.trace.v1 execution
                   trace with the streaming conformance checker
                   instead of checking litmus programs; repeat the
                   flag to check a batch (sharded over --jobs, output
                   identical for any N). Exit 0 when every trace is
                   conformant, 1 otherwise
  --conform-window N
                   live-window capacity per location (and SC fences)
                   for --conform, 2..65536; smaller windows bound
                   memory but let older evidence escape (default 1024)
  --sim-trace-out FILE
                   record one simulated schedule of the single input
                   test as a mixedproxy.trace.v1 stream into FILE
                   (honors --sim-mode) and skip checking; the file can
                   be piped straight back into --conform

service mode and verdict cache (docs/service.md):
  --serve          run as a daemon: read one JSON request per line on
                   stdin, write one JSON response per line on stdout
                   (in request order), until EOF or {"cmd":"shutdown"}
  --serve-socket PATH
                   like --serve, over a Unix-domain socket at PATH
                   (connections served until a shutdown request)
  --cache-dir DIR  persist verdicts to DIR (content-addressed JSON
                   files); a later run with the same DIR answers
                   repeated checks from disk
  --cache-size N   in-memory verdict-cache capacity in entries
                   (default 4096)
  --no-cache       disable verdict memoization entirely

observability (docs/observability.md):
  --timing         print a per-phase wall-time table and the metric
                   counters on stderr after the run
  --trace-out FILE write a Chrome trace_event JSON file covering the
                   whole run (open in chrome://tracing or Perfetto)
  --stats-json FILE
                   write the structured metrics report (counters,
                   gauges, timer histograms, enum_profile) as JSON
  --profile-enum   print the enumeration profiler table on stderr
                   after the run: per-axiom rejections, candidates by
                   rf depth, branching factors and prune attribution
                   (the same counters appear in --stats-json anyway)
  --metrics-out FILE
                   write the run's metrics in Prometheus text
                   exposition format (includes build provenance)
  --log-json FILE  with --serve: append one structured JSONL record
                   per request lifecycle event (mixedproxy.log.v1)

  --help, -h       show this text

Misspelled or unknown options (anything starting with '-' other than
the flags above and the bare '-' stdin input) are usage errors.

exit status: 0 all assertions passed, 1 some assertion failed,
             2 bad usage, unreadable input, or unwritable output
             (--lint-only: 0 clean, 1 findings, 2 bad usage)
)";
}

DriverOptions
parseArgs(const std::vector<std::string> &args)
{
    DriverOptions opts;
    for (std::size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        // Matches "--flag VALUE" and "--flag=VALUE", and nothing else:
        // a misspelling like --modelx is a usage error below instead of
        // silently consuming the next argument (or being treated as a
        // test name).
        auto value_flag = [&](const char *flag,
                              std::string *value) -> bool {
            const std::string f(flag);
            if (arg == f) {
                if (++i >= args.size())
                    fatal(f, " requires a value");
                *value = args[i];
                return true;
            }
            if (arg.size() > f.size() + 1 &&
                arg.compare(0, f.size(), f) == 0 &&
                arg[f.size()] == '=') {
                *value = arg.substr(f.size() + 1);
                return true;
            }
            return false;
        };
        std::string value;
        if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--all") {
            opts.all = true;
        } else if (arg == "--compare") {
            opts.compareModels = true;
        } else if (arg == "--witness") {
            opts.showWitnesses = true;
        } else if (arg == "--dot") {
            opts.dot = true;
        } else if (arg == "--timing") {
            opts.timing = true;
        } else if (arg == "--lint-only") {
            opts.lintOnly = true;
        } else if (arg == "--lint") {
            opts.lint = true;
        } else if (arg == "--presolve-diff") {
            opts.presolveDiff = true;
        } else if (arg == "--presolve") {
            opts.presolve = model::PresolvePolicy::On;
            opts.presolveSet = true;
        } else if (arg.rfind("--presolve=", 0) == 0) {
            value = arg.substr(11);
            if (auto policy = model::presolvePolicyFromString(value)) {
                opts.presolve = *policy;
                opts.presolveSet = true;
            } else {
                fatal("unknown presolve policy '", value,
                      "' (want off|on|only)");
            }
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--no-cache") {
            opts.noCache = true;
        } else if (value_flag("--serve-socket", &opts.serveSocketPath)) {
            opts.serve = true;
        } else if (value_flag("--cache-dir", &opts.cacheDir)) {
        } else if (value_flag("--cache-size", &value)) {
            bool digits = !value.empty() &&
                          value.find_first_not_of("0123456789") ==
                              std::string::npos;
            if (!digits)
                fatal("bad --cache-size '", value, "'");
            try {
                opts.cacheSize = std::stoul(value);
            } catch (const std::exception &) {
                fatal("bad --cache-size '", value, "'");
            }
        } else if (value_flag("--jobs", &value)) {
            // Strict: digits only, at least 1 — "--jobs 0", "--jobs x",
            // and an empty value are usage errors (exit 2).
            bool digits = !value.empty() &&
                          value.find_first_not_of("0123456789") ==
                              std::string::npos;
            if (!digits)
                fatal("bad --jobs count '", value, "'");
            try {
                opts.jobs = std::stoul(value);
            } catch (const std::exception &) {
                fatal("bad --jobs count '", value, "'");
            }
            if (opts.jobs < 1)
                fatal("--jobs must be at least 1");
        } else if (value_flag("--conform", &value)) {
            opts.conformTraces.push_back(value);
        } else if (value_flag("--conform-window", &value)) {
            bool digits = !value.empty() &&
                          value.find_first_not_of("0123456789") ==
                              std::string::npos;
            if (!digits)
                fatal("bad --conform-window '", value, "'");
            try {
                opts.conformWindow = std::stoul(value);
            } catch (const std::exception &) {
                fatal("bad --conform-window '", value, "'");
            }
            conform::checkWindow(opts.conformWindow);
        } else if (value_flag("--sim-trace-out", &opts.simTraceOut)) {
        } else if (value_flag("--trace-out", &opts.traceOut)) {
        } else if (value_flag("--stats-json", &opts.statsJsonOut)) {
        } else if (value_flag("--metrics-out", &opts.metricsOut)) {
        } else if (value_flag("--log-json", &opts.logJsonOut)) {
        } else if (arg == "--profile-enum") {
            opts.enumProfileTable = true;
        } else if (value_flag("--synth-out", &opts.synthOut)) {
        } else if (value_flag("--shrink", &opts.shrinkCondition)) {
        } else if (value_flag("--model", &value)) {
            if (value == "ptx75") {
                opts.mode = model::ProxyMode::Ptx75;
            } else if (value == "ptx60") {
                opts.mode = model::ProxyMode::Ptx60;
            } else {
                fatal("unknown model '", value, "'");
            }
        } else if (value_flag("--sim-mode", &value)) {
            if (value == "proxy") {
                opts.simMode = microarch::CoherenceMode::Proxy;
            } else if (value == "coherent") {
                opts.simMode = microarch::CoherenceMode::FullyCoherent;
            } else if (value == "fence-reuse") {
                opts.simMode = microarch::CoherenceMode::FenceReuse;
            } else {
                fatal("unknown sim mode '", value, "'");
            }
        } else if (arg == "--synth") {
            fatal("--synth requires =N");
        } else if (arg.rfind("--synth=", 0) == 0) {
            value = arg.substr(8);
            try {
                opts.synthInstructions = std::stoul(value);
            } catch (const std::exception &) {
                fatal("bad --synth count '", value, "'");
            }
            if (opts.synthInstructions < 1 ||
                opts.synthInstructions > 6) {
                fatal("--synth size must be 1..6");
            }
        } else if (arg == "--simulate") {
            opts.simulate = true;
        } else if (arg.rfind("--simulate=", 0) == 0) {
            opts.simulate = true;
            value = arg.substr(11);
            try {
                opts.simIterations = std::stoul(value);
            } catch (const std::exception &) {
                fatal("bad --simulate count '", value, "'");
            }
        } else if (arg.size() > 1 && arg[0] == '-') {
            // "-" alone still means stdin.
            fatal("unknown option '", arg, "'");
        } else {
            opts.inputs.push_back(arg);
        }
    }
    if (opts.all) {
        // The --all table has one line per test: flags that shape a
        // per-test report have nowhere to go, so refuse them rather
        // than drop them.
        const std::pair<bool, const char *> perReport[] = {
            {opts.showWitnesses, "--witness"},
            {opts.dot, "--dot"},
            {opts.compareModels, "--compare"},
            {opts.lint, "--lint"},
            {opts.simulate, "--simulate"}};
        for (const auto &[set, flag] : perReport) {
            if (set) {
                fatal("--all prints one verdict line per test and "
                      "cannot honour ", flag, "; name the tests instead");
            }
        }
    }
    return opts;
}

namespace {

litmus::LitmusTest
loadInput(const std::string &input)
{
    obs::Span span("parse");
    if (input == "-") {
        std::ostringstream contents;
        contents << std::cin.rdbuf();
        return litmus::parseTest(contents.str());
    }
    if (litmus::hasTest(input))
        return litmus::testByName(input);
    return litmus::parseTestFile(input);
}

/** Write @p contents to @p path; false on any I/O failure. */
bool
writeFileOrFail(const std::string &path, const std::string &contents)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << contents;
    file.flush();
    return static_cast<bool>(file);
}

engine::EngineConfig
engineConfigOf(const DriverOptions &options)
{
    engine::EngineConfig config;
    config.cacheEnabled = !options.noCache;
    config.cacheCapacity = options.cacheSize;
    config.cacheDir = options.cacheDir;
    return config;
}

/** The engine request one `nvlitmus <input>` report describes. */
engine::Request
checkRequestOf(const litmus::LitmusTest &test,
               const DriverOptions &options)
{
    engine::Request request = engine::Request::forCheck(test);
    request.check.mode = options.mode;
    request.check.showWitnesses = options.showWitnesses;
    request.check.dot = options.dot;
    request.check.compareModels = options.compareModels;
    request.check.presolve = options.presolve;
    request.lint.enabled = options.lint;
    request.sim.enabled = options.simulate;
    request.sim.iterations = options.simIterations;
    request.sim.mode = options.simMode;
    return request;
}

/**
 * The --presolve-diff harness (docs/static_solver.md): for every test,
 * run the pre-solver alone (PresolvePolicy::Only) and full enumeration
 * (PresolvePolicy::Off), then require that every *conclusive* static
 * verdict equals the enumerated one. Budget-exceeded enumerations are
 * skipped (there is no exact verdict to compare against). Exit 0 iff
 * zero disagreements — soundness is all-or-nothing.
 */
int
runPresolveDiff(const DriverOptions &opts, engine::Engine &eng,
                const std::vector<litmus::LitmusTest> &tests,
                std::ostream &out, std::ostream &err)
{
    std::size_t total_assertions = 0;
    std::size_t conclusive = 0;
    std::size_t disagreements = 0;
    std::size_t skipped = 0;

    for (const litmus::LitmusTest &test : tests) {
        engine::Request static_only = engine::Request::forCheck(test);
        static_only.check.mode = opts.mode;
        static_only.check.presolve = model::PresolvePolicy::Only;

        engine::Request enumerated = engine::Request::forCheck(test);
        enumerated.check.mode = opts.mode;

        model::CheckResult sr, er;
        try {
            sr = eng.submit(static_only).check;
            er = eng.submit(enumerated).check;
        } catch (const FatalError &e) {
            err << "nvlitmus: " << test.name() << ": " << e.what()
                << "\n";
            return 2;
        }

        if (er.budgetExceeded) {
            out << "skip  " << test.name()
                << "  (enumeration budget exceeded)\n";
            skipped++;
            continue;
        }

        const std::size_t n = er.assertions.size();
        std::size_t test_conclusive = 0;
        bool test_agrees = true;
        for (std::size_t i = 0; i < n; i++) {
            total_assertions++;
            const bool has_static =
                sr.staticallyDischarged &&
                i < sr.staticallyDischarged->assertions.size();
            if (!has_static ||
                !sr.staticallyDischarged->assertions[i].conclusive)
                continue;
            conclusive++;
            test_conclusive++;
            const auto &v = sr.staticallyDischarged->assertions[i];
            if (v.passed != er.assertions[i].passed) {
                disagreements++;
                test_agrees = false;
                out << "DISAGREE  " << test.name() << "  assertion "
                    << i + 1 << ": static says "
                    << (v.passed ? "pass" : "fail") << " ("
                    << v.method
                    << (v.detail.empty() ? "" : ": " + v.detail)
                    << "), enumeration says "
                    << (er.assertions[i].passed ? "pass" : "fail")
                    << "\n";
            }
        }
        out << (test_agrees ? "ok   " : "FAIL ") << " " << test.name()
            << "  (" << test_conclusive << "/" << n
            << " assertions discharged)\n";
    }

    out << "presolve differential: " << tests.size() << " tests ("
        << skipped << " skipped), " << conclusive << "/"
        << total_assertions << " assertions conclusive, "
        << disagreements << " disagreements\n";
    return disagreements == 0 ? 0 : 1;
}

} // namespace

std::string
report(const litmus::LitmusTest &test, const DriverOptions &options,
       bool *passed)
{
    // One-shot adapter: a fresh engine per call keeps the historical
    // stateless semantics for library callers; the CLI batch paths
    // share one engine (and thus one verdict cache) across the whole
    // run instead (runParsed below).
    engine::Engine eng(engineConfigOf(options));
    engine::Request request = checkRequestOf(test, options);
    engine::Verdict verdict = eng.submit(request);
    if (passed)
        *passed = verdict.passed();
    return engine::renderReport(request, verdict);
}

namespace {

/** The work of runCli once options are parsed and obs is attached. */
int
runParsed(const DriverOptions &opts, engine::Engine &eng,
          std::ostream &out, std::ostream &err)
{
    if (opts.help) {
        out << usage();
        return 0;
    }
    if (!opts.logJsonOut.empty() && !opts.serve) {
        err << "nvlitmus: --log-json requires --serve\n" << usage();
        return 2;
    }
    if (opts.list) {
        for (const auto &name : litmus::testNames())
            out << name << "\n";
        return 0;
    }
    if (opts.serve) {
        engine::ServeOptions sopts;
        sopts.jobs = opts.jobs;
        sopts.socketPath = opts.serveSocketPath;
        sopts.session = obs::current();
        sopts.logJsonPath = opts.logJsonOut;
        if (!sopts.socketPath.empty())
            return engine::serveSocket(eng, sopts, err);
        return engine::serve(eng, sopts, std::cin, out, err);
    }
    if (!opts.conformTraces.empty()) {
        if (!opts.inputs.empty()) {
            err << "nvlitmus: --conform takes trace files via the flag "
                   "itself, not litmus inputs\n";
            return 2;
        }
        // One engine request per trace; each renders into its own slot
        // and the slots fold in index order, so the transcript is
        // byte-identical for any --jobs value.
        runtime::ParallelOptions par;
        par.jobs = opts.jobs;
        struct ConformSlot
        {
            bool conformant = false;
            std::string text;
            std::string error;
        };
        std::vector<ConformSlot> slots(opts.conformTraces.size());
        runtime::parallelFor(
            opts.conformTraces.size(), par,
            [&](std::size_t i, obs::Session *) {
                try {
                    engine::Request request =
                        engine::Request::forConform(
                            opts.conformTraces[i]);
                    request.conform.window = opts.conformWindow;
                    engine::Verdict verdict = eng.submit(request);
                    slots[i].conformant = verdict.passed();
                    slots[i].text =
                        engine::renderReport(request, verdict);
                } catch (const FatalError &e) {
                    slots[i].error = e.what();
                }
            });
        bool all_conformant = true;
        for (std::size_t i = 0; i < slots.size(); i++) {
            if (!slots[i].error.empty()) {
                err << "nvlitmus: " << opts.conformTraces[i] << ": "
                    << slots[i].error << "\n";
                return 2;
            }
            out << slots[i].text << "\n";
            all_conformant &= slots[i].conformant;
        }
        return all_conformant ? 0 : 1;
    }
    if (opts.synthInstructions != 0) {
        engine::Request request =
            engine::Request::forSynth(opts.synthInstructions);
        request.synth.classifyFenceMinimal =
            opts.synthInstructions <= 3;
        // The pruning oracle is output-preserving, so it defaults on;
        // only an explicit --presolve=off turns it off (to benchmark
        // the unpruned baseline).
        request.synth.presolve =
            !opts.presolveSet ||
            opts.presolve != model::PresolvePolicy::Off;
        request.synth.jobs = opts.jobs;
        request.synth.outDir = opts.synthOut;
        engine::Verdict verdict = eng.submit(request);
        const synth::SynthReport &report = *verdict.synth;
        out << report.summary() << "\n";
        if (!opts.synthOut.empty()) {
            std::size_t written = report.writeSuite(opts.synthOut);
            out << "wrote " << written << " tests to " << opts.synthOut
                << "\n";
        }
        std::size_t shown = 0;
        for (const auto &entry : report.interesting) {
            if (!entry.proxySensitive)
                continue;
            out << "--- proxy-sensitive (" << entry.ptx60Outcomes
                << " -> " << entry.ptx75Outcomes << " outcomes) ---\n"
                << entry.test.toString() << "\n";
            if (++shown == 3)
                break;
        }
        return 0;
    }

    std::vector<litmus::LitmusTest> tests;
    if (opts.all || (opts.presolveDiff && opts.inputs.empty())) {
        // The differential harness with no inputs sweeps the whole
        // built-in corpus — the corpus-soundness default.
        tests = litmus::allTests();
    } else {
        if (opts.inputs.empty()) {
            err << "nvlitmus: no inputs\n" << usage();
            return 2;
        }
        for (const auto &input : opts.inputs) {
            try {
                tests.push_back(loadInput(input));
            } catch (const FatalError &e) {
                err << "nvlitmus: " << input << ": " << e.what() << "\n";
                return 2;
            }
        }
    }

    if (!opts.simTraceOut.empty()) {
        // Recording replaces checking: one schedule of one test, so
        // the trace's provenance is unambiguous.
        if (tests.size() != 1) {
            err << "nvlitmus: --sim-trace-out needs exactly one input "
                   "test\n";
            return 2;
        }
        std::ofstream file(opts.simTraceOut);
        if (!file) {
            err << "nvlitmus: cannot write trace to '"
                << opts.simTraceOut << "'\n";
            return 2;
        }
        microarch::SimOptions sopts;
        sopts.mode = opts.simMode;
        litmus::Outcome outcome;
        try {
            outcome = microarch::Simulator(sopts).runTraced(
                tests[0], sopts.seed, file);
        } catch (const FatalError &e) {
            err << "nvlitmus: " << tests[0].name() << ": " << e.what()
                << "\n";
            return 2;
        }
        file.flush();
        if (!file) {
            err << "nvlitmus: cannot write trace to '"
                << opts.simTraceOut << "'\n";
            return 2;
        }
        out << "wrote mixedproxy.trace.v1 for " << tests[0].name()
            << " to " << opts.simTraceOut << " (outcome "
            << outcome.toString() << ")\n";
        return 0;
    }

    if (opts.presolveDiff)
        return runPresolveDiff(opts, eng, tests, out, err);

    runtime::ParallelOptions par;
    par.jobs = opts.jobs;

    if (opts.lintOnly) {
        struct LintSlot
        {
            std::string text;
            std::string error;
            bool clean = true;
        };
        std::vector<LintSlot> slots(tests.size());
        runtime::parallelFor(
            tests.size(), par, [&](std::size_t i, obs::Session *) {
                try {
                    auto verdict = eng.submit(
                        engine::Request::forLint(tests[i]));
                    slots[i].clean = verdict.lint->clean();
                    slots[i].text = verdict.lint->render();
                } catch (const FatalError &e) {
                    slots[i].error = e.what();
                }
            });
        bool all_clean = true;
        for (std::size_t i = 0; i < slots.size(); i++) {
            if (!slots[i].error.empty()) {
                err << "nvlitmus: " << tests[i].name() << ": "
                    << slots[i].error << "\n";
                return 2;
            }
            all_clean &= slots[i].clean;
            out << slots[i].text << "\n";
        }
        return all_clean ? 0 : 1;
    }

    if (!opts.shrinkCondition.empty()) {
        for (const auto &test : tests) {
            try {
                synth::ShrinkStats stats;
                auto minimal = synth::shrink(
                    test,
                    synth::admitsPredicate(opts.shrinkCondition),
                    &stats);
                out << "=== " << test.name() << " shrunk from "
                    << test.instructionCount() << " to "
                    << minimal.instructionCount()
                    << " instructions (" << stats.candidatesTried
                    << " candidates) ===\n"
                    << minimal.toString() << "\n";
            } catch (const FatalError &e) {
                err << "nvlitmus: " << test.name() << ": " << e.what()
                    << "\n";
                return 2;
            }
        }
        return 0;
    }

    bool all_passed = true;
    if (opts.all) {
        // Compact verdict table. Each test renders into its own slot on
        // a worker; folding the slots in index order makes the table
        // byte-identical for any --jobs value.
        struct TableSlot
        {
            bool passed = false;
            std::string text;
        };
        std::vector<TableSlot> slots(tests.size());
        runtime::parallelFor(
            tests.size(), par, [&](std::size_t i, obs::Session *) {
                engine::Request request =
                    engine::Request::forCheck(tests[i]);
                request.check.mode = opts.mode;
                request.check.presolve = opts.presolve;
                auto verdict = eng.submit(request);
                const model::CheckResult &result = verdict.check;
                slots[i].passed = result.allPassed();
                std::ostringstream os;
                os << (slots[i].passed ? "PASS" : "FAIL") << "  "
                   << tests[i].name() << "  ("
                   << result.outcomes.size() << " outcomes)\n";
                if (!slots[i].passed)
                    os << result.summary();
                slots[i].text = os.str();
            });
        for (const TableSlot &slot : slots) {
            all_passed &= slot.passed;
            out << slot.text;
        }
    } else {
        struct ReportSlot
        {
            bool passed = true;
            std::string text;
            std::string error;
        };
        std::vector<ReportSlot> slots(tests.size());
        runtime::parallelFor(
            tests.size(), par, [&](std::size_t i, obs::Session *) {
                try {
                    engine::Request request =
                        checkRequestOf(tests[i], opts);
                    engine::Verdict verdict = eng.submit(request);
                    slots[i].passed = verdict.passed();
                    slots[i].text =
                        engine::renderReport(request, verdict);
                } catch (const FatalError &e) {
                    slots[i].error = e.what();
                }
            });
        for (std::size_t i = 0; i < slots.size(); i++) {
            if (!slots[i].error.empty()) {
                err << "nvlitmus: " << tests[i].name() << ": "
                    << slots[i].error << "\n";
                return 2;
            }
            out << slots[i].text << "\n";
            all_passed &= slots[i].passed;
        }
    }
    return all_passed ? 0 : 1;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    DriverOptions opts;
    try {
        opts = parseArgs(args);
    } catch (const FatalError &e) {
        err << "nvlitmus: " << e.what() << "\n" << usage();
        return 2;
    }

    // The run's observability data lives in a session local to this
    // call (a run is a value, not a process): nothing leaks into the
    // global session, and concurrent runCli calls cannot collide.
    const bool observing = opts.timing || !opts.traceOut.empty() ||
                           !opts.statsJsonOut.empty() ||
                           opts.enumProfileTable ||
                           !opts.metricsOut.empty();
    obs::Session session;
    if (observing)
        session.enable();
    // One engine — and thus one verdict cache — for the whole run;
    // every batch slot and daemon request goes through it.
    engine::Engine eng(engineConfigOf(opts));
    int code;
    {
        obs::ScopedSession bind(observing ? &session : nullptr);
        code = runParsed(opts, eng, out, err);
    }

    if (observing) {
        session.disable();
        if (opts.timing)
            err << obs::timingTable(session.metrics);
        if (opts.enumProfileTable)
            err << obs::enumProfileTable(session.metrics);
        if (!opts.metricsOut.empty()) {
            std::map<std::string, std::string> meta;
            meta["tool"] = "nvlitmus";
            meta["model"] = model::toString(opts.mode);
            if (!writeFileOrFail(
                    opts.metricsOut,
                    obs::prometheusText(session.metrics, meta))) {
                err << "nvlitmus: cannot write metrics to '"
                    << opts.metricsOut << "'\n";
                code = 2;
            }
        }
        if (!opts.traceOut.empty() &&
            !writeFileOrFail(opts.traceOut,
                             obs::chromeTraceJson(session.tracer))) {
            err << "nvlitmus: cannot write trace to '" << opts.traceOut
                << "'\n";
            code = 2;
        }
        if (!opts.statsJsonOut.empty()) {
            std::map<std::string, std::string> meta;
            meta["tool"] = "nvlitmus";
            meta["model"] = model::toString(opts.mode);
            if (!writeFileOrFail(
                    opts.statsJsonOut,
                    obs::statsJson(session.metrics, meta))) {
                err << "nvlitmus: cannot write stats to '"
                    << opts.statsJsonOut << "'\n";
                code = 2;
            }
        }
    }
    return code;
}

} // namespace mixedproxy::nvlitmus
