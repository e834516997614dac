/**
 * @file
 * check_large: the enumeration-bound case. One closed-loop client
 * calls Engine::submit with the verdict cache off, checking each
 * program under PTX 7.5 and then PTX 6.0. The programs are mixed-proxy
 * litmus tests of 6-9 memory operations on 2-4 threads with fences and
 * proxy fences, drawn from a fixed universe whose verdict digests and
 * check costs are checked in (check_large.digests). The seed picks one
 * program from each of kSample cost strata of the universe, and the
 * order of that sample; a run makes whole passes over it, so every run
 * and every seed checks the same mix of cheap and expensive programs.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/presolve/presolve.hh"
#include "bench.hh"
#include "engine/engine.hh"
#include "litmus/parser.hh"
#include "model/program.hh"
#include "synth/sc_reference.hh"

namespace perfbench {

namespace {

namespace mp = mixedproxy;
using mp::litmus::LitmusTest;

/** Programs in the universe, and the seed that generates it. */
constexpr std::size_t kUniverse = 2048;
constexpr std::uint64_t kUniverseSeed = 0x636865636b5f6c67ULL;

/**
 * Band for a generated program's rf x co candidate bound (product over
 * loads of their possible sources, times the product over locations of
 * their store orders). The floor keeps the workload enumeration-bound;
 * the cap keeps single checks within tens of milliseconds, the size of
 * the largest paper-style tests (scaling_4: 15000 candidates).
 */
constexpr std::uint64_t kCandidateFloor = 500;
constexpr std::uint64_t kCandidateCap = 50000;

/**
 * Cap on a program's SC interleavings (the multinomial of its
 * per-thread instruction counts). The SC reference the gate runs on
 * every visited program walks them all; beyond this it takes seconds
 * per program.
 */
constexpr double kInterleavingCap = 20000;

/** Programs checked during set-up, before anything is timed. */
constexpr std::size_t kWarmup = 64;

/**
 * Programs a run checks, one per stratum of kUniverse / kSample
 * programs of neighbouring cost. A pass over them takes about a second,
 * and each pass is one rate slice.
 */
constexpr std::size_t kSample = 256;

const char *const kLocs[] = {"x", "y"};
const char *const kAliases[] = {"ax", "ay"};

/** One generated program as litmus text, and its candidate bound. */
std::pair<std::string, std::uint64_t>
generate(Rng &rng, std::size_t index)
{
    for (;;) {
        const std::size_t threads = rng.between(2, 4);
        const std::size_t memOps = rng.between(6, 9);
        const std::size_t locs = rng.between(1, 2);
        const bool mixed = rng.below(4) != 0;

        // Spread the memory operations over the threads, each >= 1.
        std::vector<std::size_t> perThread(threads, 1);
        for (std::size_t i = threads; i < memOps; i++)
            perThread[rng.below(threads)]++;

        std::vector<std::size_t> stores(locs, 0);
        std::vector<std::size_t> loadLocs;
        std::set<std::size_t> aliased;
        std::vector<std::vector<std::string>> code(threads);
        std::vector<std::pair<std::string, std::size_t>> loadRegs;
        std::uint64_t value = 1;
        for (std::size_t t = 0; t < threads; t++) {
            std::size_t reg = 0;
            for (std::size_t k = 0; k < perThread[t]; k++) {
                const std::size_t l = rng.below(locs);
                const std::string loc = kLocs[l];
                const std::string alias = kAliases[l];
                // Half stores, half loads; mixed programs also use the
                // alias and constant proxies.
                const bool store = rng.below(2) == 0;
                static const std::uint64_t kStores[] = {0, 2, 5};
                static const std::uint64_t kLoads[] = {1, 3, 4, 6};
                const std::uint64_t kind =
                    store ? kStores[rng.below(mixed ? 3 : 2)]
                          : kLoads[rng.below(mixed ? 4 : 2)];
                std::string r = "r" + std::to_string(reg);
                switch (kind) {
                  case 0:
                    code[t].push_back("st.global.u32 [" + loc + "], " +
                                      std::to_string(value));
                    break;
                  case 1:
                    code[t].push_back("ld.global.u32 " + r + ", [" + loc +
                                      "]");
                    break;
                  case 2:
                    code[t].push_back("st.release.gpu.u32 [" + loc +
                                      "], " + std::to_string(value));
                    break;
                  case 3:
                    code[t].push_back("ld.acquire.gpu.u32 " + r + ", [" +
                                      loc + "]");
                    break;
                  case 4:
                    code[t].push_back("ld.const.u32 " + r + ", [" + alias +
                                      "]");
                    aliased.insert(l);
                    break;
                  case 5:
                    code[t].push_back("st.global.u32 [" + alias + "], " +
                                      std::to_string(value));
                    aliased.insert(l);
                    break;
                  default:
                    code[t].push_back("ld.global.u32 " + r + ", [" +
                                      alias + "]");
                    aliased.insert(l);
                    break;
                }
                if (store) {
                    stores[l]++;
                    value++;
                } else {
                    loadLocs.push_back(l);
                    loadRegs.push_back({"t" + std::to_string(t) + "." + r,
                                        l});
                    reg++;
                }
                // A fence after roughly every third memory operation.
                if (k + 1 < perThread[t] && rng.below(3) == 0) {
                    static const char *const kFences[] = {
                        "fence.acq_rel.gpu", "fence.sc.gpu",
                        "fence.proxy.alias", "fence.proxy.constant"};
                    code[t].push_back(kFences[rng.below(mixed ? 4 : 2)]);
                }
            }
        }
        if (loadLocs.empty() ||
            std::all_of(stores.begin(), stores.end(),
                        [](std::size_t s) { return s == 0; }))
            continue;
        std::uint64_t candidates = 1;
        for (std::size_t l : loadLocs)
            candidates *= stores[l] + 1;
        for (std::size_t s : stores)
            for (std::size_t f = 2; f <= s; f++)
                candidates *= f;
        if (candidates < kCandidateFloor || candidates > kCandidateCap)
            continue;
        // Interleavings the SC reference walks: the multinomial of the
        // per-thread instruction counts.
        double interleavings = 1.0;
        std::size_t placed = 0;
        for (const auto &thread : code) {
            for (std::size_t k = 1; k <= thread.size(); k++)
                interleavings *= double(placed + k) / double(k);
            placed += thread.size();
        }
        if (interleavings > kInterleavingCap)
            continue;

        std::ostringstream out;
        out << "name: large_" << index << "\n";
        for (std::size_t l : aliased)
            out << "alias " << kAliases[l] << " " << kLocs[l] << "\n";
        for (std::size_t t = 0; t < threads; t++) {
            out << "\nthread t" << t << " cta " << t << " gpu 0:\n";
            for (const std::string &line : code[t])
                out << "  " << line << "\n";
        }
        const auto &[reg, l] = loadRegs[rng.below(loadRegs.size())];
        out << "\npermit: " << reg << " == " << rng.below(stores[l] + 1)
            << "\n";
        return {out.str(), candidates};
    }
}

struct Program
{
    LitmusTest test;
    std::uint64_t textHash = 0;
    std::size_t instructions = 0;
    std::uint64_t candidateBound = 0;
};

std::vector<Program>
makeUniverse()
{
    Rng rng(kUniverseSeed);
    std::vector<Program> universe;
    universe.reserve(kUniverse);
    for (std::size_t i = 0; i < kUniverse; i++) {
        const auto [text, bound] = generate(rng, i);
        LitmusTest test = mp::litmus::parseTest(text);
        const std::size_t instructions = test.instructionCount();
        universe.push_back(
            {std::move(test), fnv1a(text), instructions, bound});
    }
    return universe;
}

/** Digest of one model's verdict: every allowed outcome, in order. */
std::uint64_t
verdictDigest(const mp::model::CheckResult &result, std::uint64_t hash)
{
    hash = fnv1a(mp::model::toString(result.mode) + ":", hash);
    for (const auto &outcome : result.outcomes)
        hash = fnv1a(outcome.toString() + ";", hash);
    return fnv1a(result.allPassed() ? "pass" : "fail", hash);
}

/** One line of the digest table. */
struct Digest
{
    std::uint64_t text = 0;    ///< FNV-1a of the program text
    std::uint64_t verdict = 0; ///< verdictDigest of both models
    std::uint64_t costUs = 0;  ///< both checks' time when written
};

/** The digest table, indexed like the universe. */
std::vector<Digest>
readDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Digest> table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::size_t index = 0;
        std::string text, verdict;
        std::uint64_t cost = 0;
        if (!(fields >> index >> text >> verdict >> cost) ||
            index != table.size())
            throw std::runtime_error("malformed line in " + path + ": " +
                                     line);
        table.push_back({std::stoull(text, nullptr, 16),
                         std::stoull(verdict, nullptr, 16), cost});
    }
    if (table.size() != kUniverse)
        throw std::runtime_error(path + " does not cover the universe");
    return table;
}

mp::engine::Verdict
submit(mp::engine::Engine &engine, const LitmusTest &test,
       mp::model::ProxyMode mode)
{
    mp::engine::Request request = mp::engine::Request::forCheck(test);
    request.check.mode = mode;
    return engine.submit(request);
}

/**
 * One program from each cost stratum of the universe (neighbouring
 * costUs in the table), in a seeded order.
 */
std::vector<std::size_t>
stratifiedSample(const std::vector<Digest> &digests, std::uint64_t seed)
{
    std::vector<std::size_t> byCost(kUniverse);
    for (std::size_t i = 0; i < kUniverse; i++)
        byCost[i] = i;
    std::sort(byCost.begin(), byCost.end(),
              [&](std::size_t a, std::size_t b) {
                  return std::pair(digests[a].costUs, a) <
                         std::pair(digests[b].costUs, b);
              });
    Rng rng(seed * 0x9e3779b1 + 7);
    const std::size_t stratum = kUniverse / kSample;
    std::vector<std::size_t> sample;
    for (std::size_t s = 0; s < kSample; s++)
        sample.push_back(byCost[s * stratum + rng.below(stratum)]);
    rng.shuffle(sample);
    return sample;
}

struct Inputs
{
    std::vector<Program> universe;
    std::vector<Digest> digests;
    std::vector<std::size_t> sample; ///< universe indices, visit order
    std::vector<bool> mixed;         ///< per sample entry
    std::unique_ptr<mp::engine::Engine> engine;
};

/** The traced run's sessions: the checks, and the work beside them. */
struct Tracing
{
    mp::obs::Session checks;
    mp::obs::Session side; ///< the SC reference and the static solver
    SpanFold fold;
    SpanFold sideFold;
    const mp::analysis::presolve::StaticSolver solver;
    std::size_t discharged = 0;
};

/**
 * The independent-executor gate: every SC outcome of @p test must be
 * allowed by PTX 7.5. A traced run also times the SC executor and the
 * static solver here, into the side session.
 */
void
scGate(const LitmusTest &test, const std::set<mp::litmus::Outcome> &ptx75,
       const std::string &name, bool counted, Report &report,
       Tracing *tracing)
{
    mp::obs::ScopedSession bind(tracing ? &tracing->side : nullptr);
    std::set<mp::litmus::Outcome> sc;
    {
        mp::obs::Span span("synth.sc_reference");
        sc = mp::synth::scOutcomes(test);
    }
    for (const auto &outcome : sc) {
        if (!ptx75.count(outcome)) {
            // Both of the program's submits fail, once.
            report.failed += counted ? 0 : 2;
            report.mismatch(name + "SC outcome " + outcome.toString() +
                            " not allowed by PTX 7.5");
            break;
        }
    }
    if (tracing) {
        const mp::model::Program program(test, mp::model::ProxyMode::Ptx75);
        mp::obs::Span span("analysis.presolve");
        tracing->discharged +=
            tracing->solver.presolve(program).discharged ? 1 : 0;
    }
}

/**
 * Check every sampled program under both models, in the sample's
 * order. Between the timed submits, each program's two verdicts are
 * gated against the digest table and the single-proxy rule, and with
 * @p sc also against the SC reference. Nothing is kept per program, so
 * a pass leaves the heap as it found it. A warm-up pass passes no
 * @p latency; a measured one records each submit and ends a slice.
 */
void
checkPass(Inputs &inputs, bool sc, Report &report, Latencies *latency,
          Tracing *tracing)
{
    for (std::size_t k = 0; k < inputs.sample.size(); k++) {
        const std::size_t index = inputs.sample[k];
        const Program &program = inputs.universe[index];

        mp::model::CheckResult results[2];
        const mp::model::ProxyMode modes[2] = {
            mp::model::ProxyMode::Ptx75, mp::model::ProxyMode::Ptx60};
        bool budget = false;
        for (int m = 0; m < 2; m++) {
            const auto begin = Clock::now();
            {
                mp::obs::Span span(SpanFold::kRoot);
                results[m] =
                    submit(*inputs.engine, program.test, modes[m]).check;
            }
            // A program counts once, after both of its models.
            if (latency)
                latency->add(secondsSince(begin), 0.5,
                             static_cast<double>(program.instructions));
            report.attempted++;
            budget = budget || results[m].budgetExceeded;
        }

        const std::string name = "check_large program " +
                                 std::to_string(index) + ": ";
        const Digest &digest = inputs.digests[index];
        std::string why;
        if (budget)
            why = "budget exceeded";
        else if (digest.text != program.textHash)
            why = "generated text differs from the digest table";
        else if (verdictDigest(results[1], verdictDigest(results[0],
                                                          digest.text)) !=
                 digest.verdict)
            why = "verdict digest differs from the checked-in one";
        else if (!inputs.mixed[k] &&
                 results[0].outcomes != results[1].outcomes)
            why = "single-proxy program has different PTX 6.0 and 7.5 "
                  "outcomes";
        if (!why.empty()) {
            report.failed += 2;
            report.mismatch(name + why);
        }
        if (sc)
            scGate(program.test, results[0].outcomes, name, !why.empty(),
                   report, tracing);
        if (tracing && k % 64 == 63) {
            tracing->fold.fold(tracing->checks);
            tracing->sideFold.fold(tracing->side);
        }
    }
    if (latency)
        latency->endSlice();
}

/**
 * Make measured passes until @p seconds have passed (or exactly
 * @p passes passes when passes > 0); with @p scFirst the first one also
 * runs the SC gate. Returns the number of passes made.
 */
std::size_t
checkPasses(Inputs &inputs, double seconds, std::size_t passes,
            bool scFirst, Report &report, Latencies &latency,
            Tracing *tracing)
{
    const auto start = Clock::now();
    std::size_t pass = 0;
    for (;; pass++) {
        if (passes ? pass == passes
                   : pass > 0 && secondsSince(start) >= seconds)
            break;
        checkPass(inputs, scFirst && pass == 0, report, &latency, tracing);
    }
    if (tracing) {
        tracing->fold.fold(tracing->checks);
        tracing->sideFold.fold(tracing->side);
    }
    return pass;
}

void
writeDigests(const std::string &path)
{
    const std::vector<Program> universe = makeUniverse();
    mp::engine::EngineConfig config;
    config.cacheEnabled = false;
    mp::engine::Engine engine(config);
    std::ofstream out(path);
    out << "# check_large verdict digests: index, FNV-1a of the program "
           "text, FNV-1a of its\n# PTX 7.5 and PTX 6.0 outcome sets and "
           "assertion verdicts, and the best of three\n# timings of both "
           "checks in microseconds (the key a run's sample is\n# "
           "stratified on). Regenerate with mpbench --workload "
           "check_large\n# --write-digests FILE (only when verdicts are "
           "meant to change).\n";
    constexpr int kTimings = 3;
    for (std::size_t i = 0; i < universe.size(); i++) {
        const Program &p = universe[i];
        std::uint64_t hash = p.textHash;
        double best = 0.0;
        for (int rep = 0; rep < kTimings; rep++) {
            const auto begin = Clock::now();
            mp::model::CheckResult results[2];
            results[0] =
                submit(engine, p.test, mp::model::ProxyMode::Ptx75).check;
            results[1] =
                submit(engine, p.test, mp::model::ProxyMode::Ptx60).check;
            const double took = secondsSince(begin);
            best = rep == 0 ? took : std::min(best, took);
            if (rep > 0)
                continue;
            for (const auto &result : results) {
                if (result.budgetExceeded)
                    throw std::runtime_error("budget exceeded on program " +
                                             std::to_string(i));
                hash = verdictDigest(result, hash);
            }
        }
        out << i << " " << hex64(p.textHash) << " " << hex64(hash) << " "
            << static_cast<std::uint64_t>(best * 1e6) << "\n";
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace

Report
runCheckLarge(const Options &options)
{
    Report report;
    if (!options.writeDigests.empty()) {
        writeDigests(options.writeDigests);
        return report;
    }

    Inputs inputs;
    const double setup = timedSetup([&] {
        inputs.universe = makeUniverse();
        inputs.digests =
            readDigests(options.dataDir + "/check_large.digests");
        inputs.sample = stratifiedSample(inputs.digests, options.seed);
        inputs.mixed.clear();
        for (std::size_t index : inputs.sample)
            inputs.mixed.push_back(
                mp::model::Program(inputs.universe[index].test,
                                   mp::model::ProxyMode::Ptx75)
                    .usesMixedProxies());
        mp::engine::EngineConfig config;
        config.cacheEnabled = false;
        inputs.engine = std::make_unique<mp::engine::Engine>(config);
        // Warm-up on the programs with the largest candidate bounds:
        // the allocator grows its heap to its working size here, once
        // and in the same way for every seed, not inside the first
        // measured pass.
        std::vector<std::size_t> heaviest(kUniverse);
        for (std::size_t i = 0; i < kUniverse; i++)
            heaviest[i] = i;
        std::partial_sort(heaviest.begin(), heaviest.begin() + kWarmup,
                          heaviest.end(), [&](std::size_t a, std::size_t b) {
                              return inputs.universe[a].candidateBound >
                                     inputs.universe[b].candidateBound;
                          });
        for (std::size_t i = 0; i < kWarmup; i++)
            for (auto mode : {mp::model::ProxyMode::Ptx75,
                              mp::model::ProxyMode::Ptx60})
                submit(*inputs.engine,
                       inputs.universe[heaviest[i]].test, mode);
    });

    Latencies latency;
    if (!options.trace) {
        // An untimed warm-up pass, which also runs the SC gate.
        checkPass(inputs, true, report, nullptr, nullptr);
        const std::size_t passes = checkPasses(
            inputs, options.seconds, 0, false, report, latency, nullptr);
        report.note(std::to_string(passes) + " passes over " +
                    std::to_string(kSample) + " programs");
        endToEnd(report, setup, latency);
        return report;
    }

    // A warm-up pass, then the same passes twice: untraced, then
    // traced, for the overhead. The traced run's first pass also times
    // the SC gate and the static solver, beside the checks.
    checkPass(inputs, false, report, nullptr, nullptr);
    const std::size_t passes = checkPasses(
        inputs, options.seconds / 2, 0, false, report, latency, nullptr);
    Latencies traced;
    Tracing tracing;
    tracing.checks.enable();
    tracing.side.enable();
    {
        mp::obs::ScopedSession bind(&tracing.checks);
        checkPasses(inputs, 0, passes, true, report, traced, &tracing);
    }
    const SpanFold &fold = tracing.fold;
    const SpanFold &side = tracing.sideFold;
    const std::size_t discharged = tracing.discharged;

    LayerMetrics layers;
    commonLayers(layers, report, fold, latency.busy, traced.busy);
    const double ops = static_cast<double>(fold.count(SpanFold::kRoot));
    const double unique = side.count("synth.sc_reference");
    layers.set("model.unattributed_ms",
               (fold.totalMs(SpanFold::kRoot) -
                fold.totalMs("check.expand") -
                fold.totalMs("check.enumerate") -
                fold.totalMs("check.assertions")) /
                   ops);
    layers.set("synth.sc_reference_ms",
               ratio(side.totalMs("synth.sc_reference"), unique));
    layers.set("analysis.presolve_ms",
               ratio(side.totalMs("analysis.presolve"), unique));
    layers.set("analysis.presolve.discharge_ratio",
               ratio(discharged, unique));
    report.note("parts: check.expand + check.enumerate + "
                "check.assertions + model.unattributed = traced wall "
                "(per submit)");
    report.note("sc_reference and presolve: ms per program over " +
                std::to_string((std::uint64_t)unique) + " programs; " +
                std::to_string(discharged) + " discharged statically");
    layers.emit(report);
    return report;
}

} // namespace perfbench
