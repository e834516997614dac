/**
 * @file
 * litmus_service: the NVLitmus front-end path. One closed-loop client
 * sends daemon JSON lines ({"id", "litmus"}) built from the 96 built-in
 * tests to engine::handleRequestLine. Work is grouped in episodes; each
 * episode starts a fresh engine with the default in-memory cache and
 * sends every built-in test once, in a seeded order, interleaved with
 * twice as many renamed or thread-permuted copies of tests the episode
 * already sent. The canonical key must turn every copy into a cache
 * hit, and nothing else.
 */

#include <cctype>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bench.hh"
#include "engine/canonical.hh"
#include "engine/engine.hh"
#include "engine/json.hh"
#include "engine/service.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "model/checker.hh"

namespace perfbench {

namespace {

namespace mp = mixedproxy;
using mp::litmus::LitmusTest;

/** Distinct episode schedules a run cycles through. */
constexpr std::size_t kEpisodes = 4;

/**
 * Renamed or permuted copies per episode, beside the 96 built-ins: two
 * thirds of the requests are cache hits. (At one half, the median
 * latency would sit in the gap between the hit and miss clusters.)
 */
constexpr std::size_t kCopies = 192;

/** Old name -> new name; identity for names the map lacks. */
using NameMap = std::map<std::string, std::string>;

const std::string &
renamed(const NameMap &map, const std::string &name)
{
    auto it = map.find(name);
    return it == map.end() ? name : it->second;
}

/**
 * Rewrite "thread.reg" and "[addr]" references in an assertion
 * condition through the rename maps.
 */
std::string
rewriteCondition(const std::string &text, const NameMap &threads,
                 const std::map<std::string, NameMap> &registers,
                 const NameMap &addresses)
{
    auto ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::string out;
    std::size_t i = 0;
    while (i < text.size()) {
        if (text[i] == '[') {
            std::size_t j = text.find(']', i);
            if (j != std::string::npos) {
                out += '[' + renamed(addresses, text.substr(i + 1, j - i - 1)) +
                       ']';
                i = j + 1;
                continue;
            }
        }
        if (ident(text[i]) &&
            !std::isdigit(static_cast<unsigned char>(text[i]))) {
            std::size_t j = i;
            while (j < text.size() && ident(text[j]))
                j++;
            std::string first = text.substr(i, j - i);
            if (j < text.size() && text[j] == '.') {
                std::size_t k = j + 1;
                while (k < text.size() && ident(text[k]))
                    k++;
                std::string reg = text.substr(j + 1, k - j - 1);
                auto regs = registers.find(first);
                if (regs != registers.end())
                    reg = renamed(regs->second, reg);
                out += renamed(threads, first) + '.' + reg;
                i = k;
                continue;
            }
            out += first;
            i = j;
            continue;
        }
        out += text[i++];
    }
    return out;
}

/**
 * Rewrite the register and address operands of one instruction's text:
 * identifiers inside [...] through @p addresses, other identifiers not
 * part of a dotted opcode through @p registers. (Instruction::toString
 * cannot re-render every opcode, so the text is edited in place.)
 */
std::string
rewriteInstruction(const std::string &text, const NameMap &registers,
                   const NameMap &addresses)
{
    auto ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::string out;
    bool inBracket = false;
    std::size_t i = 0;
    while (i < text.size()) {
        if (!ident(text[i])) {
            inBracket = text[i] == '[' || (inBracket && text[i] != ']');
            out += text[i++];
            continue;
        }
        std::size_t j = i;
        while (j < text.size() && ident(text[j]))
            j++;
        const std::string token = text.substr(i, j - i);
        const bool opcodePart =
            (i > 0 && text[i - 1] == '.') ||
            (j < text.size() && text[j] == '.');
        if (inBracket && addresses.count(token))
            out += renamed(addresses, token);
        else if (!opcodePart)
            out += renamed(registers, token);
        else
            out += token;
        i = j;
    }
    return out;
}

/**
 * An isomorphic copy of @p test: threads, registers and addresses get
 * fresh names (when @p rename) and the thread declaration order is
 * shuffled (when @p permute).
 */
LitmusTest
variant(const LitmusTest &test, bool rename, bool permute, Rng &rng)
{
    // Register names must stay rN, so registers move to a seeded base.
    const std::uint64_t base = 10 + rng.below(900);
    const std::string tag = "v" + std::to_string(base) + "_";
    NameMap threads;
    NameMap addresses;
    std::map<std::string, NameMap> registers;
    if (rename) {
        for (const auto &thread : test.threads()) {
            threads[thread.name] = tag + "t" + std::to_string(threads.size());
            NameMap &regs = registers[thread.name];
            auto fresh = [&](const std::string &reg) {
                if (!reg.empty() && !regs.count(reg))
                    regs[reg] = "r" + std::to_string(base + regs.size());
            };
            for (const auto &inst : thread.instructions) {
                fresh(inst.destReg);
                if (inst.value.isReg())
                    fresh(inst.value.reg);
                if (inst.expected.isReg())
                    fresh(inst.expected.reg);
                for (const auto &coord : inst.addressCoordRegs)
                    fresh(coord);
            }
        }
        for (const auto &location : test.locations())
            for (const auto &va : test.addressesOf(location))
                addresses[va] = tag + "a" + std::to_string(addresses.size());
    }

    std::vector<std::size_t> order(test.threads().size());
    std::iota(order.begin(), order.end(), 0);
    if (permute)
        rng.shuffle(order);

    LitmusTest out(test.name() + "_" + tag);
    for (std::size_t index : order) {
        mp::litmus::Thread thread = test.threads()[index];
        const NameMap &regs = registers[thread.name];
        for (auto &inst : thread.instructions)
            inst.text = rewriteInstruction(inst.text, regs, addresses);
        thread.name = renamed(threads, thread.name);
        out.addThread(std::move(thread));
    }
    for (const auto &location : test.locations()) {
        for (const auto &va : test.addressesOf(location))
            if (va != location)
                out.addAlias(renamed(addresses, va),
                             renamed(addresses, location));
        out.setInit(renamed(addresses, location), test.initOf(location));
    }
    for (const auto &assertion : test.assertions())
        out.addAssertion(assertion.kind,
                         rewriteCondition(assertion.text, threads,
                                          registers, addresses));
    return out;
}

/** One request line and the response the gate expects for it. */
struct Request
{
    std::string line;
    std::size_t instructions = 0;
    bool expectPassed = false;
    bool expectHit = false;
};

struct Inputs
{
    std::vector<std::vector<Request>> episodes;
};

Inputs
makeInputs(std::uint64_t seed)
{
    const auto &tests = mp::litmus::allTests();

    // The gate's references. Each test's own assertion verdict comes
    // from a plain checker run, apart from the engine. Some built-ins
    // are one program under two names (they differ only in their
    // assertions); canonicalKey over the unrenamed built-ins groups
    // them, so only the first of a group is expected to miss. Every
    // renamed or permuted copy is expected to hit regardless.
    mp::model::CheckOptions checkOpts;
    checkOpts.collectWitnesses = false;
    mp::model::Checker checker(checkOpts);
    std::vector<bool> passed;
    std::vector<std::size_t> program;
    std::map<std::string, std::size_t> programIds;
    for (const LitmusTest &test : tests) {
        passed.push_back(checker.check(test).allPassed());
        program.push_back(
            programIds
                .emplace(mp::engine::canonicalKey(test), programIds.size())
                .first->second);
    }

    Rng rng(seed * 0x51ed27 + 11);
    Inputs inputs;
    std::uint64_t id = 0;
    for (std::size_t e = 0; e < kEpisodes; e++) {
        std::vector<std::size_t> fresh(tests.size());
        std::iota(fresh.begin(), fresh.end(), 0);
        rng.shuffle(fresh);

        std::vector<Request> episode;
        std::vector<std::size_t> sent;
        std::vector<bool> programSeen(programIds.size(), false);
        std::size_t nextFresh = 0;
        std::size_t copies = 0;
        auto emit = [&](const LitmusTest &test, std::size_t index,
                        bool hit) {
            mp::engine::json::Value doc =
                mp::engine::json::Value::makeObject();
            doc.object["id"] = mp::engine::json::Value::makeUint(id++);
            doc.object["litmus"] =
                mp::engine::json::Value::makeString(test.toString());
            episode.push_back({doc.dump(), test.instructionCount(),
                               passed[index], hit});
        };
        while (nextFresh < fresh.size() || copies < kCopies) {
            const bool copy = nextFresh == fresh.size() ||
                              (!sent.empty() && copies < kCopies &&
                               rng.below(3) != 0);
            if (copy) {
                const std::size_t index = sent[rng.below(sent.size())];
                const std::uint64_t kind = rng.below(3);
                emit(variant(tests[index], kind != 1, kind != 0, rng),
                     index, true);
                copies++;
            } else {
                const std::size_t index = fresh[nextFresh++];
                emit(tests[index], index, programSeen[program[index]]);
                programSeen[program[index]] = true;
                sent.push_back(index);
            }
        }
        inputs.episodes.push_back(std::move(episode));
    }
    return inputs;
}

/** The n-th request of the run's closed loop (episodes cycle). */
const Request &
requestAt(const Inputs &inputs, std::size_t n)
{
    const std::size_t per = inputs.episodes[0].size();
    return inputs.episodes[(n / per) % kEpisodes][n % per];
}

/** Gate one response against the request's expectations. */
void
gate(Report &report, const Request &request, const std::string &response)
{
    std::string error;
    auto doc = mp::engine::json::parse(response, &error);
    std::string why;
    if (!doc || !doc->isObject())
        why = "unparsable response: " + error;
    else if (!doc->boolOr("ok", false))
        why = "error response: " + doc->stringOr("error", "?");
    else if (doc->boolOr("passed", !request.expectPassed) !=
             request.expectPassed)
        why = "passed differs from the test's own assertions";
    else if (doc->boolOr("cache_hit", !request.expectHit) !=
             request.expectHit)
        why = std::string("cache_hit should be ") +
              (request.expectHit ? "true" : "false");
    if (!why.empty()) {
        report.failed++;
        report.mismatch("litmus_service request " +
                        std::to_string(doc ? doc->uintOr("id", 0) : 0) +
                        ": " + why);
    }
}

/**
 * Send requests 0, 1, ... through handleRequestLine until @p seconds
 * have passed (or exactly @p count requests when count > 0), gating
 * every response. Returns the number sent.
 */
std::size_t
serve(const Inputs &inputs, double seconds, std::size_t count,
      Report &report, Latencies &latency, mp::obs::Session *session,
      SpanFold *fold)
{
    const std::size_t per = inputs.episodes[0].size();
    std::unique_ptr<mp::engine::Engine> engine;
    mp::obs::Session quiet; // bound, never enabled: records nothing
    const auto start = Clock::now();
    std::size_t n = 0;
    for (;; n++) {
        if (count ? n == count : secondsSince(start) >= seconds)
            break;
        if (n % per == 0) {
            // Each episode is one rate slice.
            latency.endSlice();
            engine = std::make_unique<mp::engine::Engine>();
        }
        const Request &request = requestAt(inputs, n);

        std::string response;
        const auto begin = Clock::now();
        {
            mp::obs::Span span(SpanFold::kRoot);
            response = mp::engine::handleRequestLine(*engine, request.line);
        }
        latency.add(secondsSince(begin), 1.0,
                    static_cast<double>(request.instructions));
        report.attempted++;
        gate(report, request, response);

        if (session) {
            // The parts of handleRequestLine, replayed through their
            // own public functions on the same input, outside the
            // request's span.
            std::unique_ptr<mp::engine::json::Value> doc;
            {
                mp::obs::Span span("engine.json.parse");
                doc = mp::engine::json::parse(request.line);
            }
            mp::engine::Request replay;
            {
                mp::obs::Span span("litmus.parse");
                replay.test =
                    mp::litmus::parseTest(doc->find("litmus")->string);
            }
            {
                mp::obs::Span span("engine.canonical");
                mp::engine::canonicalKey(replay.test);
            }
            mp::engine::Verdict verdict;
            {
                mp::obs::ScopedSession mute(&quiet);
                verdict = engine->submit(replay);
            }
            {
                mp::obs::Span span("engine.render");
                mp::engine::renderReport(replay, verdict);
            }
            if (n % 256 == 255)
                fold->fold(*session);
        }
    }
    if (session)
        fold->fold(*session);
    return n;
}

} // namespace

Report
runLitmusService(const Options &options)
{
    Report report;
    Inputs inputs;
    const double setup =
        timedSetup([&] { inputs = makeInputs(options.seed); });

    Latencies latency;
    if (!options.trace) {
        serve(inputs, options.seconds, 0, report, latency, nullptr,
              nullptr);
        endToEnd(report, setup, latency);
        return report;
    }

    // Same requests twice: untraced, then traced, for the overhead.
    const std::size_t n = serve(inputs, options.seconds / 2, 0, report,
                                latency, nullptr, nullptr);
    Latencies traced;
    SpanFold fold;
    mp::obs::Session session;
    session.enable();
    {
        mp::obs::ScopedSession bind(&session);
        serve(inputs, 0, n, report, traced, &session, &fold);
    }

    LayerMetrics layers;
    commonLayers(layers, report, fold, latency.busy, traced.busy);
    const double ops = static_cast<double>(n);
    const double json = fold.totalMs("engine.json.parse");
    const double parse = fold.totalMs("litmus.parse");
    const double render = fold.totalMs("engine.render");
    const double submit = fold.totalMs("engine.request");
    layers.set("engine.json.parse_ms", json / ops);
    layers.set("litmus.parse_ms", parse / ops);
    layers.set("engine.canonical_ms",
               fold.totalMs("engine.canonical") / ops);
    layers.set("engine.render_ms", render / ops);
    layers.set("engine.service.unattributed_ms",
               (fold.totalMs(SpanFold::kRoot) - json - parse - submit -
                render) /
                   ops);
    const double hits = fold.counter("engine.cache.hit");
    const double lookups = hits + fold.counter("engine.cache.miss");
    layers.set("engine.cache.hit_ratio", ratio(hits, lookups));
    report.note("engine.cache " + std::to_string((std::uint64_t)hits) +
                " hits / " + std::to_string((std::uint64_t)lookups) +
                " lookups");
    report.note("parts: json.parse + litmus.parse + submit + render + "
                "service.unattributed = traced wall (per request)");
    layers.emit(report);
    return report;
}

} // namespace perfbench
