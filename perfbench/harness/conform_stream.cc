/**
 * @file
 * conform_stream: conform::checkTraceFile on a seeded trace of about a
 * million events, default window 1024. The trace is one SC interleaving
 * of four threads, so it conforms by construction. It mixes private
 * locations (store, commit, load-back), which fill and retire the
 * per-location windows, with shared locations written by release
 * stores and read by acquire loads, which drive the vector-clock
 * synchronization path, plus occasional fences.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unistd.h>

#include "bench.hh"
#include "conform/checker.hh"
#include "conform/trace.hh"

namespace perfbench {

namespace {

namespace mp = mixedproxy;
namespace conform = mp::conform;
using mp::litmus::ProxyKind;
using mp::litmus::Scope;
using mp::litmus::Semantics;

constexpr std::uint64_t kEvents = 1'000'000;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kPrivatePerThread = 2;
constexpr std::size_t kShared = 2;

/** Trace lines the split replay parses before feeding them. */
constexpr std::size_t kChunk = 16384;

/** Write the seeded trace to @p path; returns its event count. */
std::uint64_t
writeTrace(const std::string &path, std::uint64_t seed)
{
    std::ofstream out(path);
    conform::TraceWriter writer(out);
    conform::TraceHeader header;
    header.test = "conform_stream_" + std::to_string(seed);
    for (std::size_t t = 0; t < kThreads; t++)
        header.threads.push_back(
            {"t" + std::to_string(t), static_cast<int>(t), 0});
    const std::size_t privateLocs = kThreads * kPrivatePerThread;
    for (std::size_t l = 0; l < privateLocs + kShared; l++)
        header.locations.push_back({"m" + std::to_string(l), 0});
    writer.header(header);

    // Last committed write (uid, value) per location; uid l is the
    // init write of location l.
    std::vector<std::uint64_t> lastUid(header.locations.size());
    std::vector<std::uint64_t> value(header.locations.size(), 0);
    for (std::size_t l = 0; l < lastUid.size(); l++)
        lastUid[l] = l;

    Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
    std::uint64_t events = 0;
    while (events + 3 <= kEvents) {
        const std::size_t t = rng.below(kThreads);
        const std::uint64_t roll = rng.below(100);
        if (roll < 60) {
            const std::size_t l =
                t * kPrivatePerThread + rng.below(kPrivatePerThread);
            const std::uint64_t v = ++value[l];
            const std::uint64_t uid =
                writer.store(t, l, v, Semantics::Weak, Scope::Gpu,
                             ProxyKind::Generic);
            writer.commit(uid);
            lastUid[l] = uid;
            writer.load(t, l, v, uid, Semantics::Weak, Scope::Gpu,
                        ProxyKind::Generic, "");
            events += 3;
        } else if (roll < 78) {
            const std::size_t l = privateLocs + rng.below(kShared);
            const std::uint64_t v = ++value[l];
            const std::uint64_t uid =
                writer.store(t, l, v, Semantics::Release, Scope::Gpu,
                             ProxyKind::Generic);
            writer.commit(uid);
            lastUid[l] = uid;
            events += 2;
        } else if (roll < 98) {
            const std::size_t l = privateLocs + rng.below(kShared);
            writer.load(t, l, value[l], lastUid[l], Semantics::Acquire,
                        Scope::Gpu, ProxyKind::Generic, "");
            events += 1;
        } else {
            writer.fence(t, roll == 98 ? Semantics::AcqRel : Semantics::Sc,
                         Scope::Gpu);
            events += 1;
        }
    }
    mp::litmus::Outcome outcome;
    for (std::size_t l = 0; l < header.locations.size(); l++)
        outcome.memory[header.locations[l].name] = value[l];
    writer.finish(outcome);
    out.close();
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    return events;
}

/** The temporary trace file; removed when the run ends. */
struct TraceFile
{
    std::string path;
    std::uint64_t events = 0;

    ~TraceFile()
    {
        if (!path.empty())
            std::remove(path.c_str());
    }
};

void
gate(Report &report, const conform::ConformReport &result,
     std::uint64_t events)
{
    report.attempted++;
    std::string why;
    if (!result.conformant())
        why = "trace judged nonconformant: " + result.summary();
    else if (result.stats.events != events)
        why = "checked " + std::to_string(result.stats.events) +
              " events, wrote " + std::to_string(events);
    if (!why.empty()) {
        report.failed++;
        report.mismatch("conform_stream " + why);
    }
}

conform::ConformReport
checkOnce(const TraceFile &trace, Report &report, Latencies &latency)
{
    conform::ConformReport result;
    const auto begin = Clock::now();
    {
        mp::obs::Span span(SpanFold::kRoot);
        result = conform::checkTraceFile(trace.path);
    }
    latency.add(secondsSince(begin), 1.0,
                static_cast<double>(trace.events));
    latency.endSlice();
    gate(report, result, trace.events);
    return result;
}

/**
 * The two halves of checkTraceFile, replayed through their public
 * types: a TraceReader::next loop fills a chunk of lines, then a
 * StreamChecker consumes it.
 */
void
splitReplay(const TraceFile &trace, Report &report)
{
    std::ifstream in(trace.path);
    conform::TraceReader reader(in);
    conform::StreamChecker checker;
    std::vector<conform::TraceLine> chunk(kChunk);
    bool eof = false;
    while (!eof) {
        std::size_t n = 0;
        {
            mp::obs::Span span("conform.parse");
            while (n < kChunk) {
                const auto status = reader.next(chunk[n]);
                if (status == conform::TraceReader::Status::Eof) {
                    eof = true;
                    break;
                }
                if (status == conform::TraceReader::Status::Error)
                    throw std::runtime_error("replay parse: " +
                                             reader.error());
                n++;
            }
        }
        mp::obs::Span span("conform.feed");
        for (std::size_t i = 0; i < n; i++) {
            const conform::TraceLine &line = chunk[i];
            switch (line.kind) {
              case conform::TraceLine::Kind::Header:
                checker.begin(line.header);
                break;
              case conform::TraceLine::Kind::Event:
                checker.event(line.event);
                break;
              case conform::TraceLine::Kind::Footer:
                checker.footer(line.footer);
                break;
            }
        }
    }
    conform::ConformReport result;
    {
        mp::obs::Span span("conform.feed");
        result = checker.finish();
    }
    gate(report, result, trace.events);
}

} // namespace

Report
runConformStream(const Options &options)
{
    Report report;
    TraceFile trace;
    trace.path = options.scratchDir + "/conform_stream." +
                 std::to_string(::getpid()) + ".trace";
    const double setup = timedSetup([&] {
        trace.events = writeTrace(trace.path, options.seed);
    });

    Latencies latency;
    if (!options.trace) {
        const auto start = Clock::now();
        do {
            checkOnce(trace, report, latency);
        } while (secondsSince(start) < options.seconds);
        endToEnd(report, setup, latency);
        return report;
    }

    // One untraced check, one traced check, then the split replay.
    checkOnce(trace, report, latency);
    Latencies traced;
    SpanFold fold;
    mp::obs::Session session;
    session.enable();
    mp::obs::ScopedSession bind(&session);
    checkOnce(trace, report, traced);
    fold.fold(session);
    const double retired = fold.counter("conform.retired_writes");
    const double peak = fold.gaugeMax("conform.window.peak");
    splitReplay(trace, report);
    fold.fold(session);

    LayerMetrics layers;
    commonLayers(layers, report, fold, latency.busy, traced.busy);
    const double wall = fold.totalMs(SpanFold::kRoot);
    const double parse = fold.totalMs("conform.parse");
    const double check = fold.totalMs("conform.feed");
    layers.set("conform.parse_ms", parse);
    layers.set("conform.check_ms", check);
    layers.set("conform.unattributed_ms", wall - parse - check);
    layers.set("conform.window.peak", peak);
    layers.set("conform.retired_writes", retired);
    report.note("parts: conform.parse + conform.check (split replay) + "
                "conform.unattributed = traced checkTraceFile wall");
    layers.emit(report);
    return report;
}

} // namespace perfbench
