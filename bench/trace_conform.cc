/**
 * @file
 * Streaming trace-conformance throughput (ISSUE 10).
 *
 * The streaming checker exists so million-event executions — far past
 * what the exhaustive axiomatic checker can enumerate — can still be
 * validated against the PTX axioms. This bench is the artifact behind
 * the two acceptance numbers: a synthetic 1M-event trace checks at
 * >= 100k events/sec in Release, and the live window the checker keeps
 * stays orders of magnitude below the event count (peak live writes
 * vs. events processed), so memory is bounded by the window, not the
 * trace.
 *
 * The synthetic workload round-robins T threads over per-thread
 * location sets (store, commit, load-back), which keeps every event
 * conformant by construction while filling all T windows at once —
 * the retirement path, not the violation path, is what 1M clean events
 * exercises. A second variant adds an SC fence to about 1% of the
 * events, spread over all threads, so the fence-SC path (each fence
 * visits its thread's live committed writes) is timed as well.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "conform/checker.hh"
#include "conform/trace.hh"
#include "litmus/types.hh"
#include "obs/obs.hh"
#include "obs/report.hh"

using namespace mixedproxy;
using namespace mixedproxy::bench;

namespace {

/** One SC fence per this many turns: about 1% of the events. */
constexpr std::size_t kFencedTurns = 33;

/**
 * Build a conformant synthetic trace with ~@p events events: @p
 * threads threads round-robin over @p locsPerThread private locations,
 * each turn emitting st + commit + ld-back (all relaxed/generic, GPU
 * scope). Private locations mean no cross-thread rf/coherence edges,
 * so the trace is conformant for every interleaving the round-robin
 * produces; the per-location commit streams still grow without bound,
 * which is exactly what forces the checker's window retirement. With
 * @p fenceEvery > 0, every fenceEvery-th turn ends in a GPU-scope SC
 * fence; the forced SC edges are then all program-order consistent.
 */
std::string
syntheticTrace(std::size_t events, std::size_t fenceEvery = 0,
               std::size_t threads = 4, std::size_t locsPerThread = 2)
{
    std::ostringstream out;
    conform::TraceWriter writer(out);

    conform::TraceHeader header;
    header.test = "synthetic_" + std::to_string(events) +
                  (fenceEvery ? "_fenced" : "");
    const std::size_t nLocs = threads * locsPerThread;
    for (std::size_t t = 0; t < threads; t++)
        header.threads.push_back(
            {"t" + std::to_string(t), static_cast<int>(t), 0});
    for (std::size_t l = 0; l < nLocs; l++)
        header.locations.push_back({"x" + std::to_string(l), 0});
    writer.header(header);

    std::vector<std::uint64_t> value(nLocs, 0);
    litmus::Outcome outcome;
    std::size_t emitted = 0;
    for (std::size_t turn = 0; emitted + 3 <= events; turn++) {
        const std::size_t t = turn % threads;
        const std::size_t l =
            t * locsPerThread + (turn / threads) % locsPerThread;
        const std::uint64_t v = ++value[l];
        const std::uint64_t uid = writer.store(
            t, l, v, litmus::Semantics::Weak, litmus::Scope::Gpu,
            litmus::ProxyKind::Generic);
        writer.commit(uid);
        writer.load(t, l, v, uid, litmus::Semantics::Weak,
                    litmus::Scope::Gpu, litmus::ProxyKind::Generic,
                    "");
        emitted += 3;
        if (fenceEvery && turn % fenceEvery == fenceEvery - 1 &&
            emitted < events) {
            writer.fence(t, litmus::Semantics::Sc, litmus::Scope::Gpu);
            emitted++;
        }
    }
    for (std::size_t l = 0; l < nLocs; l++)
        outcome.memory[header.locations[l].name] = value[l];
    writer.finish(outcome);
    return out.str();
}

struct Run
{
    double ms = 0.0;
    conform::ConformStats stats;
};

/** Check @p trace once; wall ms plus the checker's own stats. */
Run
checkOnce(const std::string &trace, std::size_t window = 1024)
{
    conform::ConformOptions opts;
    opts.window = window;
    std::istringstream in(trace);
    auto begin = std::chrono::steady_clock::now();
    conform::ConformReport report = conform::checkTrace(in, opts);
    auto end = std::chrono::steady_clock::now();
    if (!report.conformant())
        std::fprintf(stderr, "BUG: synthetic trace nonconformant:\n%s",
                     report.summary().c_str());
    benchmark::DoNotOptimize(report.stats.events);
    return {std::chrono::duration<double, std::milli>(end - begin)
                .count(),
            report.stats};
}

/** Best-of-3 wall time (the machine is noisy; min is the estimator). */
Run
checkBest(const std::string &trace, std::size_t window = 1024)
{
    Run best = checkOnce(trace, window);
    for (int i = 0; i < 2; i++) {
        Run run = checkOnce(trace, window);
        if (run.ms < best.ms)
            best = run;
    }
    return best;
}

double
eventsPerSec(const Run &run)
{
    return run.ms > 0.0
               ? static_cast<double>(run.stats.events) * 1e3 / run.ms
               : 0.0;
}

void
printThroughputTable()
{
    banner("Streaming conformance: events/sec and window residency",
           "million-event traces check in window-bounded memory at "
           ">= 100k events/sec");

    std::printf("%-12s %-10s %-10s %-12s %-14s %-14s\n", "events",
                "sc fences", "wall ms", "events/sec", "peak window",
                "retired");
    rule();
    for (std::size_t fenceEvery : {std::size_t{0}, kFencedTurns}) {
        for (std::size_t events :
             {std::size_t{10'000}, std::size_t{100'000},
              std::size_t{1'000'000}}) {
            const std::string trace = syntheticTrace(events, fenceEvery);
            Run run = checkBest(trace);
            std::printf("%-12zu %-10llu %-10.1f %-12.0f %-14zu %-14llu\n",
                        events,
                        static_cast<unsigned long long>(run.stats.fences),
                        run.ms, eventsPerSec(run), run.stats.peakWindow,
                        static_cast<unsigned long long>(
                            run.stats.retiredWrites));
        }
    }
    rule();
    std::printf("\n");
}

void
printWindowTable()
{
    banner("Window capacity vs. memory: 1M events at varying windows",
           "peak live writes track the configured window, not the "
           "trace length");

    // Single runs: this table is about residency (peak/retired, which
    // are deterministic), not timing.
    const std::string trace = syntheticTrace(1'000'000);
    std::printf("%-10s %-10s %-14s %-14s\n", "window", "wall ms",
                "peak window", "retired");
    rule();
    for (std::size_t window : {std::size_t{64}, std::size_t{256},
                               std::size_t{1024}}) {
        Run run = checkOnce(trace, window);
        std::printf("%-10zu %-10.1f %-14zu %-14llu\n", window, run.ms,
                    run.stats.peakWindow,
                    static_cast<unsigned long long>(
                        run.stats.retiredWrites));
    }
    rule();
    std::printf("\n");
}

/**
 * Record the headline gauges into bench/results/ (perfcmp tracks them
 * across PRs). The obs session also captures the checker's own
 * conform.* counters and the conform.window.peak gauge.
 */
void
writeStatsJson()
{
#ifdef MIXEDPROXY_BENCH_RESULTS_DIR
    const std::filesystem::path dir = MIXEDPROXY_BENCH_RESULTS_DIR;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     dir.string().c_str(), ec.message().c_str());
        return;
    }

    obs::Session session;
    session.enable();
    {
        obs::ScopedSession bind(&session);
        const std::string trace = syntheticTrace(1'000'000);
        Run run = checkBest(trace);
        obs::gauge("trace_conform.events_per_sec", eventsPerSec(run));
        obs::gauge("trace_conform.wall_ms.1m_events", run.ms);
        obs::gauge("trace_conform.peak_window",
                   static_cast<double>(run.stats.peakWindow));
        const std::string fenced =
            syntheticTrace(1'000'000, kFencedTurns);
        Run fencedRun = checkBest(fenced);
        obs::gauge("trace_conform.events_per_sec.sc_fenced",
                   eventsPerSec(fencedRun));
        obs::gauge("trace_conform.wall_ms.1m_events_sc_fenced",
                   fencedRun.ms);
    }
    session.disable();

    std::map<std::string, std::string> meta;
    meta["bench"] = "trace_conform";
    meta["workload"] =
        "synthetic_1m_events_4t_window1024_bestof3_plain_and_1pct_sc";
    const std::filesystem::path path = dir / "trace_conform.stats.json";
    std::ofstream out(path);
    if (out) {
        out << obs::statsJson(session.metrics, meta);
        std::printf("wrote %s\n\n", path.string().c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n",
                     path.string().c_str());
    }
#endif
}

void
BM_CheckSyntheticTrace(benchmark::State &state)
{
    const std::string trace =
        syntheticTrace(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        conform::ConformOptions opts;
        std::istringstream in(trace);
        benchmark::DoNotOptimize(
            conform::checkTrace(in, opts).stats.events);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckSyntheticTrace)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void
BM_SyntheticTraceWrite(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            syntheticTrace(static_cast<std::size_t>(state.range(0)))
                .size());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SyntheticTraceWrite)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printThroughputTable();
    printWindowTable();
    writeStatsJson();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
