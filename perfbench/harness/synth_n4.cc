/**
 * @file
 * synth_n4: the §6.3 synthesizer at n=4 (2 threads, 2 locations,
 * proxies, fence-minimality off, one job). Very many tiny checks, so
 * Program expansion, the PTX 6.0 re-check and the SC reference weigh
 * most. Synthesis is exhaustive over a fixed space, so the seed has no
 * input to vary here; it only labels the run.
 */

#include "bench.hh"
#include "synth/generator.hh"

namespace perfbench {

namespace {

namespace mp = mixedproxy;

/** The report counts every run must reproduce. */
constexpr std::uint64_t kUnique = 133488;
constexpr std::uint64_t kWeak = 42192;
constexpr std::uint64_t kProxySensitive = 34978;

mp::synth::SynthOptions
synthOptions(std::size_t instructions)
{
    mp::synth::SynthOptions opts;
    opts.instructions = instructions;
    opts.maxThreads = 2;
    opts.maxLocations = 2;
    opts.withProxies = true;
    opts.classifyFenceMinimal = false;
    opts.jobs = 1;
    return opts;
}

/** Run synthesis once, timed, and gate its counts. */
mp::synth::SynthReport
runOnce(Report &report, Latencies &latency)
{
    const mp::synth::Synthesizer synthesizer(synthOptions(4));
    mp::synth::SynthReport result;
    const auto begin = Clock::now();
    {
        mp::obs::Span span(SpanFold::kRoot);
        result = synthesizer.run();
    }
    const auto &s = result.stats;
    latency.add(secondsSince(begin),
                static_cast<double>(s.uniquePrograms),
                4.0 * static_cast<double>(s.uniquePrograms));
    latency.endSlice();
    report.attempted++;
    if (s.uniquePrograms != kUnique || s.weak != kWeak ||
        s.proxySensitive != kProxySensitive || s.skippedTooExpensive) {
        report.failed++;
        report.mismatch("synth_n4 counts unique " +
                        std::to_string(s.uniquePrograms) + " weak " +
                        std::to_string(s.weak) + " proxy-sensitive " +
                        std::to_string(s.proxySensitive) + " skipped " +
                        std::to_string(s.skippedTooExpensive));
    }
    return result;
}

} // namespace

Report
runSynthN4(const Options &options)
{
    Report report;
    // Set-up: the options, plus an n=3 synthesis that lets every lazy
    // table (the built-in registry, proto tables) fill before timing.
    const double setup = timedSetup([] {
        mp::synth::Synthesizer(synthOptions(3)).run();
    });

    Latencies latency;
    if (!options.trace) {
        const auto start = Clock::now();
        do {
            runOnce(report, latency);
        } while (secondsSince(start) < options.seconds);
        endToEnd(report, setup, latency);
        return report;
    }

    // One untraced run, then one traced run, for the overhead.
    runOnce(report, latency);
    Latencies traced;
    SpanFold fold;
    mp::obs::Session session;
    session.enable();
    mp::synth::SynthReport result;
    {
        mp::obs::ScopedSession bind(&session);
        result = runOnce(report, traced);
    }
    fold.fold(session);

    LayerMetrics layers;
    commonLayers(layers, report, fold, latency.busy, traced.busy);
    const double run = fold.totalMs("synth");
    const double check = fold.totalMs("synth.check");
    layers.set("synth.run_ms", run);
    layers.set("synth.check_ms", check);
    layers.set("synth.unattributed_ms", run - check);
    layers.set("synth.enumerated", result.stats.programsEnumerated);
    layers.set("synth.unique", result.stats.uniquePrograms);
    layers.set("synth.unique_ratio",
               ratio(result.stats.uniquePrograms,
                     result.stats.programsEnumerated));
    report.note("parts: synth.check + synth.unattributed = synth.run");
    layers.emit(report);
    return report;
}

} // namespace perfbench
