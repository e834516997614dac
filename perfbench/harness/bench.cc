#include "bench.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace perfbench {

std::uint64_t
fnv1a(const std::string &text, std::uint64_t hash)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

Latencies::Latencies()
    : counts(kSubBuckets * kOctaves, 0), sums(kSubBuckets * kOctaves, 0.0)
{}

std::size_t
Latencies::bucket(double seconds)
{
    if (!(seconds > 0.0))
        return 0;
    int exp = 0;
    const double mantissa = std::frexp(seconds, &exp); // in [0.5, 1)
    const long octave = exp - 1 - kMinExp;
    if (octave < 0)
        return 0;
    if (octave >= kOctaves)
        return kSubBuckets * kOctaves - 1;
    const auto sub = static_cast<long>((2.0 * mantissa - 1.0) * kSubBuckets);
    return static_cast<std::size_t>(
        octave * kSubBuckets + std::min<long>(sub, kSubBuckets - 1));
}

void
Latencies::add(double seconds, double programs, double events)
{
    const std::size_t b = bucket(seconds);
    counts[b]++;
    sums[b] += seconds;
    ops++;
    busy += seconds;
    open.ops++;
    open.seconds += seconds;
    open.programs += programs;
    open.events += events;
}

void
Latencies::endSlice()
{
    if (open.ops == 0)
        return;
    closed.push_back(open);
    open = Slice{};
}

std::vector<Latencies::Slice>
Latencies::slices() const
{
    std::vector<Slice> all = closed;
    if (open.ops)
        all.push_back(open);
    return all;
}

double
Latencies::quantileMs(double q) const
{
    if (ops == 0)
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * ops));
    rank = std::clamp<std::size_t>(rank, 1, ops);
    for (std::size_t b = 0; b < counts.size(); b++) {
        if (rank <= counts[b])
            return sums[b] / static_cast<double>(counts[b]) * 1e3;
        rank -= counts[b];
    }
    return 0.0; // unreachable: the counts sum to ops
}

namespace {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/** Each slice's work over its busy time. */
template <typename Work>
std::vector<double>
sliceRates(const Latencies &latency, Work work)
{
    std::vector<double> rates;
    for (const Latencies::Slice &slice : latency.slices())
        rates.push_back(ratio(work(slice), slice.seconds));
    return rates;
}

} // namespace

void
endToEnd(Report &report, double setupSeconds, const Latencies &latency)
{
    using Slice = Latencies::Slice;
    const std::vector<double> requests = sliceRates(
        latency, [](const Slice &s) { return static_cast<double>(s.ops); });
    report.metric("setup_s", setupSeconds, "s");
    report.metric("requests_per_s", median(requests), "1/s");
    report.metric("latency_p50_ms", latency.quantileMs(0.50), "ms");
    report.metric("latency_p99_ms", latency.quantileMs(0.99), "ms");
    report.metric("programs_per_s",
                  median(sliceRates(latency,
                                    [](const Slice &s) { return s.programs; })),
                  "1/s");
    report.metric("events_per_s",
                  median(sliceRates(latency,
                                    [](const Slice &s) { return s.events; })),
                  "1/s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");

    if (!requests.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "rate slices %zu: requests/s min %.1f median %.1f "
                      "max %.1f",
                      requests.size(),
                      *std::min_element(requests.begin(), requests.end()),
                      median(requests),
                      *std::max_element(requests.begin(), requests.end()));
        report.note(buf);
    }
    const std::size_t n = latency.count();
    const std::size_t beyond =
        n - static_cast<std::size_t>(std::ceil(0.99 * n));
    report.note("latency samples " + std::to_string(n) + " (" +
                std::to_string(beyond) + " beyond p99), busy " +
                std::to_string(latency.busy) + " s");
}

double
peakRssMb()
{
    // VmHWM belongs to this process image alone; getrusage's ru_maxrss
    // would also carry the high-water mark of the process that forked
    // it (here the Python driver), which hides a smaller workload's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
SpanFold::fold(mixedproxy::obs::Session &session)
{
    // Spans complete children-first; ordering by start (outer first on
    // ties) lets one stack recover each span's direct parent.
    std::vector<mixedproxy::obs::TraceEvent> events =
        session.tracer.events();
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  return a.depth < b.depth;
              });
    struct Open
    {
        Agg *agg;
        int depth;
        bool underRoot;
    };
    std::vector<Open> stack;
    for (const auto &ev : events) {
        while (!stack.empty() && stack.back().depth >= ev.depth)
            stack.pop_back();
        auto it = spans.find(ev.name);
        if (it == spans.end())
            it = spans.emplace(std::string(ev.name), Agg{}).first;
        Agg &agg = it->second;
        agg.totalUs += ev.durationUs;
        agg.count++;
        bool underRoot = ev.name == kRoot;
        if (!stack.empty()) {
            if (stack.back().underRoot)
                stack.back().agg->rootSelfUs -= ev.durationUs;
            underRoot = underRoot || stack.back().underRoot;
        }
        if (underRoot) {
            agg.rootSelfUs += ev.durationUs;
            agg.underRoot = true;
        }
        stack.push_back({&agg, ev.depth, underRoot});
    }
    for (const auto &[name, value] : session.metrics.counters())
        counters[name] += value;
    for (const auto &[name, value] : session.metrics.gauges())
        gauges[name] = std::max(gauges[name], value);
    session.tracer.clear();
    session.metrics.clear();
}

double
SpanFold::totalMs(const std::string &name) const
{
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.totalUs / 1e3;
}

std::uint64_t
SpanFold::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::uint64_t
SpanFold::count(const std::string &name) const
{
    auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.count;
}

double
SpanFold::gaugeMax(const std::string &name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

std::vector<std::string>
SpanFold::nestingViolations() const
{
    std::vector<std::string> out;
    for (const auto &[name, agg] : spans) {
        const std::size_t dot = name.rfind('.');
        if (dot == std::string::npos)
            continue;
        auto parent = spans.find(name.substr(0, dot));
        if (parent == spans.end() || agg.totalUs <= parent->second.totalUs)
            continue;
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s %.3f ms > %s %.3f ms",
                      name.c_str(), agg.totalUs / 1e3,
                      parent->first.c_str(),
                      parent->second.totalUs / 1e3);
        out.push_back(buf);
    }
    return out;
}

void
SpanFold::selfTimeNotes(Report &report) const
{
    double sum = 0.0;
    for (const auto &[name, agg] : spans) {
        if (!agg.underRoot)
            continue;
        sum += agg.rootSelfUs;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "self %-24s %12.3f ms  (total %.3f ms, %llu spans)",
                      name.c_str(), agg.rootSelfUs / 1e3, agg.totalUs / 1e3,
                      static_cast<unsigned long long>(agg.count));
        report.note(buf);
    }
    const double wall = totalMs(kRoot);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "self-time sum %.3f ms vs traced wall %.3f ms (%s)",
                  sum / 1e3, wall,
                  std::fabs(sum / 1e3 - wall) <= 1e-6 * wall + 1e-6
                      ? "adds up"
                      : "DOES NOT add up");
    report.note(buf);
}

LayerMetrics::LayerMetrics()
    : order({
          {"engine.json.parse_ms", "ms/op"},
          {"engine.canonical_ms", "ms/op"},
          {"engine.submit_ms", "ms/op"},
          {"engine.render_ms", "ms/op"},
          {"engine.service.unattributed_ms", "ms/op"},
          {"engine.cache.hit_ratio", "ratio"},
          {"litmus.parse_ms", "ms/op"},
          {"model.expand_ms", "ms/op"},
          {"model.check_ms", "ms/op"},
          {"check.enumerate_ms", "ms/op"},
          {"check.derived_ms", "ms/op"},
          {"model.unattributed_ms", "ms/op"},
          {"checker.rf_assignments", "count/op"},
          {"checker.candidates", "count/op"},
          {"checker.layer.rf_prefix_reject", "count/op"},
          {"checker.layer.co_prefix_reject", "count/op"},
          {"checker.consistent_ratio", "ratio"},
          {"analysis.presolve_ms", "ms/program"},
          {"analysis.presolve.discharge_ratio", "ratio"},
          {"synth.run_ms", "ms/op"},
          {"synth.check_ms", "ms/op"},
          {"synth.unattributed_ms", "ms/op"},
          {"synth.sc_reference_ms", "ms/program"},
          {"synth.enumerated", "count/op"},
          {"synth.unique", "count/op"},
          {"synth.unique_ratio", "ratio"},
          {"conform.parse_ms", "ms/op"},
          {"conform.check_ms", "ms/op"},
          {"conform.unattributed_ms", "ms/op"},
          {"conform.window.peak", "count"},
          {"conform.retired_writes", "count/op"},
          {"obs.traced_wall_ms", "ms/op"},
          {"obs.tracing_overhead_pct", "%"},
          {"obs.nesting_violations", "count"},
      })
{}

void
LayerMetrics::set(const std::string &name, double value)
{
    for (const auto &entry : order) {
        if (entry.first == name) {
            values[name] = value;
            return;
        }
    }
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                 name.c_str());
    std::abort();
}

void
LayerMetrics::emit(Report &report) const
{
    for (const auto &[name, unit] : order) {
        auto it = values.find(name);
        report.metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

void
commonLayers(LayerMetrics &layers, Report &report, const SpanFold &fold,
             double untracedWall, double tracedWall)
{
    const double ops = static_cast<double>(fold.count(SpanFold::kRoot));
    auto perOp = [&](double value) { return ratio(value, ops); };
    layers.set("engine.submit_ms", perOp(fold.totalMs("engine.request")));
    layers.set("model.expand_ms", perOp(fold.totalMs("check.expand")));
    layers.set("model.check_ms", perOp(fold.totalMs("check")));
    layers.set("check.enumerate_ms",
               perOp(fold.totalMs("check.enumerate")));
    layers.set("check.derived_ms", perOp(fold.totalMs("check.derived")));
    for (const char *name :
         {"checker.rf_assignments", "checker.candidates",
          "checker.layer.rf_prefix_reject",
          "checker.layer.co_prefix_reject"})
        layers.set(name, perOp(fold.counter(name)));
    layers.set("checker.consistent_ratio",
               ratio(fold.counter("checker.consistent"),
                     fold.counter("checker.candidates")));
    layers.set("obs.traced_wall_ms", perOp(fold.totalMs(SpanFold::kRoot)));
    layers.set("obs.tracing_overhead_pct",
               100.0 * (ratio(tracedWall, untracedWall) - 1.0));

    const std::vector<std::string> violations = fold.nestingViolations();
    layers.set("obs.nesting_violations", violations.size());
    for (const std::string &v : violations)
        report.note("nesting violation: " + v);
    report.note("traced operations " +
                std::to_string(fold.count(SpanFold::kRoot)));
    fold.selfTimeNotes(report);
}

} // namespace perfbench
