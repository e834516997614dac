#include "report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "obs/build_info.hh"

namespace mixedproxy::obs {

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Format a double as JSON (finite, plain decimal). */
std::string
jsonNumber(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    return buf;
}

} // namespace

std::string
chromeTraceJson(const Tracer &tracer)
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &event : tracer.events()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << jsonEscape(event.name)
           << "\",\"cat\":\"mixedproxy\",\"ph\":\"X\",\"pid\":0,"
              "\"tid\":"
           << event.tid << ",\"ts\":" << jsonNumber(event.startUs)
           << ",\"dur\":" << jsonNumber(event.durationUs)
           << ",\"args\":{\"depth\":" << event.depth;
        if (event.requestId != 0)
            os << ",\"request_id\":" << event.requestId;
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

namespace {

/** The "checker.enum." counters are lifted into enum_profile. */
constexpr const char *kEnumPrefix = "checker.enum.";

/** The per-axiom violation counters are lifted into "conform". */
constexpr const char *kConformViolationPrefix = "conform.violations.";

bool
hasPrefix(const std::string &name, const std::string &prefix)
{
    return name.size() >= prefix.size() &&
           name.compare(0, prefix.size(), prefix) == 0;
}

/**
 * Emit one enum_profile subsection: every "checker.enum.<group>.*"
 * counter keyed by its suffix after the group.
 */
void
emitEnumSection(std::ostringstream &os, const MetricsRegistry &registry,
                const char *label, const std::string &group)
{
    const std::string prefix = std::string(kEnumPrefix) + group + ".";
    os << "    \"" << label << "\": {";
    bool first = true;
    for (const auto &[name, value] : registry.counters()) {
        if (!hasPrefix(name, prefix))
            continue;
        os << (first ? "\n" : ",\n") << "      \""
           << jsonEscape(name.substr(prefix.size())) << "\": " << value;
        first = false;
    }
    os << (first ? "" : "\n    ") << "},\n";
}

} // namespace

std::string
statsJson(const MetricsRegistry &registry,
          const std::map<std::string, std::string> &meta)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"mixedproxy.stats.v2\",\n  \"meta\": {";
    bool first = true;
    for (const auto &[key, value] : meta) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(key)
           << "\": \"" << jsonEscape(value) << "\"";
        first = false;
    }
    const BuildInfo &build = buildInfo();
    os << (first ? "" : "\n  ") << "},\n  \"build\": {\n"
       << "    \"git_sha\": \"" << jsonEscape(build.gitSha) << "\",\n"
       << "    \"compiler\": \"" << jsonEscape(build.compiler) << "\",\n"
       << "    \"build_type\": \"" << jsonEscape(build.buildType)
       << "\"\n  },\n  \"counters\": {";
    first = true;
    for (const auto &[name, value] : registry.counters()) {
        if (hasPrefix(name, kEnumPrefix) ||
            hasPrefix(name, kConformViolationPrefix))
            continue; // lifted into enum_profile / conform below
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << value;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : registry.gauges()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << jsonNumber(value);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"timers\": {";
    first = true;
    for (const std::string &name : registry.timerNames()) {
        TimerSummary t = registry.timer(name);
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << t.count
           << ", \"total_ms\": " << jsonNumber(t.total * 1e3)
           << ", \"min_ms\": " << jsonNumber(t.min * 1e3)
           << ", \"mean_ms\": " << jsonNumber(t.mean * 1e3)
           << ", \"p50_ms\": " << jsonNumber(t.p50 * 1e3)
           << ", \"p95_ms\": " << jsonNumber(t.p95 * 1e3)
           << ", \"max_ms\": " << jsonNumber(t.max * 1e3) << "}";
        first = false;
    }
    // Per-axiom violation attribution for the streaming conformance
    // checker (docs/trace_conformance.md): "conform.violations.X"
    // counters keyed by axiom under conform.violations, mirroring how
    // enum_profile lifts the rejection counters.
    os << (first ? "" : "\n  ") << "},\n  \"conform\": {\n"
       << "    \"violations\": {";
    first = true;
    for (const auto &[name, value] : registry.counters()) {
        if (!hasPrefix(name, kConformViolationPrefix))
            continue;
        os << (first ? "\n" : ",\n") << "      \""
           << jsonEscape(
                  name.substr(std::string(kConformViolationPrefix)
                                  .size()))
           << "\": " << value;
        first = false;
    }
    os << (first ? "" : "\n    ") << "}\n  },\n  \"enum_profile\": {\n";
    emitEnumSection(os, registry, "rejections", "reject");
    emitEnumSection(os, registry, "depth_histogram", "depth");
    // Branching spans two counter groups ("rf.*" and "co.*"); emit
    // them with their group-qualified suffixes under one object.
    {
        os << "    \"branching\": {";
        bool bfirst = true;
        for (const auto &[name, value] : registry.counters()) {
            const std::string base(kEnumPrefix);
            if (!hasPrefix(name, base + "rf.") &&
                !hasPrefix(name, base + "co.")) {
                continue;
            }
            os << (bfirst ? "\n" : ",\n") << "      \""
               << jsonEscape(name.substr(base.size()))
               << "\": " << value;
            bfirst = false;
        }
        os << (bfirst ? "" : "\n    ") << "}\n";
    }
    os << "  }\n}\n";
    return os.str();
}

std::string
timingTable(const MetricsRegistry &registry)
{
    std::ostringstream os;
    std::vector<std::pair<std::string, TimerSummary>> rows;
    for (const std::string &name : registry.timerNames())
        rows.emplace_back(name, registry.timer(name));
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.total != b.second.total)
                      return a.second.total > b.second.total;
                  return a.first < b.first;
              });

    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s %12s %12s\n",
                  "phase", "count", "total ms", "mean ms", "p95 ms",
                  "max ms");
    os << line << std::string(88, '-') << "\n";
    for (const auto &[name, t] : rows) {
        std::snprintf(line, sizeof(line),
                      "%-28s %8llu %12.3f %12.4f %12.4f %12.4f\n",
                      name.c_str(),
                      static_cast<unsigned long long>(t.count),
                      t.total * 1e3, t.mean * 1e3, t.p95 * 1e3,
                      t.max * 1e3);
        os << line;
    }
    if (rows.empty())
        os << "(no phases recorded)\n";

    if (!registry.counters().empty()) {
        os << "\ncounters:\n";
        for (const auto &[name, value] : registry.counters()) {
            std::snprintf(line, sizeof(line), "  %-34s %llu\n",
                          name.c_str(),
                          static_cast<unsigned long long>(value));
            os << line;
        }
    }
    return os.str();
}

namespace {

std::uint64_t
counterOr(const MetricsRegistry &registry, const std::string &name)
{
    const auto &counters = registry.counters();
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

} // namespace

std::string
enumProfileTable(const MetricsRegistry &registry)
{
    std::ostringstream os;
    char line[160];
    auto row = [&](const char *name, std::uint64_t value) {
        std::snprintf(line, sizeof(line), "  %-30s %12llu\n", name,
                      static_cast<unsigned long long>(value));
        os << line;
    };

    os << "enumeration profile\n" << std::string(44, '-') << "\n";

    const std::uint64_t candidates =
        counterOr(registry, "checker.candidates");
    const std::uint64_t consistent =
        counterOr(registry, "checker.consistent");
    std::snprintf(line, sizeof(line),
                  "  %-30s %12llu\n  %-30s %12llu\n", "candidates",
                  static_cast<unsigned long long>(candidates),
                  "consistent",
                  static_cast<unsigned long long>(consistent));
    os << line;

    os << "rejections (rf-level, per rf assignment):\n";
    row("no_thin_air",
        counterOr(registry, "checker.enum.reject.no_thin_air"));
    row("value_infeasible",
        counterOr(registry, "checker.enum.reject.value_infeasible"));
    row("causality_a",
        counterOr(registry, "checker.enum.reject.causality_a"));
    row("coherence_unembeddable",
        counterOr(registry,
                  "checker.enum.reject.coherence_unembeddable"));

    os << "rejections (candidate-level, first failing axiom):\n";
    row("causality_b",
        counterOr(registry, "checker.enum.reject.causality_b"));
    row("sc_per_location",
        counterOr(registry, "checker.enum.reject.sc_per_location"));
    row("atomicity",
        counterOr(registry, "checker.enum.reject.atomicity"));
    row("fence_sc", counterOr(registry, "checker.enum.reject.fence_sc"));

    os << "candidates by rf depth:\n";
    for (const auto &[name, value] : registry.counters()) {
        const std::string prefix = "checker.enum.depth.";
        if (name.size() <= prefix.size() ||
            name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        std::string label = "depth " + name.substr(prefix.size());
        std::snprintf(line, sizeof(line), "  %-30s %12llu\n",
                      label.c_str(),
                      static_cast<unsigned long long>(value));
        os << line;
    }

    os << "branching:\n";
    const std::uint64_t reads =
        counterOr(registry, "checker.enum.rf.reads");
    const std::uint64_t slots =
        counterOr(registry, "checker.enum.rf.source_slots");
    const std::uint64_t locs =
        counterOr(registry, "checker.enum.co.locations");
    const std::uint64_t orders =
        counterOr(registry, "checker.enum.co.orders");
    std::snprintf(line, sizeof(line),
                  "  %-30s %12.2f  (%llu/%llu)\n",
                  "rf sources per read",
                  reads ? static_cast<double>(slots) /
                              static_cast<double>(reads)
                        : 0.0,
                  static_cast<unsigned long long>(slots),
                  static_cast<unsigned long long>(reads));
    os << line;
    std::snprintf(line, sizeof(line),
                  "  %-30s %12.2f  (%llu/%llu)\n",
                  "co orders per location",
                  locs ? static_cast<double>(orders) /
                             static_cast<double>(locs)
                       : 0.0,
                  static_cast<unsigned long long>(orders),
                  static_cast<unsigned long long>(locs));
    os << line;

    os << "prune attribution:\n";
    row("fastpath hits", counterOr(registry, "checker.fastpath.hits"));
    row("fastpath misses",
        counterOr(registry, "checker.fastpath.misses"));
    row("presolve discharged",
        counterOr(registry, "check.presolve.discharged"));
    row("presolve inconclusive",
        counterOr(registry, "check.presolve.inconclusive"));

    return os.str();
}

namespace {

/** Prometheus metric-name charset: [a-zA-Z0-9_:]; we use '_' only. */
std::string
promName(const std::string &name)
{
    std::string out = "mixedproxy_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
promLabelValue(const std::string &value)
{
    std::string out;
    for (char c : value) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::string
prometheusText(const MetricsRegistry &registry,
               const std::map<std::string, std::string> &meta)
{
    std::ostringstream os;

    const BuildInfo &build = buildInfo();
    os << "# HELP mixedproxy_build_info Build provenance (constant 1).\n"
       << "# TYPE mixedproxy_build_info gauge\n"
       << "mixedproxy_build_info{git_sha=\""
       << promLabelValue(build.gitSha) << "\",compiler=\""
       << promLabelValue(build.compiler) << "\",build_type=\""
       << promLabelValue(build.buildType) << "\"";
    for (const auto &[key, value] : meta) {
        os << "," << promName(key).substr(std::string("mixedproxy_").size())
           << "=\"" << promLabelValue(value) << "\"";
    }
    os << "} 1\n";

    for (const auto &[name, value] : registry.counters()) {
        const std::string metric = promName(name) + "_total";
        os << "# TYPE " << metric << " counter\n"
           << metric << " " << value << "\n";
    }
    for (const auto &[name, value] : registry.gauges()) {
        const std::string metric = promName(name);
        os << "# TYPE " << metric << " gauge\n"
           << metric << " " << jsonNumber(value) << "\n";
    }
    for (const std::string &name : registry.timerNames()) {
        TimerSummary t = registry.timer(name);
        const std::string metric = promName(name) + "_seconds";
        os << "# TYPE " << metric << " summary\n"
           << metric << "{quantile=\"0.5\"} " << jsonNumber(t.p50)
           << "\n"
           << metric << "{quantile=\"0.95\"} " << jsonNumber(t.p95)
           << "\n"
           << metric << "_sum " << jsonNumber(t.total) << "\n"
           << metric << "_count " << t.count << "\n";
    }
    return os.str();
}

} // namespace mixedproxy::obs
