/**
 * @file
 * Exporters for the observability session: Chrome trace_event JSON
 * (loadable in chrome://tracing and Perfetto), the structured stats
 * JSON report, and the human-readable per-phase timing table that
 * `nvlitmus --timing` prints.
 *
 * Both JSON emitters are hand-rolled (zero-dependency constraint) and
 * emit complete, parseable documents; tests/obs/ validates them with a
 * full JSON syntax checker.
 */

#ifndef MIXEDPROXY_OBS_REPORT_HH
#define MIXEDPROXY_OBS_REPORT_HH

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mixedproxy::obs {

/** JSON-escape @p text (quotes, backslashes, control characters). */
std::string jsonEscape(std::string_view text);

/**
 * Render @p tracer as Chrome trace_event JSON: an object with a
 * "traceEvents" array of complete ("ph":"X") events, all on pid 0 /
 * tid 0, with timestamps and durations in microseconds. Open in
 * chrome://tracing or https://ui.perfetto.dev.
 */
std::string chromeTraceJson(const Tracer &tracer);

/**
 * Render @p registry as the structured stats report:
 *
 * {
 *   "schema": "mixedproxy.stats.v2",
 *   "meta": { ... @p meta, verbatim ... },
 *   "build": { "git_sha": ..., "compiler": ..., "build_type": ... },
 *   "counters": { "<name>": <uint>, ... },
 *   "gauges": { "<name>": <double>, ... },
 *   "timers": { "<name>": { "count": n, "total_ms": ..., "min_ms": ...,
 *               "mean_ms": ..., "p50_ms": ..., "p95_ms": ...,
 *               "max_ms": ... }, ... },
 *   "conform": { "violations": { "<axiom>": <uint>, ... } },
 *   "enum_profile": { "rejections": {...}, "depth_histogram": {...},
 *                     "branching": {...} }
 * }
 *
 * v2 (ISSUE 8): the "build" provenance object, and the enumeration-
 * profiler counters ("checker.enum.*") lifted out of "counters" into
 * the structured "enum_profile" section — "checker.enum.reject.X"
 * becomes enum_profile.rejections.X, "checker.enum.depth.X" becomes
 * enum_profile.depth_histogram.X, "checker.enum.rf.X" / "co.X" become
 * enum_profile.branching."rf.X" / "co.X". The
 * "conform" section (ISSUE 10) lifts the streaming conformance
 * checker's per-axiom violation counters the same way:
 * "conform.violations.X" becomes conform.violations.X.
 *
 * Metric names are the stable identifiers from docs/observability.md.
 */
std::string statsJson(const MetricsRegistry &registry,
                      const std::map<std::string, std::string> &meta = {});

/**
 * Render the per-phase wall-time table (one row per timer, sorted by
 * total time descending) followed by the counters, for `--timing`.
 */
std::string timingTable(const MetricsRegistry &registry);

/**
 * Render the human enumeration-profiler breakdown (`--profile-enum`'s
 * --timing-style table): per-axiom rejection attribution, the
 * candidate depth histogram, rf/co branching factors and prune
 * attribution (fastpath + presolve).
 */
std::string enumProfileTable(const MetricsRegistry &registry);

/**
 * Render @p registry in the Prometheus text exposition format (v0.0.4)
 * for `--metrics-out`: counters as `mixedproxy_<name>_total`, gauges
 * as `mixedproxy_<name>`, timers as `mixedproxy_<name>_seconds`
 * summaries (quantile 0.5/0.95, _sum, _count), metric names sanitized
 * to [a-zA-Z0-9_]. A `mixedproxy_build_info` gauge carries the build
 * provenance plus @p meta entries as labels.
 */
std::string
prometheusText(const MetricsRegistry &registry,
               const std::map<std::string, std::string> &meta = {});

} // namespace mixedproxy::obs

#endif // MIXEDPROXY_OBS_REPORT_HH
