/**
 * @file
 * End-to-end tests for the driver's observability flags: --stats-json
 * writes a parseable structured report with the documented metric
 * names, --trace-out writes loadable Chrome trace JSON, --timing
 * prints the per-phase table, and unwritable sinks are usage errors.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "json_check.hh"
#include "nvlitmus/driver.hh"
#include "obs/obs.hh"
#include "synth/generator.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::nvlitmus;
using mixedproxy::testjson::JsonValue;
using mixedproxy::testjson::parseJson;

int
run(const std::vector<std::string> &args, std::string *out_text = nullptr,
    std::string *err_text = nullptr)
{
    std::ostringstream out;
    std::ostringstream err;
    int code = runCli(args, out, err);
    if (out_text)
        *out_text = out.str();
    if (err_text)
        *err_text = err.str();
    return code;
}

/** Unique temp path, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &stem)
        : _path(std::filesystem::temp_directory_path() /
                ("mp_obs_test_" + stem))
    {
        std::filesystem::remove(_path);
    }

    ~TempFile() { std::filesystem::remove(_path); }

    const std::filesystem::path &path() const { return _path; }

    std::string contents() const
    {
        std::ifstream in(_path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }

  private:
    std::filesystem::path _path;
};

TEST(DriverObs, StatsJsonHasDocumentedCheckerMetrics)
{
    TempFile stats("stats.json");
    std::string out;
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "fig9_message_passing"},
                  &out),
              0);
    ASSERT_TRUE(std::filesystem::exists(stats.path()));
    std::string error;
    auto doc = parseJson(stats.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("schema").string, "mixedproxy.stats.v2");
    EXPECT_EQ(doc->at("meta").at("tool").string, "nvlitmus");
    EXPECT_EQ(doc->at("meta").at("model").string, "ptx75");
    // The stable checker metric names (docs/observability.md).
    const JsonValue &counters = doc->at("counters");
    for (const char *name :
         {"checker.rf_assignments", "checker.candidates",
          "checker.consistent"}) {
        EXPECT_TRUE(counters.has(name)) << "missing counter " << name;
        EXPECT_GT(counters.at(name).number, 0.0) << name;
    }
    // The layered derived-relation engine only counts *productive*
    // observation-fixpoint passes: zero here (no atomic reads in
    // fig9_message_passing), and always strictly below the number of
    // rf assignments.
    ASSERT_TRUE(counters.has("checker.fixpoint.iterations"));
    EXPECT_LT(counters.at("checker.fixpoint.iterations").number,
              counters.at("checker.rf_assignments").number);
    // The layer counters account the incremental core's delta work.
    for (const char *name :
         {"checker.layer.base_reuse", "checker.layer.rf_delta",
          "checker.layer.rf_prefix_reject",
          "checker.layer.co_prefix_reject"}) {
        EXPECT_TRUE(counters.has(name)) << "missing counter " << name;
    }
    EXPECT_GT(counters.at("checker.layer.base_reuse").number, 0.0);
    // Every rf assignment either hits or misses the single-proxy fast
    // path — the split must account for all of them.
    EXPECT_DOUBLE_EQ(counters.at("checker.fastpath.hits").number +
                         counters.at("checker.fastpath.misses").number,
                     counters.at("checker.rf_assignments").number);
    // Edge totals are collected when the obs session is attached.
    EXPECT_GT(counters.at("checker.edges.cause").number, 0.0);
    // Phase timers exist for the whole check and its inner phases.
    const JsonValue &timers = doc->at("timers");
    for (const char *name :
         {"parse", "check", "check.expand", "check.derived",
          "check.enumerate", "check.assertions"}) {
        ASSERT_TRUE(timers.has(name)) << "missing timer " << name;
        EXPECT_GE(timers.at(name).at("count").number, 1.0) << name;
    }
    // The report on stdout is unaffected by the sink.
    EXPECT_NE(out.find("fig9_message_passing"), std::string::npos);
}

TEST(DriverObs, TraceOutWritesChromeTraceJson)
{
    TempFile trace("trace.json");
    ASSERT_EQ(
        run({"--trace-out=" + trace.path().string(), "fig2_iriw_weak"}),
        0);
    std::string error;
    auto doc = parseJson(trace.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto &events = doc->at("traceEvents").array;
    ASSERT_FALSE(events.empty());
    bool saw_check = false;
    for (const JsonValue &e : events) {
        EXPECT_EQ(e.at("ph").string, "X");
        EXPECT_GE(e.at("ts").number, 0.0);
        EXPECT_GE(e.at("dur").number, 0.0);
        if (e.at("name").string == "check")
            saw_check = true;
    }
    EXPECT_TRUE(saw_check);
}

TEST(DriverObs, TimingPrintsPhaseTableToStderr)
{
    std::string out;
    std::string err;
    ASSERT_EQ(run({"--timing", "fig9_message_passing"}, &out, &err), 0);
    EXPECT_NE(err.find("phase"), std::string::npos);
    EXPECT_NE(err.find("check"), std::string::npos);
    EXPECT_NE(err.find("counters:"), std::string::npos);
    EXPECT_NE(err.find("checker.candidates"), std::string::npos);
    // The table goes to stderr only; stdout keeps the report.
    EXPECT_EQ(out.find("counters:"), std::string::npos);
}

TEST(DriverObs, SimulationAndLintMetricsReachStatsJson)
{
    TempFile stats("sim_stats.json");
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "--simulate=50", "--lint", "fig9_message_passing"}),
              0);
    std::string error;
    auto doc = parseJson(stats.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_GT(doc->at("counters").at("sim.schedules").number, 0.0);
    EXPECT_GT(doc->at("counters").at("analysis.runs").number, 0.0);
    EXPECT_TRUE(doc->at("timers").has("sim"));
    EXPECT_TRUE(doc->at("timers").has("lint"));
}

TEST(DriverObs, UnwritableSinkIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({"--stats-json=/nonexistent_dir_mp/x.json",
                   "fig9_message_passing"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("cannot write"), std::string::npos);
    EXPECT_EQ(
        run({"--trace-out=/nonexistent_dir_mp/x.json", "fig2_iriw_weak"},
            nullptr, &err),
        2);
}

TEST(DriverObs, StatsJsonCarriesEnumProfileAndBuild)
{
    TempFile stats("enum_stats.json");
    ASSERT_EQ(run({"--stats-json=" + stats.path().string(),
                   "fig4_const_alias_nofence"}),
              0);
    std::string error;
    auto doc = parseJson(stats.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_FALSE(doc->at("build").at("git_sha").string.empty());
    const JsonValue &profile = doc->at("enum_profile");
    // The depth histogram covers every examined candidate.
    double depth_sum = 0.0;
    for (const auto &[bucket, value] :
         profile.at("depth_histogram").object) {
        (void)bucket;
        depth_sum += value.number;
    }
    EXPECT_DOUBLE_EQ(
        depth_sum, doc->at("counters").at("checker.candidates").number);
    // Candidate-level rejections account for candidates - consistent.
    double reject_sum = 0.0;
    for (const char *axiom : {"causality_b", "sc_per_location",
                              "atomicity", "fence_sc"}) {
        if (profile.at("rejections").has(axiom))
            reject_sum += profile.at("rejections").at(axiom).number;
    }
    EXPECT_DOUBLE_EQ(
        reject_sum,
        doc->at("counters").at("checker.candidates").number -
            doc->at("counters").at("checker.consistent").number);
    // Branching raw sums are present for presentation-time quotients.
    EXPECT_GT(profile.at("branching").at("rf.reads").number, 0.0);
    EXPECT_GT(profile.at("branching").at("rf.source_slots").number, 0.0);
}

TEST(DriverObs, ProfileEnumPrintsTable)
{
    TempFile stats("profile_stats.json");
    std::string err;
    ASSERT_EQ(run({"--profile-enum",
                   "--stats-json=" + stats.path().string(),
                   "fig9_message_passing"},
                  nullptr, &err),
              0);
    EXPECT_NE(err.find("enumeration profile"), std::string::npos);
    EXPECT_NE(err.find("candidates by rf depth"), std::string::npos);
    // The table prints the counters --stats-json carries.
    std::string error;
    auto doc = parseJson(stats.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    char row[64];
    std::snprintf(row, sizeof(row), "  %-30s %12llu\n", "candidates",
                  static_cast<unsigned long long>(
                      doc->at("counters").at("checker.candidates").number));
    EXPECT_NE(err.find(row), std::string::npos) << err;
    EXPECT_FALSE(doc->at("enum_profile").has("sampled"));
}

/**
 * Spans whose dotted name has a recorded parent ("check.enumerate"
 * under "check") whose total time they exceed. Nested spans on one
 * thread can never do that, so each entry is a span opened outside
 * its parent.
 */
std::vector<std::string>
nestingViolations(const std::map<std::string, double> &totals)
{
    std::vector<std::string> out;
    for (const auto &[name, total] : totals) {
        const std::size_t dot = name.rfind('.');
        if (dot == std::string::npos)
            continue;
        auto parent = totals.find(name.substr(0, dot));
        if (parent != totals.end() && total > parent->second)
            out.push_back(name + " > " + parent->first);
    }
    return out;
}

TEST(DriverObs, SpanTimersNestUnderTheirParents)
{
    // Synthesis checks pre-expanded programs, the other Checker::check
    // overload; both must open the "check" span their check.* spans
    // nest in.
    obs::Session session;
    session.enable();
    synth::SynthOptions opts;
    opts.instructions = 2;
    opts.session = &session;
    synth::Synthesizer(opts).run();
    session.disable();
    std::map<std::string, double> synth_totals;
    for (const std::string &name : session.metrics.timerNames())
        synth_totals[name] = session.metrics.timer(name).total;
    ASSERT_TRUE(synth_totals.count("check.enumerate"));
    EXPECT_EQ(nestingViolations(synth_totals),
              std::vector<std::string>{});

    TempFile stats("nesting_stats.json");
    ASSERT_EQ(run({"--all", "--stats-json=" + stats.path().string()}), 0);
    std::string error;
    auto doc = parseJson(stats.contents(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    std::map<std::string, double> cli_totals;
    for (const auto &[name, timer] : doc->at("timers").object)
        cli_totals[name] = timer.at("total_ms").number;
    ASSERT_TRUE(cli_totals.count("check.enumerate"));
    EXPECT_EQ(nestingViolations(cli_totals), std::vector<std::string>{});
}

TEST(DriverObs, MetricsOutWritesPrometheusText)
{
    TempFile metrics("metrics.prom");
    ASSERT_EQ(run({"--metrics-out=" + metrics.path().string(),
                   "fig9_message_passing"}),
              0);
    std::string text = metrics.contents();
    EXPECT_NE(text.find("mixedproxy_build_info{"), std::string::npos);
    EXPECT_NE(text.find("tool=\"nvlitmus\""), std::string::npos);
    EXPECT_NE(text.find("mixedproxy_checker_candidates_total"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds_count"),
              std::string::npos);

    std::string err;
    EXPECT_EQ(run({"--metrics-out=/nonexistent_dir_mp/x.prom",
                   "fig9_message_passing"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("cannot write"), std::string::npos);
}

TEST(DriverObs, ProfilerCountersAreJobsInvariant)
{
    const std::vector<std::string> inputs = {
        "fig9_message_passing", "fig2_iriw_weak", "fig8a_alias_fence",
        "fig4_const_alias_nofence", "fig8b_constant_nofence"};
    auto countersFor = [&](const std::string &jobs) {
        TempFile stats("jobs" + jobs + "_stats.json");
        std::vector<std::string> args = {
            "--jobs=" + jobs, "--stats-json=" + stats.path().string()};
        args.insert(args.end(), inputs.begin(), inputs.end());
        EXPECT_EQ(run(args), 0);
        std::string error;
        auto doc = parseJson(stats.contents(), &error);
        EXPECT_TRUE(doc.has_value()) << error;
        // Deterministic counters only: any "*_ns" wall-clock counter
        // would differ between runs.
        std::map<std::string, double> flat;
        for (const auto &[name, value] : doc->at("counters").object) {
            if (name.find("_ns") == std::string::npos)
                flat["counters." + name] = value.number;
        }
        for (const auto &[section, members] :
             doc->at("enum_profile").object) {
            for (const auto &[name, value] : members.object) {
                if (name.find("_ns") == std::string::npos)
                    flat[section + "." + name] = value.number;
            }
        }
        return flat;
    };
    auto serial = countersFor("1");
    auto parallel = countersFor("4");
    EXPECT_EQ(serial, parallel);
    EXPECT_GT(serial.at("counters.checker.candidates"), 0.0);
    EXPECT_GT(serial.at("rejections.causality_b"), 0.0);
}

TEST(DriverObs, SessionIsDisabledAgainAfterRun)
{
    ASSERT_EQ(run({"--timing", "fig9_message_passing"}), 0);
    EXPECT_FALSE(obs::enabled());
    // A run without sinks must not enable instrumentation at all.
    obs::globalSession().metrics.clear();
    obs::globalSession().tracer.clear();
    ASSERT_EQ(run({"fig9_message_passing"}), 0);
    EXPECT_TRUE(obs::globalSession().metrics.empty());
    EXPECT_TRUE(obs::globalSession().tracer.empty());
}

} // namespace
