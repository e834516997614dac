/**
 * @file
 * Tests for the exporters: JSON escaping, Chrome trace_event output,
 * the structured stats report, and the --timing table. The two JSON
 * emitters are hand-rolled, so every document is run through the full
 * JSON syntax checker in json_check.hh.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "json_check.hh"
#include "obs/report.hh"

namespace {

using namespace mixedproxy::obs;
using mixedproxy::testjson::JsonValue;
using mixedproxy::testjson::parseJson;

TEST(JsonEscape, EscapesSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("a\x01")), "a\\u0001");
}

TEST(ChromeTrace, EmptyTracerIsValidJson)
{
    Tracer tracer;
    std::string error;
    auto doc = parseJson(chromeTraceJson(tracer), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_TRUE(doc->at("traceEvents").isArray());
    EXPECT_EQ(doc->at("traceEvents").array.size(), 0u);
}

TEST(ChromeTrace, EventsCarryChromeFields)
{
    Tracer tracer;
    tracer.record({"check", 10.0, 250.5, 0});
    tracer.record({"check.derived", 20.0, 100.0, 1});
    std::string error;
    auto doc = parseJson(chromeTraceJson(tracer), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("displayTimeUnit").string, "ms");
    const auto &events = doc->at("traceEvents").array;
    ASSERT_EQ(events.size(), 2u);
    const JsonValue &e = events[0];
    EXPECT_EQ(e.at("name").string, "check");
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("cat").string, "mixedproxy");
    EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);
    EXPECT_DOUBLE_EQ(e.at("tid").number, 0.0);
    EXPECT_NEAR(e.at("ts").number, 10.0, 1e-6);
    EXPECT_NEAR(e.at("dur").number, 250.5, 1e-6);
    EXPECT_NEAR(e.at("args").at("depth").number, 0.0, 1e-9);
    EXPECT_NEAR(events[1].at("args").at("depth").number, 1.0, 1e-9);
}

TEST(ChromeTrace, EscapesEventNames)
{
    Tracer tracer;
    tracer.record({"weird\"name\n", 0.0, 1.0, 0});
    std::string error;
    auto doc = parseJson(chromeTraceJson(tracer), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("traceEvents").array[0].at("name").string,
              "weird\"name\n");
}

TEST(StatsJson, EmptyRegistryIsValidAndComplete)
{
    MetricsRegistry reg;
    std::string error;
    auto doc = parseJson(statsJson(reg), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("schema").string, "mixedproxy.stats.v2");
    EXPECT_TRUE(doc->at("meta").isObject());
    EXPECT_TRUE(doc->at("build").isObject());
    EXPECT_TRUE(doc->at("counters").isObject());
    EXPECT_TRUE(doc->at("gauges").isObject());
    EXPECT_TRUE(doc->at("timers").isObject());
    EXPECT_TRUE(doc->at("enum_profile").isObject());
    for (const char *section :
         {"rejections", "depth_histogram", "branching"}) {
        EXPECT_TRUE(doc->at("enum_profile").at(section).isObject())
            << section;
    }
}

TEST(StatsJson, BuildProvenanceHasAllFields)
{
    MetricsRegistry reg;
    std::string error;
    auto doc = parseJson(statsJson(reg), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue &build = doc->at("build");
    for (const char *key : {"git_sha", "compiler", "build_type"}) {
        ASSERT_TRUE(build.has(key)) << key;
        EXPECT_TRUE(build.at(key).isString()) << key;
        EXPECT_FALSE(build.at(key).string.empty()) << key;
    }
}

TEST(StatsJson, EnumCountersAreLiftedIntoEnumProfile)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 10);
    reg.add("checker.enum.reject.causality_b", 3);
    reg.add("checker.enum.reject.sc_per_location", 2);
    reg.add("checker.enum.depth.2", 5);
    reg.add("checker.enum.depth.overflow", 1);
    reg.add("checker.enum.rf.reads", 2);
    reg.add("checker.enum.co.orders", 6);
    std::string error;
    auto doc = parseJson(statsJson(reg), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const JsonValue &profile = doc->at("enum_profile");
    EXPECT_DOUBLE_EQ(profile.at("rejections").at("causality_b").number,
                     3.0);
    EXPECT_DOUBLE_EQ(
        profile.at("rejections").at("sc_per_location").number, 2.0);
    EXPECT_DOUBLE_EQ(profile.at("depth_histogram").at("2").number, 5.0);
    EXPECT_DOUBLE_EQ(profile.at("depth_histogram").at("overflow").number,
                     1.0);
    EXPECT_DOUBLE_EQ(profile.at("branching").at("rf.reads").number, 2.0);
    EXPECT_DOUBLE_EQ(profile.at("branching").at("co.orders").number,
                     6.0);

    // Lifted counters must not be duplicated in the flat section;
    // everything else stays where it was.
    const JsonValue &counters = doc->at("counters");
    EXPECT_FALSE(counters.has("checker.enum.reject.causality_b"));
    EXPECT_FALSE(counters.has("checker.enum.depth.2"));
    EXPECT_TRUE(counters.has("checker.candidates"));
}

TEST(StatsJson, RendersAllMetricKindsAndMeta)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 64);
    reg.set("sim.mean_latency_cycles", 3.5);
    reg.record("check", 0.002);
    reg.record("check", 0.004);
    std::map<std::string, std::string> meta{{"tool", "nvlitmus"},
                                            {"model", "ptx75"}};
    std::string error;
    auto doc = parseJson(statsJson(reg, meta), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("meta").at("tool").string, "nvlitmus");
    EXPECT_EQ(doc->at("meta").at("model").string, "ptx75");
    EXPECT_DOUBLE_EQ(doc->at("counters").at("checker.candidates").number,
                     64.0);
    EXPECT_NEAR(doc->at("gauges").at("sim.mean_latency_cycles").number,
                3.5, 1e-6);
    const JsonValue &timer = doc->at("timers").at("check");
    ASSERT_TRUE(timer.isObject());
    for (const char *key : {"count", "total_ms", "min_ms", "mean_ms",
                            "p50_ms", "p95_ms", "max_ms"}) {
        EXPECT_TRUE(timer.has(key)) << "missing timer key " << key;
    }
    EXPECT_DOUBLE_EQ(timer.at("count").number, 2.0);
    EXPECT_NEAR(timer.at("total_ms").number, 6.0, 1e-3);
    EXPECT_NEAR(timer.at("min_ms").number, 2.0, 1e-3);
    EXPECT_NEAR(timer.at("max_ms").number, 4.0, 1e-3);
    EXPECT_NEAR(timer.at("mean_ms").number, 3.0, 1e-3);
}

TEST(StatsJson, EscapesMetaAndNames)
{
    MetricsRegistry reg;
    reg.add("odd\"counter", 1);
    std::map<std::string, std::string> meta{{"k\"ey", "v\\alue"}};
    std::string error;
    auto doc = parseJson(statsJson(reg, meta), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->at("meta").at("k\"ey").string, "v\\alue");
    EXPECT_TRUE(doc->at("counters").has("odd\"counter"));
}

TEST(TimingTable, ListsPhasesByTotalDescendingAndCounters)
{
    MetricsRegistry reg;
    reg.record("fast", 0.001);
    reg.record("slow", 0.100);
    reg.add("checker.candidates", 9);
    std::string table = timingTable(reg);
    EXPECT_NE(table.find("phase"), std::string::npos);
    auto slow_pos = table.find("slow");
    auto fast_pos = table.find("fast");
    ASSERT_NE(slow_pos, std::string::npos);
    ASSERT_NE(fast_pos, std::string::npos);
    EXPECT_LT(slow_pos, fast_pos); // sorted by total time, descending
    EXPECT_NE(table.find("checker.candidates"), std::string::npos);
}

TEST(TimingTable, EmptyRegistryExplainsItself)
{
    MetricsRegistry reg;
    EXPECT_NE(timingTable(reg).find("(no phases recorded)"),
              std::string::npos);
}

TEST(ChromeTrace, RequestIdIsAnEventArgument)
{
    Tracer tracer;
    tracer.record({"engine.request", 1.0, 2.0, 0, 3, 42});
    tracer.record({"parse", 1.0, 2.0, 0, 0, 0});
    std::string error;
    auto doc = parseJson(chromeTraceJson(tracer), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto &events = doc->at("traceEvents").array;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NEAR(events[0].at("args").at("request_id").number, 42.0,
                1e-9);
    // Id zero means "not a daemon request" and is omitted entirely.
    EXPECT_FALSE(events[1].at("args").has("request_id"));
}

TEST(EnumProfileTable, RendersEverySection)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 12);
    reg.add("checker.consistent", 4);
    reg.add("checker.enum.reject.causality_b", 5);
    reg.add("checker.enum.reject.no_thin_air", 2);
    reg.add("checker.enum.depth.3", 12);
    reg.add("checker.enum.rf.reads", 3);
    reg.add("checker.enum.rf.source_slots", 9);
    reg.add("checker.enum.co.locations", 2);
    reg.add("checker.enum.co.orders", 4);
    reg.add("checker.fastpath.hits", 6);
    std::string table = enumProfileTable(reg);
    EXPECT_NE(table.find("enumeration profile"), std::string::npos);
    EXPECT_NE(table.find("causality_b"), std::string::npos);
    EXPECT_NE(table.find("no_thin_air"), std::string::npos);
    EXPECT_NE(table.find("depth 3"), std::string::npos);
    EXPECT_NE(table.find("rf sources per read"), std::string::npos);
    EXPECT_NE(table.find("(9/3)"), std::string::npos);
    EXPECT_NE(table.find("co orders per location"), std::string::npos);
    EXPECT_NE(table.find("fastpath hits"), std::string::npos);
}

TEST(Prometheus, RendersAllMetricKindsAndBuildInfo)
{
    MetricsRegistry reg;
    reg.add("checker.candidates", 64);
    reg.set("sim.mean_latency_cycles", 3.5);
    reg.record("check", 0.002);
    std::map<std::string, std::string> meta{{"tool", "nvlitmus"}};
    std::string text = prometheusText(reg, meta);
    EXPECT_NE(text.find("mixedproxy_build_info{"), std::string::npos);
    EXPECT_NE(text.find("git_sha=\""), std::string::npos);
    EXPECT_NE(text.find("tool=\"nvlitmus\""), std::string::npos);
    EXPECT_NE(text.find("mixedproxy_checker_candidates_total 64"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_sim_mean_latency_cycles"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("mixedproxy_check_seconds_count 1"),
              std::string::npos);
    // Every line is either a comment or "name[{labels}] value".
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
}

TEST(Prometheus, SanitizesMetricNames)
{
    MetricsRegistry reg;
    reg.add("weird.name-with/chars", 1);
    std::string text = prometheusText(reg);
    EXPECT_NE(text.find("mixedproxy_weird_name_with_chars_total 1"),
              std::string::npos);
}

} // namespace
