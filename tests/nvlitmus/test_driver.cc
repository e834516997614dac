/**
 * @file
 * Tests for the NVLitmus front-end: argument parsing, report content,
 * exit codes, and file input.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "nvlitmus/driver.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::nvlitmus;

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

TEST(ParseArgs, Defaults)
{
    auto opts = parseArgs({"foo.litmus"});
    EXPECT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.mode, model::ProxyMode::Ptx75);
    EXPECT_FALSE(opts.simulate);
    EXPECT_FALSE(opts.showWitnesses);
}

TEST(ParseArgs, AllFlags)
{
    auto opts = parseArgs({"--model", "ptx60", "--compare", "--witness",
                           "--simulate=500", "--sim-mode", "coherent",
                           "a", "b"});
    EXPECT_EQ(opts.mode, model::ProxyMode::Ptx60);
    EXPECT_TRUE(opts.compareModels);
    EXPECT_TRUE(opts.showWitnesses);
    EXPECT_TRUE(opts.simulate);
    EXPECT_EQ(opts.simIterations, 500u);
    EXPECT_EQ(opts.simMode, microarch::CoherenceMode::FullyCoherent);
    EXPECT_EQ(opts.inputs.size(), 2u);
}

TEST(ParseArgs, EqualsSyntax)
{
    auto opts = parseArgs({"--model=ptx60", "--sim-mode=fence-reuse"});
    EXPECT_EQ(opts.mode, model::ProxyMode::Ptx60);
    EXPECT_EQ(opts.simMode, microarch::CoherenceMode::FenceReuse);
}

TEST(ParseArgs, Invalid)
{
    EXPECT_THROW(parseArgs({"--model", "ptx99"}), FatalError);
    EXPECT_THROW(parseArgs({"--model"}), FatalError);
    EXPECT_THROW(parseArgs({"--bogus"}), FatalError);
    EXPECT_THROW(parseArgs({"--simulate=abc"}), FatalError);
    EXPECT_THROW(parseArgs({"--sim-mode", "warp"}), FatalError);
}

TEST(ParseArgs, FlagsMatchExactlyNotByPrefix)
{
    // "--modelx ptx75" once parsed as "--model ptx75" (the matcher
    // compared prefixes and then consumed the next argument); any
    // extended spelling must be an error now.
    EXPECT_THROW(parseArgs({"--modelx", "ptx75"}), FatalError);
    EXPECT_THROW(parseArgs({"--simulatex"}), FatalError);
    EXPECT_THROW(parseArgs({"--lintonly"}), FatalError);
    EXPECT_THROW(parseArgs({"--timingx"}), FatalError);
    // Single-dash unknowns are usage errors, not input files...
    EXPECT_THROW(parseArgs({"-x"}), FatalError);
    // ...but a bare "-" still means stdin.
    auto opts = parseArgs({"-"});
    ASSERT_EQ(opts.inputs.size(), 1u);
    EXPECT_EQ(opts.inputs[0], "-");
}

TEST(ParseArgs, JobsFlag)
{
    EXPECT_EQ(parseArgs({"x"}).jobs, 1u);
    EXPECT_EQ(parseArgs({"--jobs", "4", "x"}).jobs, 4u);
    EXPECT_EQ(parseArgs({"--jobs=2", "x"}).jobs, 2u);
    // Invalid values are usage errors, consistent with the strict flag
    // parsing: zero, non-numeric, trailing junk, empty, missing.
    EXPECT_THROW(parseArgs({"--jobs", "0"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs=0"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs", "abc"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs", "4x"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs", "-2"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs="}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobsx", "4"}), FatalError);
}

TEST(Cli, BadJobsIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({"--jobs", "0", "fig9_message_passing"}, nullptr,
                  &err),
              2);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    EXPECT_EQ(run({"--jobs=many", "fig9_message_passing"}, nullptr,
                  &err),
              2);
}

TEST(ParseArgs, ConformWindowRange)
{
    EXPECT_EQ(parseArgs({"--conform-window", "2"}).conformWindow, 2u);
    EXPECT_EQ(parseArgs({"--conform-window=65536"}).conformWindow,
              65536u);
    EXPECT_THROW(parseArgs({"--conform-window", "0"}), FatalError);
    EXPECT_THROW(parseArgs({"--conform-window", "1"}), FatalError);
    EXPECT_THROW(parseArgs({"--conform-window", "65537"}), FatalError);
    EXPECT_THROW(parseArgs({"--conform-window", "4294967296"}),
                 FatalError);
    EXPECT_THROW(parseArgs({"--conform-window", "2x"}), FatalError);
}

TEST(Cli, BadConformWindowIsUsageError)
{
    // The same message the daemon answers a bad "window" with.
    std::string err;
    EXPECT_EQ(run({"--conform-window", "1", "--conform", "t.trace"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("conform window must be between 2 and 65536, "
                       "got 1"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("internal error"), std::string::npos) << err;
}

TEST(ParseArgs, AllRejectsPerTestReportFlags)
{
    // The --all table has one line per test; flags that shape a
    // per-test report are refused instead of silently dropped.
    for (const char *flag :
         {"--witness", "--dot", "--compare", "--lint", "--simulate"}) {
        EXPECT_THROW(parseArgs({"--all", flag}), FatalError) << flag;
        EXPECT_THROW(parseArgs({flag, "--all"}), FatalError) << flag;
        EXPECT_NO_THROW(parseArgs({flag, "fig9_message_passing"}))
            << flag;
    }
    EXPECT_EQ(parseArgs({"--all", "--model", "ptx60"}).mode,
              model::ProxyMode::Ptx60);
    std::string err;
    EXPECT_EQ(run({"--all", "--witness"}, nullptr, &err), 2);
    EXPECT_NE(err.find("--all"), std::string::npos) << err;
    EXPECT_NE(err.find("--witness"), std::string::npos) << err;
}

TEST(Cli, HelpMentionsJobs)
{
    std::string out;
    EXPECT_EQ(run({"--help"}, &out), 0);
    EXPECT_NE(out.find("--jobs"), std::string::npos);
}

TEST(ParseArgs, ObservabilityFlags)
{
    auto opts = parseArgs({"--timing", "--trace-out", "t.json",
                           "--stats-json=s.json", "fig2_iriw_weak"});
    EXPECT_TRUE(opts.timing);
    EXPECT_EQ(opts.traceOut, "t.json");
    EXPECT_EQ(opts.statsJsonOut, "s.json");
    EXPECT_THROW(parseArgs({"--trace-out"}), FatalError);
    EXPECT_THROW(parseArgs({"--stats-json"}), FatalError);
}

TEST(ParseArgs, ProfileEnumFlag)
{
    EXPECT_FALSE(parseArgs({"x"}).enumProfileTable);
    EXPECT_TRUE(parseArgs({"--profile-enum", "x"}).enumProfileTable);
    // A bare flag only: no sampling period.
    EXPECT_THROW(parseArgs({"--profile-enum=8"}), FatalError);
    EXPECT_THROW(parseArgs({"--profile-enum="}), FatalError);
    EXPECT_THROW(parseArgs({"--profile-enumx"}), FatalError);
}

TEST(ParseArgs, MetricsOutAndLogJsonFlags)
{
    auto opts = parseArgs({"--metrics-out", "m.prom", "x"});
    EXPECT_EQ(opts.metricsOut, "m.prom");
    opts = parseArgs({"--metrics-out=m2.prom", "x"});
    EXPECT_EQ(opts.metricsOut, "m2.prom");
    EXPECT_THROW(parseArgs({"--metrics-out"}), FatalError);

    opts = parseArgs({"--serve", "--log-json=log.jsonl"});
    EXPECT_EQ(opts.logJsonOut, "log.jsonl");
    EXPECT_THROW(parseArgs({"--log-json"}), FatalError);
}

TEST(Cli, LogJsonWithoutServeIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({"--log-json=log.jsonl", "fig9_message_passing"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("--log-json requires --serve"),
              std::string::npos);
}

TEST(Cli, HelpMentionsObservabilityFlags)
{
    std::string out;
    EXPECT_EQ(run({"--help"}, &out), 0);
    for (const char *flag : {"--profile-enum", "--metrics-out",
                             "--log-json", "--timing", "--stats-json"}) {
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
    }
}

TEST(Cli, HelpAndList)
{
    std::string out;
    EXPECT_EQ(run({"--help"}, &out), 0);
    EXPECT_NE(out.find("usage"), std::string::npos);

    EXPECT_EQ(run({"--list"}, &out), 0);
    EXPECT_NE(out.find("fig8a_alias_fence"), std::string::npos);
    EXPECT_NE(out.find("fig9_message_passing"), std::string::npos);
}

TEST(Cli, NoInputsIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({}, nullptr, &err), 2);
    EXPECT_NE(err.find("no inputs"), std::string::npos);
}

TEST(Cli, UnknownFlagIsUsageError)
{
    std::string err;
    EXPECT_EQ(run({"--frobnicate"}, nullptr, &err), 2);
    // --profile-enum is a bare flag: a sampling period is unknown.
    EXPECT_EQ(run({"--profile-enum=4", "fig9_message_passing"}, nullptr,
                  &err),
              2);
}

TEST(Cli, BuiltinTestByName)
{
    std::string out;
    EXPECT_EQ(run({"fig8a_alias_fence"}, &out), 0);
    EXPECT_NE(out.find("PASS"), std::string::npos);
    EXPECT_NE(out.find("allowed: t0.r3=42"), std::string::npos);
}

TEST(Cli, MissingFileIsError)
{
    std::string err;
    EXPECT_EQ(run({"/nonexistent/x.litmus"}, nullptr, &err), 2);
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(Cli, FileInput)
{
    const char *path = "nvlitmus_test_tmp.litmus";
    {
        std::ofstream file(path);
        file << "name: from_file\n"
                "thread t0:\n"
                "  st.global.u32 [x], 1\n"
                "  ld.global.u32 r1, [x]\n"
                "require: t0.r1 == 1\n";
    }
    std::string out;
    EXPECT_EQ(run({path}, &out), 0);
    EXPECT_NE(out.find("from_file"), std::string::npos);
    std::remove(path);
}

TEST(Cli, FailingAssertionExitsOne)
{
    const char *path = "nvlitmus_fail_tmp.litmus";
    {
        std::ofstream file(path);
        file << "name: failing\n"
                "thread t0:\n"
                "  ld.global.u32 r1, [x]\n"
                "forbid: t0.r1 == 0\n";
    }
    std::string out;
    EXPECT_EQ(run({path}, &out), 1);
    EXPECT_NE(out.find("FAIL"), std::string::npos);
    std::remove(path);
}

TEST(Cli, CompareShowsProxyDelta)
{
    std::string out;
    EXPECT_EQ(run({"--compare", "fig4_const_alias_nofence"}, &out), 0);
    EXPECT_NE(out.find("only ptx75"), std::string::npos);
}

TEST(Cli, CompareIdenticalOnProxyFreeTest)
{
    std::string out;
    EXPECT_EQ(run({"--compare", "sb_relaxed"}, &out), 0);
    EXPECT_NE(out.find("identical outcome sets"), std::string::npos);
}

TEST(Cli, WitnessOutput)
{
    std::string out;
    EXPECT_EQ(run({"--witness", "fig8a_alias_fence"}, &out), 0);
    EXPECT_NE(out.find("witness for"), std::string::npos);
    EXPECT_NE(out.find("rf"), std::string::npos);
}

TEST(Cli, DotOutput)
{
    std::string out;
    EXPECT_EQ(run({"--dot", "fig9_message_passing"}, &out), 0);
    EXPECT_NE(out.find("digraph"), std::string::npos);
    EXPECT_NE(out.find("label=\"rf\""), std::string::npos);
    EXPECT_NE(out.find("subgraph cluster_"), std::string::npos);
    // Synchronized outcome carries an sw edge.
    EXPECT_NE(out.find("label=\"sw\""), std::string::npos);
}

TEST(Cli, SimulateCrossChecks)
{
    std::string out;
    EXPECT_EQ(run({"--simulate=200", "fig4_const_alias_nofence"}, &out),
              0);
    EXPECT_NE(out.find("schedules"), std::string::npos);
    EXPECT_EQ(out.find("WARNING"), std::string::npos) << out;
}

TEST(Cli, AllRunsEveryBuiltin)
{
    std::string out;
    EXPECT_EQ(run({"--all"}, &out), 0);
    EXPECT_NE(out.find("PASS  fig8a_alias_fence"), std::string::npos);
    EXPECT_EQ(out.find("FAIL"), std::string::npos);
}

TEST(ParseArgs, SynthFlag)
{
    EXPECT_EQ(parseArgs({"--synth=3"}).synthInstructions, 3u);
    EXPECT_THROW(parseArgs({"--synth"}), FatalError);
    EXPECT_THROW(parseArgs({"--synth=abc"}), FatalError);
    EXPECT_THROW(parseArgs({"--synth=0"}), FatalError);
    EXPECT_THROW(parseArgs({"--synth=9"}), FatalError);
}

TEST(Cli, SynthReportsProxySensitiveTests)
{
    std::string out;
    EXPECT_EQ(run({"--synth=2"}, &out), 0);
    EXPECT_NE(out.find("proxy-sensitive"), std::string::npos);
    EXPECT_NE(out.find("ld.const"), std::string::npos) << out;
}

TEST(Cli, ShrinkMinimizesInput)
{
    std::string out;
    EXPECT_EQ(run({"--shrink", "t0.r1 == 0 && [global_ptr] == 42",
                   "fig4_const_alias_generic_fence"},
                  &out),
              0);
    EXPECT_NE(out.find("shrunk from 3 to 2 instructions"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("ld.const"), std::string::npos);
    EXPECT_EQ(out.find("fence.acq_rel"), std::string::npos) << out;
}

TEST(Cli, ShrinkRejectsUnsatisfiableCondition)
{
    std::string err;
    EXPECT_EQ(run({"--shrink", "t0.r1 == 99", "fig8a_alias_fence"},
                  nullptr, &err),
              2);
    EXPECT_NE(err.find("does not hold"), std::string::npos);
}

TEST(Cli, SynthOutWritesSuite)
{
    std::string out;
    EXPECT_EQ(run({"--synth=2", "--synth-out=cli_suite_tmp"}, &out), 0);
    EXPECT_NE(out.find("wrote"), std::string::npos);
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("cli_suite_tmp")) {
        (void)entry;
        files++;
    }
    EXPECT_GT(files, 0u);
    std::filesystem::remove_all("cli_suite_tmp");
}

TEST(ParseArgs, LintFlags)
{
    auto opts = parseArgs({"--lint", "a"});
    EXPECT_TRUE(opts.lint);
    EXPECT_FALSE(opts.lintOnly);
    opts = parseArgs({"--lint-only", "a"});
    EXPECT_TRUE(opts.lintOnly);
}

TEST(Cli, LintAppendsFindingsToReport)
{
    // The built-in Fig. 4 reproduction with only a generic fence is a
    // mixed-proxy race; --lint must surface it alongside the verdicts.
    std::string out;
    EXPECT_EQ(run({"--lint", "fig4_const_alias_generic_fence"}, &out),
              0);
    EXPECT_NE(out.find("outcome(s)"), std::string::npos) << out;
    EXPECT_NE(out.find("mixed-proxy-race"), std::string::npos) << out;
    EXPECT_NE(out.find("hint: insert fence.proxy.constant"),
              std::string::npos)
        << out;
}

TEST(Cli, LintOnlyExitCodes)
{
    // Racy input: findings, exit 1, and no exhaustive-checker output.
    std::string out;
    EXPECT_EQ(run({"--lint-only", "fig4_const_alias_nofence"}, &out), 1);
    EXPECT_NE(out.find("mixed-proxy-race"), std::string::npos) << out;
    EXPECT_EQ(out.find("outcomes"), std::string::npos) << out;

    // Properly fenced input: clean, exit 0.
    out.clear();
    EXPECT_EQ(run({"--lint-only", "fig4_const_alias_proxy_fence"}, &out),
              0);
    EXPECT_NE(out.find("0 error(s), 0 warning(s)"), std::string::npos)
        << out;
}

TEST(Cli, Ptx60ModeChangesVerdicts)
{
    // Under the proxy-oblivious model the Fig. 4 no-fence test's
    // "permit stale" assertion fails: PTX 6.0 cannot see the race.
    std::string out;
    EXPECT_EQ(run({"--model", "ptx60", "fig4_const_alias_nofence"},
                  &out),
              1);
    EXPECT_NE(out.find("FAIL"), std::string::npos);
}

} // namespace
