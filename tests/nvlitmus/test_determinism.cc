/**
 * @file
 * End-to-end determinism contract for the batch runtime: for any
 * --jobs N the driver's stdout, exit code, --stats-json aggregates,
 * and synth classification report are identical to the serial run.
 * Only wall-clock readings (timer millisecond fields) are allowed to
 * differ, and the tests normalize exactly those before comparing.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "nvlitmus/driver.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::nvlitmus;

struct RunResult {
    int code = 0;
    std::string out;
    std::string err;
};

RunResult
run(const std::vector<std::string> &args)
{
    std::ostringstream out;
    std::ostringstream err;
    RunResult r;
    r.code = runCli(args, out, err);
    r.out = out.str();
    r.err = err.str();
    return r;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Zero every "<name>_ms": <number> field: wall-clock readings are the
 *  one thing the determinism contract does not cover. */
std::string
zeroWallClock(const std::string &json)
{
    static const std::regex ms_field(
        "(\"[^\"]*_ms\": )[-+0-9.eE]+");
    return std::regex_replace(json, ms_field, "$010");
}

TEST(Determinism, AllTableIsByteIdenticalAcrossJobs)
{
    RunResult serial = run({"--all", "--jobs", "1"});
    RunResult parallel = run({"--all", "--jobs", "4"});
    EXPECT_EQ(serial.code, parallel.code);
    EXPECT_EQ(serial.out, parallel.out);
    EXPECT_EQ(serial.err, parallel.err);
}

TEST(Determinism, PerTestReportsAreByteIdenticalAcrossJobs)
{
    const std::vector<std::string> tests = {
        "fig9_message_passing", "fig8a_alias_fence",
        "fig10_fence_proxy_alias", "fig9_message_passing"};
    std::vector<std::string> serial_args = {"--jobs", "1"};
    std::vector<std::string> parallel_args = {"--jobs", "4"};
    serial_args.insert(serial_args.end(), tests.begin(), tests.end());
    parallel_args.insert(parallel_args.end(), tests.begin(),
                         tests.end());
    RunResult serial = run(serial_args);
    RunResult parallel = run(parallel_args);
    EXPECT_EQ(serial.code, parallel.code);
    EXPECT_EQ(serial.out, parallel.out);
    EXPECT_EQ(serial.err, parallel.err);
}

TEST(Determinism, StatsJsonIsJobsInvariantModuloWallClock)
{
    const auto dir = std::filesystem::temp_directory_path();
    const auto serial_path = dir / "mp_det_stats_j1.json";
    const auto parallel_path = dir / "mp_det_stats_j4.json";
    RunResult serial = run(
        {"--all", "--jobs", "1", "--stats-json", serial_path.string()});
    RunResult parallel = run({"--all", "--jobs", "4", "--stats-json",
                              parallel_path.string()});
    EXPECT_EQ(serial.code, parallel.code);
    EXPECT_EQ(serial.out, parallel.out);

    std::string serial_json = readFile(serial_path);
    std::string parallel_json = readFile(parallel_path);
    std::filesystem::remove(serial_path);
    std::filesystem::remove(parallel_path);
    ASSERT_FALSE(serial_json.empty());
    ASSERT_FALSE(parallel_json.empty());
    // Counters, gauges, timer names, and timer counts must all agree;
    // only the millisecond readings are wall-clock.
    EXPECT_EQ(zeroWallClock(serial_json), zeroWallClock(parallel_json));
}

TEST(Determinism, SynthReportIsByteIdenticalAcrossJobs)
{
    RunResult serial = run({"--synth=2", "--jobs", "1"});
    RunResult parallel = run({"--synth=2", "--jobs", "4"});
    EXPECT_EQ(serial.code, parallel.code);
    EXPECT_EQ(serial.out, parallel.out);
    EXPECT_EQ(serial.err, parallel.err);
}

TEST(Determinism, LintBatchIsByteIdenticalAcrossJobs)
{
    // The lint path mixes clean and dirty built-in tests; per-test
    // diagnostics must come out in input order with the serial text.
    const std::vector<std::string> tests = {
        "fig8a_alias_fence", "fig9_message_passing",
        "fig10_fence_proxy_alias"};
    std::vector<std::string> serial_args = {"--lint-only", "--jobs",
                                            "1"};
    std::vector<std::string> parallel_args = {"--lint-only", "--jobs",
                                              "4"};
    serial_args.insert(serial_args.end(), tests.begin(), tests.end());
    parallel_args.insert(parallel_args.end(), tests.begin(),
                         tests.end());
    RunResult serial = run(serial_args);
    RunResult parallel = run(parallel_args);
    EXPECT_EQ(serial.code, parallel.code);
    EXPECT_EQ(serial.out, parallel.out);
    EXPECT_EQ(serial.err, parallel.err);
}

} // namespace
