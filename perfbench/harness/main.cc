/**
 * @file
 * mpbench: one process runs one workload of the verdict-cost benchmark
 * and prints its metrics. The last stdout line is a JSON object
 *   {"correct", "attempted", "failed", "metrics"}
 * holding the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1); the lines before it are for people.
 *
 *   mpbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--scratch DIR] [--data DIR] [--write-digests FILE]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hh"
#include "obs/build_info.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "mpbench: %s\nusage: mpbench --workload "
                 "litmus_service|check_large|synth_n4|conform_stream "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--data DIR] [--write-digests FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "--scratch")
                options.scratchDir = value;
            else if (flag == "--data")
                options.dataDir = value;
            else if (flag == "--write-digests")
                options.writeDigests = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    return options;
}

/** JSON number text with every digit the double carries. */
std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);

    Report report;
    try {
        if (options.workload == "litmus_service")
            report = runLitmusService(options);
        else if (options.workload == "check_large")
            report = runCheckLarge(options);
        else if (options.workload == "synth_n4")
            report = runSynthN4(options);
        else if (options.workload == "conform_stream")
            report = runConformStream(options);
        else
            usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mpbench: %s: %s\n", options.workload.c_str(),
                     e.what());
        return 1;
    }
    if (!options.writeDigests.empty())
        return 0;

    const auto &build = mixedproxy::obs::buildInfo();
    std::printf("provenance nproc=%u build_type=%s compiler=\"%s\" "
                "git_sha=%s\n",
                std::thread::hardware_concurrency(),
                build.buildType.c_str(), build.compiler.c_str(),
                build.gitSha.c_str());
    std::printf("workload %s seed %llu seconds %s trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                number(options.seconds).c_str(), options.trace ? 1 : 0);
    for (const std::string &line : report.notes)
        std::printf("  %s\n", line.c_str());
    for (const std::string &line : report.mismatches)
        std::printf("  MISMATCH %s\n", line.c_str());
    if (report.suppressed)
        std::printf("  MISMATCH ... and %zu more\n", report.suppressed);
    std::printf("  failed_ratio %s ratio (%llu failed / %llu attempted)\n",
                number(ratio(report.failed, report.attempted)).c_str(),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const auto &[name, metric] : report.metrics)
        std::printf("  %-34s %s %s\n", name.c_str(),
                    number(metric.first).c_str(), metric.second.c_str());

    std::string json = "{\"correct\": ";
    json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : report.metrics) {
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + number(metric.first) +
                ", \"unit\": \"" + metric.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
