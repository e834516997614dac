/**
 * @file
 * Shared pieces of the verdict-cost benchmark harness: the seeded
 * random source, the run report every workload fills in, latency
 * percentiles, set-up timing, and the fold that turns an obs::Session's
 * spans and counters into per-layer numbers.
 *
 * The harness reaches the product only through its public functions;
 * every span it adds is opened here, around those calls.
 */

#ifndef MIXEDPROXY_PERFBENCH_BENCH_HH
#define MIXEDPROXY_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** splitmix64: small, fast, and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [lo, hi]. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; i--)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    std::uint64_t state;
};

/** FNV-1a 64 over @p text, continuing from @p hash. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t value);

/** What one invocation of the harness was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratchDir = "."; ///< where temporary inputs go
    std::string dataDir = ".";    ///< the benchmark's checked-in data
    std::string writeDigests;     ///< check_large: regenerate the table
};

/** The result of one workload run, printed by main(). */
class Report
{
  public:
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    /** A gate mismatch or failed operation; keeps the first few. */
    void
    mismatch(const std::string &what)
    {
        if (mismatches.size() < 8)
            mismatches.push_back(what);
        else
            suppressed++;
    }

    /** A free-form line for the human-readable part of the output. */
    void note(const std::string &line) { notes.push_back(line); }

    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> mismatches;
    std::size_t suppressed = 0;
    std::vector<std::string> notes;
};

/**
 * The operations of a closed-loop client: their latencies, and the
 * litmus programs and events they gave a verdict on, grouped into the
 * rate slices the workload ends with endSlice(). Its memory does not
 * grow with the number of operations, so a faster program does not
 * read as one that needs more memory.
 */
class Latencies
{
  public:
    /** One rate slice: its operations' work and busy time. */
    struct Slice
    {
        std::size_t ops = 0;
        double seconds = 0.0;
        double programs = 0.0;
        double events = 0.0;
    };

    Latencies();

    void add(double seconds, double programs, double events);

    /** End the current rate slice (a pass, an episode, an operation). */
    void endSlice();

    /** The slices, with the current one if it holds any operation. */
    std::vector<Slice> slices() const;

    std::size_t count() const { return ops; }

    /**
     * Nearest-rank latency quantile, in milliseconds: the mean of the
     * latencies in the histogram bucket that holds the rank, so within
     * one bucket width (under 0.8%) of the exact one.
     */
    double quantileMs(double q) const;

    double busy = 0.0; ///< sum of latencies, in seconds

  private:
    /// Buckets per power of two, and the powers covered from 2^kMinExp s.
    static constexpr int kSubBuckets = 128;
    static constexpr int kMinExp = -30;
    static constexpr int kOctaves = 40;

    static std::size_t bucket(double seconds);

    std::size_t ops = 0;
    std::vector<std::uint64_t> counts; ///< per bucket
    std::vector<double> sums;          ///< per bucket, seconds
    std::vector<Slice> closed;
    Slice open;
};

/**
 * Set-up repetitions per run: at least kSetupMinRepeats, and more
 * (up to kSetupMaxRepeats) until they have taken kSetupMinSeconds, so
 * a short set-up's median rests on enough samples to be steady.
 */
inline constexpr std::size_t kSetupMinRepeats = 5;
inline constexpr std::size_t kSetupMaxRepeats = 31;
inline constexpr double kSetupMinSeconds = 1.0;

/**
 * Run @p setup kSetupMinRepeats or more times, as above, and return
 * the median wall time in seconds. Each repetition rebuilds the inputs
 * from scratch; the last one's are what the measurement uses.
 */
template <typename F>
double
timedSetup(F &&setup)
{
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.size() < kSetupMinRepeats ||
           (times.size() < kSetupMaxRepeats &&
            secondsSince(start) < kSetupMinSeconds)) {
        const auto begin = Clock::now();
        setup();
        times.push_back(secondsSince(begin));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/**
 * The end-to-end metrics every workload reports, from one untraced
 * closed-loop measurement. Rates are the median over the latency's
 * slices of each slice's work over its busy time, so a burst of load
 * from outside the benchmark moves a few slices, not the result.
 */
void endToEnd(Report &report, double setupSeconds, const Latencies &latency);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * Aggregates spans and counters out of an obs::Session. Call fold()
 * whenever no span is open; it consumes what the session recorded so
 * far, so a long traced run keeps bounded memory.
 */
class SpanFold
{
  public:
    /** Name of the harness span wrapping each top-level call. */
    static constexpr const char *kRoot = "bench.op";

    void fold(mixedproxy::obs::Session &session);

    /** Inclusive time of every span named @p name, in ms. */
    double totalMs(const std::string &name) const;

    std::uint64_t counter(const std::string &name) const;

    /** Number of spans named @p name. */
    std::uint64_t count(const std::string &name) const;
    double gaugeMax(const std::string &name) const;

    /**
     * Spans named "a.b" whose total exceeds that of their name parent
     * "a", as "child > parent" descriptions.
     */
    std::vector<std::string> nestingViolations() const;

    /**
     * Report the self-time table under the root spans and check that
     * it sums to the traced wall time (sum of kRoot spans).
     */
    void selfTimeNotes(Report &report) const;

  private:
    struct Agg
    {
        double totalUs = 0.0;
        std::uint64_t count = 0;
        /// Time of instances under kRoot not covered by a child span.
        double rootSelfUs = 0.0;
        bool underRoot = false; ///< some instance ran under kRoot
    };
    std::map<std::string, Agg, std::less<>> spans;
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
};

/**
 * The per-layer metrics every traced run reports, in the order
 * BENCHMARK.json lists them; each workload fills the ones its layers
 * reach and the rest read 0.
 */
class LayerMetrics
{
  public:
    LayerMetrics();

    void set(const std::string &name, double value);

    /** Emit every metric into @p report. */
    void emit(Report &report) const;

  private:
    std::vector<std::pair<std::string, std::string>> order; ///< name, unit
    std::map<std::string, double> values;
};

/**
 * Fill the span-derived metrics shared by all workloads: model.*,
 * check.*, checker.* counters, engine.submit_ms, the tracing overhead
 * (traced against untraced wall over the same operations), and the
 * nesting-violation count (listed in the notes).
 */
void commonLayers(LayerMetrics &layers, Report &report,
                  const SpanFold &fold, double untracedWall,
                  double tracedWall);

/** A ratio that reads 0 rather than NaN when the base is 0. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// Workload entry points (one translation unit each).
Report runLitmusService(const Options &options);
Report runCheckLarge(const Options &options);
Report runSynthN4(const Options &options);
Report runConformStream(const Options &options);

} // namespace perfbench

#endif // MIXEDPROXY_PERFBENCH_BENCH_HH
