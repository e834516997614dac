/**
 * @file
 * Streaming trace-conformance checker.
 *
 * Consumes a `mixedproxy.trace.v1` stream (src/conform/trace.hh) one
 * event at a time and checks, online, that the concrete execution is
 * consistent with the mixed-proxy PTX memory model's per-execution
 * axioms: coherence (the observed commit order must not contradict
 * causality), causality (no load may observe a write that causality
 * proves stale), atomicity (no morally-strong write may intervene
 * between an RMW's read and its write), and fence-SC (the SC-fence
 * order forced by causality and communication must be acyclic). Value
 * integrity (a load's value must equal its rf-source's value) and
 * schema/footer integrity are checked as well.
 *
 * The checker is windowed: it keeps O(window) live writes per location
 * and O(window) live SC fences, retiring the oldest as the trace
 * advances, so a million-event trace checks in bounded memory.
 * Coherence order needs no graph: each location keeps its live writes
 * in commit order, and a write's commit number is its position. The
 * one graph is the global forced SC-fence order, a transitively closed
 * window x window relation::Relation over live fence ids, shifted down
 * when the older half of the fences retires. A commit costs O(1) in
 * the window and an SC fence visits only its own thread's live
 * committed writes (docs/trace_conformance.md has the cost model).
 *
 * Soundness stance: every rule is an *under*-approximation of the
 * model's causality relation (vector clocks built from program order,
 * morally-strong same-proxy release/acquire synchronization, and CTA
 * execution barriers; fence- and proxy-fence-induced ordering is
 * deliberately omitted). A reported violation therefore witnesses a
 * genuine axiom violation; a pass does not prove conformance. Windowing
 * adds the usual caveat that evidence older than the window cannot
 * convict (reads-from a retired write is counted, not flagged).
 */

#ifndef MIXEDPROXY_CONFORM_CHECKER_HH
#define MIXEDPROXY_CONFORM_CHECKER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "conform/trace.hh"
#include "litmus/outcome.hh"
#include "relation/relation.hh"

namespace mixedproxy::conform {

/** Smallest accepted ConformOptions::window. */
inline constexpr std::size_t kMinWindow = 2;

/**
 * Largest accepted ConformOptions::window. The SC-fence graph is a
 * window x window bit-matrix, so this caps it at 512 MiB.
 */
inline constexpr std::size_t kMaxWindow = 65536;

/** Tuning knobs for one streaming check. */
struct ConformOptions
{
    /**
     * Live-window capacity: committed writes kept per location and SC
     * fences kept globally, kMinWindow..kMaxWindow. Smaller windows use
     * less memory but let older evidence escape.
     */
    std::size_t window = 1024;

    /** Violations retained with full detail (counters see all). */
    std::size_t maxViolations = 16;
};

/** The axiom (or integrity rule) one violation convicts. */
enum class ViolationKind {
    Malformed,  ///< schema, uid, or footer integrity failure
    RfValue,    ///< load observed a value its rf-source never wrote
    Coherence,  ///< commit order contradicts causality
    Causality,  ///< load observed a write causality proves stale
    Atomicity,  ///< morally-strong write between an RMW's read and write
    FenceSc,    ///< forced SC-fence order is cyclic
};

/** Number of ViolationKind values (for attribution tables). */
inline constexpr std::size_t kViolationKinds = 6;

std::string toString(ViolationKind kind);

/** One detected violation, anchored to the offending event. */
struct Violation
{
    ViolationKind kind = ViolationKind::Malformed;
    std::uint64_t seq = 0;      ///< seq of the event that convicted
    std::string detail;         ///< human-readable explanation
    std::vector<std::uint64_t> involved; ///< seqs of implicated events
};

/** Counters for one streaming check (mirrors obs conform.* names). */
struct ConformStats
{
    std::uint64_t events = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t commits = 0;
    std::uint64_t rmws = 0;
    std::uint64_t fences = 0;
    std::uint64_t barriers = 0;
    std::uint64_t rfUnknown = 0;      ///< rf named a retired write
    std::uint64_t retiredWrites = 0;  ///< writes retired from windows
    std::uint64_t retiredFences = 0;  ///< SC fences retired
    std::uint64_t scEdgesAdded = 0;     ///< forced SC edges inserted
    std::uint64_t scEdgesRedundant = 0; ///< forced SC edges already known
    std::size_t peakWindow = 0;       ///< max live writes at once
    /** Violations by kind, indexed by (size_t)ViolationKind. */
    std::array<std::uint64_t, kViolationKinds> byKind{};

    std::uint64_t
    totalViolations() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t n : byKind)
            total += n;
        return total;
    }
};

/** The result of checking one trace. */
struct ConformReport
{
    std::string test;
    bool sawFooter = false;
    /** Final state from the footer, when one was present. */
    std::optional<litmus::Outcome> outcome;
    /** First maxViolations violations, in detection order. */
    std::vector<Violation> violations;
    ConformStats stats;

    bool
    conformant() const
    {
        return stats.totalViolations() == 0;
    }

    /** Multi-line human-readable summary (stable across runs). */
    std::string summary() const;
};

/** Throw FatalError unless @p window is in kMinWindow..kMaxWindow. */
void checkWindow(std::size_t window);

/**
 * The streaming checker: feed begin(), then event() per line, then
 * footer() if present, then take the report with finish().
 * checkTrace() drives the whole pipeline from a stream.
 */
class StreamChecker
{
  public:
    /** Throws FatalError for a window outside the accepted range. */
    explicit StreamChecker(ConformOptions opts = {});
    ~StreamChecker();

    StreamChecker(const StreamChecker &) = delete;
    StreamChecker &operator=(const StreamChecker &) = delete;

    /** Install the header; resets all state. */
    void begin(const TraceHeader &header);

    /** Ingest one event line. */
    void event(const TraceEvent &ev);

    /** Ingest the footer (final registers and memory). */
    void footer(const TraceFooter &footer);

    /**
     * Record a malformed line the reader could not parse (keeps the
     * stream checkable past corruption).
     */
    void malformedLine(std::uint64_t lineNumber, const std::string &why);

    /**
     * Finalize and return the report. Publishes conform.* counters and
     * the conform.window.peak gauge to the active obs session.
     */
    ConformReport finish();

  private:
    struct Impl;
    Impl *impl;
};

/** Check a whole trace stream. */
ConformReport checkTrace(std::istream &in,
                         const ConformOptions &opts = {});

/** Check a trace file by path; throws FatalError if unreadable. */
ConformReport checkTraceFile(const std::string &path,
                             const ConformOptions &opts = {});

} // namespace mixedproxy::conform

#endif // MIXEDPROXY_CONFORM_CHECKER_HH
