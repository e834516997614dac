/**
 * @file
 * Tests for the streaming conformance checker: conformant traces pass,
 * and each violation class is detected online and attributed to the
 * right axiom.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "conform/checker.hh"
#include "conform/trace.hh"
#include "relation/error.hh"

namespace {

using namespace mixedproxy;
using conform::checkTrace;
using conform::ConformOptions;
using conform::ConformReport;
using conform::TraceHeader;
using conform::TraceLocation;
using conform::TraceThread;
using conform::TraceWriter;
using conform::ViolationKind;
using litmus::ProxyKind;
using litmus::Scope;
using litmus::Semantics;

/** Two threads on one GPU, two zero-initialized locations x and y. */
TraceHeader
mpHeader()
{
    TraceHeader hdr;
    hdr.test = "mp";
    hdr.threads = {TraceThread{"t0", 0, 0}, TraceThread{"t1", 1, 0}};
    hdr.locations = {TraceLocation{"x", 0}, TraceLocation{"y", 0}};
    return hdr;
}

std::uint64_t
kindCount(const ConformReport &report, ViolationKind kind)
{
    return report.stats.byKind[(std::size_t)kind];
}

TEST(StreamChecker, ConformantMessagePassingTrace)
{
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    // t0: st.relaxed x=1; st.release y=1. t1: ld.acquire y=1; ld x=1.
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wx);
    const auto wy = w.store(0, 1, 1, Semantics::Release, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wy);
    w.load(1, 1, 1, wy, Semantics::Acquire, Scope::Gpu,
           ProxyKind::Generic, "r0");
    w.load(1, 0, 1, wx, Semantics::Weak, Scope::None,
           ProxyKind::Generic, "r1");
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 1;
    outcome.registers["t1.r1"] = 1;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 1;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_TRUE(report.conformant()) << report.summary();
    EXPECT_EQ(report.test, "mp");
    EXPECT_TRUE(report.sawFooter);
    ASSERT_TRUE(report.outcome.has_value());
    EXPECT_EQ(*report.outcome, outcome);
    EXPECT_EQ(report.stats.loads, 2u);
    EXPECT_EQ(report.stats.stores, 2u);
    EXPECT_EQ(report.stats.commits, 2u);
}

TEST(StreamChecker, DetectsRfValueMismatch)
{
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wx);
    // The load claims to read wx but reports value 2.
    w.load(1, 0, 2, wx, Semantics::Weak, Scope::None,
           ProxyKind::Generic, "r0");
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 2;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 0;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::RfValue), 1u);
}

TEST(StreamChecker, DetectsCoherenceViolation)
{
    // t1 acquires t0's release of x (so the release happens-before
    // everything t1 does after), then overwrites x — but the trace
    // commits t1's write first: commit order contradicts causality.
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto w1 = w.store(0, 0, 1, Semantics::Release, Scope::Gpu,
                            ProxyKind::Generic);
    w.load(1, 0, 1, w1, Semantics::Acquire, Scope::Gpu,
           ProxyKind::Generic, "r0");
    const auto w2 = w.store(1, 0, 2, Semantics::Relaxed, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(w2);
    w.commit(w1); // w1 causally precedes w2 yet commits after it
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 1;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 0;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::Coherence), 1u)
        << report.summary();
}

TEST(StreamChecker, DetectsCausalityStaleRead)
{
    // Message passing gone wrong: t1 acquires the flag but still reads
    // the initial value of the data location.
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wx);
    const auto wy = w.store(0, 1, 1, Semantics::Release, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wy);
    w.load(1, 1, 1, wy, Semantics::Acquire, Scope::Gpu,
           ProxyKind::Generic, "r0");
    w.load(1, 0, 0, 0, Semantics::Weak, Scope::None,
           ProxyKind::Generic, "r1"); // rf = init write of x (uid 0)
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 1;
    outcome.registers["t1.r1"] = 0;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 1;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::Causality), 1u)
        << report.summary();
}

TEST(StreamChecker, DetectsFenceScCycle)
{
    // Store buffering with SC fences: both threads read the initial
    // values even though both writes committed before either read —
    // the forced SC-fence order is cyclic.
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Sys,
                            ProxyKind::Generic);
    w.commit(wx);
    w.fence(0, Semantics::Sc, Scope::Sys);
    const auto wy = w.store(1, 1, 1, Semantics::Relaxed, Scope::Sys,
                            ProxyKind::Generic);
    w.commit(wy);
    w.fence(1, Semantics::Sc, Scope::Sys);
    w.load(0, 1, 0, 1, Semantics::Relaxed, Scope::Sys,
           ProxyKind::Generic, "r0"); // t0 reads y = init
    w.load(1, 0, 0, 0, Semantics::Relaxed, Scope::Sys,
           ProxyKind::Generic, "r0"); // t1 reads x = init
    litmus::Outcome outcome;
    outcome.registers["t0.r0"] = 0;
    outcome.registers["t1.r0"] = 0;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 1;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::FenceSc), 1u)
        << report.summary();
}

TEST(StreamChecker, StoreBufferingWithoutFencesIsConformant)
{
    // The same store-buffering outcome without fences is allowed.
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Sys,
                            ProxyKind::Generic);
    w.commit(wx);
    const auto wy = w.store(1, 1, 1, Semantics::Relaxed, Scope::Sys,
                            ProxyKind::Generic);
    w.commit(wy);
    w.load(0, 1, 0, 1, Semantics::Relaxed, Scope::Sys,
           ProxyKind::Generic, "r0");
    w.load(1, 0, 0, 0, Semantics::Relaxed, Scope::Sys,
           ProxyKind::Generic, "r0");
    litmus::Outcome outcome;
    outcome.registers["t0.r0"] = 0;
    outcome.registers["t1.r0"] = 0;
    outcome.memory["x"] = 1;
    outcome.memory["y"] = 1;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_TRUE(report.conformant()) << report.summary();
}

TEST(StreamChecker, DetectsAtomicityViolation)
{
    // An RMW reads the init value of x although a morally-strong store
    // commits between its read and its write.
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                            ProxyKind::Generic);
    w.commit(wx);
    w.rmw(1, 0, 5, 0, 0, Semantics::AcqRel, Scope::Gpu, "r0");
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 0;
    outcome.memory["x"] = 5;
    outcome.memory["y"] = 0;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::Atomicity), 1u)
        << report.summary();
}

TEST(StreamChecker, DetectsMalformedTraces)
{
    {
        // rf names a uid that never existed.
        std::stringstream ss;
        TraceWriter w(ss);
        w.header(mpHeader());
        w.load(0, 0, 0, 999, Semantics::Weak, Scope::None,
               ProxyKind::Generic, "r0");
        litmus::Outcome outcome;
        outcome.registers["t0.r0"] = 0;
        outcome.memory["x"] = 0;
        outcome.memory["y"] = 0;
        w.finish(outcome);
        const ConformReport report = checkTrace(ss);
        EXPECT_GE(kindCount(report, ViolationKind::Malformed), 1u);
    }
    {
        // Footer memory disagrees with the last committed write.
        std::stringstream ss;
        TraceWriter w(ss);
        w.header(mpHeader());
        const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                                ProxyKind::Generic);
        w.commit(wx);
        litmus::Outcome outcome;
        outcome.memory["x"] = 42;
        outcome.memory["y"] = 0;
        w.finish(outcome);
        const ConformReport report = checkTrace(ss);
        EXPECT_GE(kindCount(report, ViolationKind::Malformed), 1u);
    }
    {
        // Dropped footer.
        std::stringstream ss;
        TraceWriter w(ss);
        w.header(mpHeader());
        const ConformReport report = checkTrace(ss);
        EXPECT_GE(kindCount(report, ViolationKind::Malformed), 1u);
    }
    {
        // A write committing twice.
        std::stringstream ss;
        TraceWriter w(ss);
        w.header(mpHeader());
        const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Gpu,
                                ProxyKind::Generic);
        w.commit(wx);
        w.commit(wx);
        litmus::Outcome outcome;
        outcome.memory["x"] = 1;
        outcome.memory["y"] = 0;
        w.finish(outcome);
        const ConformReport report = checkTrace(ss);
        EXPECT_GE(kindCount(report, ViolationKind::Malformed), 1u);
    }
}

TEST(StreamChecker, BarrierSynchronizationCreatesOrder)
{
    // Both threads in the same CTA: t0 writes x, both pass a barrier,
    // t1 reads the initial value of x anyway — barrier-induced
    // causality convicts.
    TraceHeader hdr;
    hdr.test = "bar";
    hdr.threads = {TraceThread{"t0", 0, 0}, TraceThread{"t1", 0, 0}};
    hdr.locations = {TraceLocation{"x", 0}};
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(hdr);
    const auto wx = w.store(0, 0, 1, Semantics::Relaxed, Scope::Cta,
                            ProxyKind::Generic);
    w.commit(wx);
    w.barrier(0, 0);
    w.barrier(1, 0);
    w.load(1, 0, 0, 0, Semantics::Weak, Scope::None,
           ProxyKind::Generic, "r0"); // rf = init, but wx hb-before
    litmus::Outcome outcome;
    outcome.registers["t1.r0"] = 0;
    outcome.memory["x"] = 1;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss);
    EXPECT_FALSE(report.conformant());
    EXPECT_EQ(kindCount(report, ViolationKind::Causality), 1u)
        << report.summary();
}

TEST(StreamChecker, WindowedRetirementBoundsMemory)
{
    // Many more writes than the window admits: the checker retires
    // eagerly, stays conformant, and reads of retired writes count as
    // unknown instead of convicting.
    ConformOptions opts;
    opts.window = 8;
    TraceHeader hdr;
    hdr.test = "wide";
    hdr.threads = {TraceThread{"t0", 0, 0}};
    hdr.locations = {TraceLocation{"x", 0}};
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(hdr);
    std::uint64_t firstUid = 0;
    std::uint64_t lastValue = 0;
    for (std::uint64_t i = 0; i < 100; i++) {
        const auto uid =
            w.store(0, 0, i + 1, Semantics::Relaxed, Scope::Gpu,
                    ProxyKind::Generic);
        if (i == 0)
            firstUid = uid;
        w.commit(uid);
        lastValue = i + 1;
    }
    // This rf left the window long ago: unknowable, not a violation.
    w.load(0, 0, 1, firstUid, Semantics::Weak, Scope::None,
           ProxyKind::Generic, "r0");
    litmus::Outcome outcome;
    outcome.registers["t0.r0"] = 1;
    outcome.memory["x"] = lastValue;
    w.finish(outcome);

    const ConformReport report = checkTrace(ss, opts);
    EXPECT_TRUE(report.conformant()) << report.summary();
    EXPECT_EQ(report.stats.rfUnknown, 1u);
    EXPECT_GT(report.stats.retiredWrites, 0u);
    // Live writes never exceeded the window plus the in-flight store.
    EXPECT_LE(report.stats.peakWindow, opts.window + 2);
}

/**
 * Builds fence-SC traces: relaxed, sys-scoped, generic-proxy accesses
 * by threads t0.. (each in its own CTA of GPU 0) to zero-initialized
 * locations m0.., whose init writes have uid = location index. The
 * footer is derived from the last committed store to each location.
 */
class ScTrace
{
  public:
    ScTrace(std::size_t threads, std::size_t locations)
        : writer(ss), memory(locations, 0)
    {
        TraceHeader hdr;
        hdr.test = "fence_sc";
        for (std::size_t t = 0; t < threads; t++)
            hdr.threads.push_back(
                TraceThread{"t" + std::to_string(t), (int)t, 0});
        for (std::size_t l = 0; l < locations; l++)
            hdr.locations.push_back(
                TraceLocation{"m" + std::to_string(l), 0});
        writer.header(hdr);
    }

    /** Store @p value and commit it at once; returns the uid. */
    std::uint64_t
    put(std::size_t t, std::size_t loc, std::uint64_t value)
    {
        const auto uid = writer.store(t, loc, value, Semantics::Relaxed,
                                      Scope::Sys, ProxyKind::Generic);
        writer.commit(uid);
        memory[loc] = value;
        seq += 2;
        return uid;
    }

    void
    get(std::size_t t, std::size_t loc, std::uint64_t value,
        std::uint64_t rf)
    {
        writer.load(t, loc, value, rf, Semantics::Relaxed, Scope::Sys,
                    ProxyKind::Generic, "");
        seq++;
    }

    /** Issue an SC fence; returns its seq. */
    std::uint64_t
    fence(std::size_t t, Scope scope = Scope::Sys)
    {
        writer.fence(t, Semantics::Sc, scope);
        return seq++;
    }

    ConformReport
    check(const ConformOptions &opts = {})
    {
        litmus::Outcome outcome;
        for (std::size_t l = 0; l < memory.size(); l++)
            outcome.memory["m" + std::to_string(l)] = memory[l];
        writer.finish(outcome);
        return checkTrace(ss, opts);
    }

  private:
    std::stringstream ss;
    TraceWriter writer;
    std::vector<std::uint64_t> memory;
    std::uint64_t seq = 0; ///< seq of the next event line
};

/** The report holds exactly one violation, and it is a fence-SC cycle. */
void
expectOneFenceScCycle(const ConformReport &report)
{
    EXPECT_EQ(kindCount(report, ViolationKind::FenceSc), 1u)
        << report.summary();
    EXPECT_EQ(report.stats.totalViolations(), 1u) << report.summary();
}

// One trace per source of forced SC-fence edges. Every edge the checker
// adds when a fence arrives points into that fresh fence, so only the
// read-side "read of an overwritten value" edge can close a cycle; each
// trace below pairs one such closing edge with exactly one edge from
// the rule under test, which no other rule derives.

TEST(FenceScRules, ReadOfOverwrittenValue)
{
    // Store buffering: F0 -> F1 and F1 -> F0, both because a fenced
    // read missed a write that precedes the other thread's fence.
    ScTrace tr(2, 2);
    tr.put(0, 0, 1);
    tr.fence(0);
    tr.put(1, 1, 1);
    tr.fence(1);
    tr.get(0, 1, 0, 1);
    tr.get(1, 0, 0, 0);
    const ConformReport report = tr.check();
    expectOneFenceScCycle(report);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_NE(report.violations[0].detail.find(
                  "read of an overwritten value forces"),
              std::string::npos);
}

TEST(FenceScRules, Communication)
{
    // Message passing: t1 reads a write po-after F0, so F0 -> G; G then
    // reads an initial value that a write po-before F0 overwrote.
    ScTrace tr(2, 2);
    tr.put(0, 0, 1);
    tr.fence(0); // F0
    const auto flag = tr.put(0, 1, 1);
    tr.get(1, 1, 1, flag);
    tr.fence(1); // G: F0 -> G by communication
    tr.get(1, 0, 0, 0);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, ProgramOrder)
{
    // As Communication, but the read of the initial value follows a
    // second fence G2: the cycle F0 -> G1 -> G2 -> F0 needs G1 -> G2.
    ScTrace tr(2, 2);
    tr.put(0, 0, 1);
    tr.fence(0); // F0
    const auto flag = tr.put(0, 1, 1);
    tr.get(1, 1, 1, flag);
    tr.fence(1); // G1
    tr.fence(1); // G2: G1 -> G2 by program order
    tr.get(1, 0, 0, 0);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, CoherenceOrder)
{
    // t1's write to m0 is coherence-after t0's, which is po-after F.
    // G1 is CTA-scoped, so it is not morally strong with F: the commit's
    // communication obligation F -> G1 is dropped and consumed. Only the
    // coherence-order rule, revisiting t1's committed write at G2,
    // forces F -> G2.
    ScTrace tr(2, 2);
    tr.put(0, 1, 1);
    tr.fence(0); // F
    tr.put(0, 0, 1);
    tr.put(1, 0, 2);
    tr.fence(1, Scope::Cta); // G1
    tr.fence(1);             // G2: F -> G2 by coherence order
    tr.get(1, 1, 0, 1);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, ReadBeforeOverwrite)
{
    // t0's fenced read of m0's initial value happens after t1's
    // overwrite committed, so no commit carries the obligation: only
    // the read-before-overwrite rule, visiting t1's write at G, forces
    // F0 -> G.
    ScTrace tr(2, 2);
    tr.put(0, 1, 1);
    tr.put(1, 0, 1);
    tr.fence(0); // F0
    tr.get(0, 0, 0, 0);
    tr.fence(1); // G: F0 -> G by read before overwrite
    tr.get(1, 1, 0, 1);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, ReadBeforeOverwriteAfterAnEarlierFence)
{
    // As ReadBeforeOverwrite, but t1 fences once before t0's read: the
    // read adds an obligation to a write an earlier fence already
    // visited, and G must still pick it up. G0 is CTA-scoped, so the
    // read's own edge F0 -> G0 is not forced and cannot reach G.
    ScTrace tr(2, 2);
    tr.put(0, 1, 1);
    tr.put(1, 0, 1);
    tr.fence(1, Scope::Cta); // G0: nothing owed yet
    tr.fence(0); // F0
    tr.get(0, 0, 0, 0);
    tr.fence(1); // G: F0 -> G by read before overwrite
    tr.get(1, 1, 0, 1);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, CoherenceOrderAcrossAnUnscopedFence)
{
    // As CoherenceOrder, but F -> G1 holds and G2 follows an unscoped
    // SC fence, which no program-order edge chains to G1: G2 is not
    // ordered after G1, so the coherence-order rule must force F -> G2
    // itself.
    ScTrace tr(2, 2);
    tr.put(0, 1, 1);
    tr.fence(0); // F
    tr.put(0, 0, 1);
    tr.put(1, 0, 2);
    tr.fence(1);              // G1: F -> G1
    tr.fence(1, Scope::None); // morally strong with no fence
    tr.fence(1);              // G2: F -> G2 by coherence order
    tr.get(1, 1, 0, 1);
    expectOneFenceScCycle(tr.check());
}

TEST(FenceScRules, FencesAfterAWriteAreCappedAtTheNewest)
{
    // As Communication, with more SC fences after t0's first write: the
    // read of the initial value forces G before each of them, and the
    // cycle needs G -> F1. A write remembers only the newest kCap = 8
    // fences po-after it, so a ninth fence pushes F1 out and the
    // (under-approximating) verdict flips to conformant.
    for (const std::size_t fences : {std::size_t{8}, std::size_t{9}}) {
        ScTrace tr(2, 2);
        tr.put(0, 0, 1);
        tr.fence(0); // F1
        const auto flag = tr.put(0, 1, 1);
        for (std::size_t i = 1; i < fences; i++)
            tr.fence(0);
        tr.get(1, 1, 1, flag);
        tr.fence(1); // G: F1 -> G by communication
        tr.get(1, 0, 0, 0);
        const ConformReport report = tr.check();
        if (fences == 8)
            expectOneFenceScCycle(report);
        else
            EXPECT_TRUE(report.conformant()) << report.summary();
    }
}

/**
 * Three threads each fill a private location and fence @p rounds
 * times, with t0 also writing m4; then t1 reads m4 (the stale value
 * before t0's last write when @p stale) in a read-before-overwrite
 * cycle like FenceScRules.ReadBeforeOverwrite.
 */
ConformReport
checkAfterRetirement(std::size_t window, bool stale)
{
    constexpr std::size_t kRounds = 40;
    ScTrace tr(3, 5);
    std::uint64_t prevM4 = 4;
    std::uint64_t lastM4 = 4;
    for (std::uint64_t r = 1; r <= kRounds; r++) {
        for (std::size_t t = 0; t < 3; t++) {
            const auto uid = tr.put(t, t, r);
            tr.get(t, t, r, uid);
            tr.fence(t);
        }
        prevM4 = lastM4;
        lastM4 = tr.put(0, 4, r);
    }
    tr.put(1, 3, 1);
    tr.fence(0); // F0
    tr.get(0, 3, 0, 3);
    tr.fence(1); // G: F0 -> G by read before overwrite
    if (stale)
        tr.get(1, 4, kRounds - 1, prevM4); // G -> F0: a cycle
    else
        tr.get(1, 4, kRounds, lastM4);
    ConformOptions opts;
    opts.window = window;
    return tr.check(opts);
}

/**
 * Windows for the retirement tests: the smallest allowed, odd and even
 * halvings, and 63/64/65 and 130, whose retirements shift the SC-fence
 * graph across a 64-bit word boundary.
 */
constexpr std::size_t kRetirementWindows[] = {2, 3, 8, 63, 64, 65, 130,
                                              1024};

/** checkAfterRetirement issues this many SC fences. */
constexpr std::size_t kRetirementFences = 122;

TEST(FenceScRules, CycleAfterRetirementRounds)
{
    for (const std::size_t window : kRetirementWindows) {
        SCOPED_TRACE("window " + std::to_string(window));
        const ConformReport report = checkAfterRetirement(window, true);
        expectOneFenceScCycle(report);
        if (window < kRetirementFences) {
            EXPECT_GT(report.stats.retiredFences, 0u);
        } else {
            EXPECT_EQ(report.stats.retiredFences, 0u);
        }
        if (window == 8) {
            EXPECT_GT(report.stats.retiredWrites, 0u);
        }
    }
}

TEST(FenceScRules, ConformantVerdictSameAtSmallAndLargeWindow)
{
    for (const std::size_t window : kRetirementWindows) {
        SCOPED_TRACE("window " + std::to_string(window));
        const ConformReport report = checkAfterRetirement(window, false);
        EXPECT_TRUE(report.conformant()) << report.summary();
        if (window == 8) {
            EXPECT_GT(report.stats.retiredWrites, 0u);
        }
        if (window == 1024) {
            EXPECT_EQ(report.stats.retiredWrites, 0u);
        }
    }
}

TEST(FenceScRules, EdgeBetweenSurvivorsOutlivesRetirement)
{
    // Communication (F0 -> G) with a fence retirement between G's
    // arrival and the read that closes the cycle (G -> F0). t2's
    // fillers make F0 and G the newest of a full window, so the
    // retirement drops only fillers and shifts F0 and G down: the cycle
    // is found only if the SC-fence graph keeps F0 -> G across it.
    // Window 2 keeps one fence, so F0 cannot survive there.
    for (const std::size_t window : kRetirementWindows) {
        if (window == 2)
            continue;
        SCOPED_TRACE("window " + std::to_string(window));
        ScTrace tr(3, 2);
        for (std::size_t i = 0; i + 2 < window; i++)
            tr.fence(2);
        tr.put(0, 0, 1);
        const std::uint64_t f0 = tr.fence(0);
        const auto flag = tr.put(0, 1, 1);
        tr.get(1, 1, 1, flag);
        const std::uint64_t g = tr.fence(1); // F0 -> G by communication
        tr.fence(2); // the window is full: retire the older half
        tr.get(1, 0, 0, 0);
        ConformOptions opts;
        opts.window = window;
        const ConformReport report = tr.check(opts);
        expectOneFenceScCycle(report);
        EXPECT_EQ(report.stats.retiredFences, window / 2);
        ASSERT_EQ(report.violations.size(), 1u);
        EXPECT_EQ(report.violations[0].involved,
                  (std::vector<std::uint64_t>{g, f0}));
    }
}

TEST(FenceScRules, ViolationOrderIsDeterministic)
{
    // Two independent store-buffering cycles (t0/t1 on m0/m1, t2/t3 on
    // m2/m3): two checks print byte-identical summaries.
    const auto summary = [] {
        ScTrace tr(4, 4);
        for (std::size_t pair = 0; pair < 2; pair++) {
            const std::size_t a = 2 * pair, b = a + 1;
            tr.put(a, a, 1);
            tr.fence(a);
            tr.put(b, b, 1);
            tr.fence(b);
        }
        for (std::size_t pair = 0; pair < 2; pair++) {
            const std::size_t a = 2 * pair, b = a + 1;
            tr.get(a, b, 0, b);
            tr.get(b, a, 0, a);
        }
        const ConformReport report = tr.check();
        EXPECT_EQ(kindCount(report, ViolationKind::FenceSc), 2u)
            << report.summary();
        return report.summary();
    };
    EXPECT_EQ(summary(), summary());
}

TEST(StreamChecker, WindowOutsideTheAcceptedRangeIsFatal)
{
    // The window is user input: it is rejected before anything is
    // allocated for it, with a FatalError rather than a panic.
    for (const std::size_t window :
         {std::size_t{0}, std::size_t{1}, conform::kMaxWindow + 1,
          std::size_t{1} << 32}) {
        ConformOptions opts;
        opts.window = window;
        EXPECT_THROW(conform::StreamChecker checker(opts), FatalError)
            << "window " << window;
    }
    ConformOptions opts;
    opts.window = conform::kMinWindow;
    EXPECT_NO_THROW(conform::StreamChecker checker(opts));
}

TEST(StreamChecker, SummaryNamesTestAndVerdict)
{
    std::stringstream ss;
    TraceWriter w(ss);
    w.header(mpHeader());
    litmus::Outcome outcome;
    outcome.memory["x"] = 0;
    outcome.memory["y"] = 0;
    w.finish(outcome);
    const ConformReport report = checkTrace(ss);
    const std::string summary = report.summary();
    EXPECT_NE(summary.find("trace mp"), std::string::npos);
    EXPECT_NE(summary.find("CONFORMANT"), std::string::npos);
}

} // namespace
