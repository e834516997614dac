/**
 * @file
 * The checker against a naive reference checker written from the
 * definitions, plus the execution-budget contract.
 *
 * The reference enumerates every candidate execution outright — an rf
 * odometer over Program::readSources and, per location, every order of
 * every subset of writes that may be live — and judges each full
 * candidate with model::evaluateCandidate. It shares no enumeration
 * code with the checker: no prefix pruning, no per-location
 * classification, no combinatorial roll-up. It visits candidates in
 * the checker's documented odometer order (read 0 and location 0 are
 * the fastest digits, each location's orders lexicographic), so it
 * also pins the witness contract: one witness per outcome, the first
 * consistent candidate with that outcome.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "model/checker.hh"
#include "synth/generator.hh"

namespace {

using namespace mixedproxy;
using namespace mixedproxy::model;

/** What the reference derives for one program. */
struct Reference
{
    std::set<litmus::Outcome> outcomes;
    std::uint64_t consistent = 0; ///< consistent candidate executions
    /** The first consistent candidate per outcome, in odometer order. */
    std::map<litmus::Outcome, CandidateExecution> first;
};

/**
 * Every coherence order @p loc could have: each order of each subset
 * of its writes that may be live. Only a failed CAS writes nothing, so
 * plain writes are in every subset and the subsets vary over the RMW
 * writes. The orders of one subset come in lexicographic order.
 */
std::vector<std::vector<EventId>>
candidateOrders(const Program &program, LocationId loc)
{
    std::vector<EventId> always, maybe;
    for (EventId w : program.writesAt(loc))
        (program.events()[w].isAtomic() ? maybe : always).push_back(w);
    std::vector<std::vector<EventId>> out;
    for (std::size_t mask = 0; mask < (std::size_t{1} << maybe.size());
         mask++) {
        std::vector<EventId> subset = always;
        for (std::size_t i = 0; i < maybe.size(); i++) {
            if ((mask >> i) & 1)
                subset.push_back(maybe[i]);
        }
        std::sort(subset.begin(), subset.end());
        do {
            out.push_back(subset);
        } while (std::next_permutation(subset.begin(), subset.end()));
    }
    return out;
}

/** Step an odometer, digit 0 fastest; false once it wraps around. */
bool
advance(std::vector<std::size_t> &digits,
        const std::vector<std::size_t> &radix)
{
    for (std::size_t i = 0; i < digits.size(); i++) {
        if (++digits[i] < radix[i])
            return true;
        digits[i] = 0;
    }
    return false;
}

Reference
referenceCheck(const Program &program)
{
    const std::vector<EventId> &reads = program.reads();
    const std::size_t locations = program.locationCount();
    std::vector<std::size_t> rf_radix, co_radix;
    for (EventId r : reads)
        rf_radix.push_back(program.readSources(r).size());
    std::vector<std::vector<std::vector<EventId>>> orders;
    for (std::size_t loc = 0; loc < locations; loc++) {
        orders.push_back(
            candidateOrders(program, static_cast<LocationId>(loc)));
        co_radix.push_back(orders.back().size());
    }

    Reference ref;
    std::vector<std::size_t> rf_digit(reads.size(), 0);
    do {
        CandidateExecution candidate;
        for (std::size_t i = 0; i < reads.size(); i++) {
            candidate.sourceOf[reads[i]] =
                program.readSources(reads[i])[rf_digit[i]];
        }
        std::vector<std::size_t> co_digit(locations, 0);
        do {
            for (std::size_t loc = 0; loc < locations; loc++) {
                candidate.coOrders[static_cast<LocationId>(loc)] =
                    orders[loc][co_digit[loc]];
            }
            if (auto outcome = evaluateCandidate(program, candidate)) {
                ref.consistent++;
                if (ref.outcomes.insert(*outcome).second)
                    ref.first.emplace(*outcome, candidate);
            }
        } while (advance(co_digit, co_radix));
    } while (advance(rf_digit, rf_radix));
    return ref;
}

/** One outcome per line, for readable failure messages. */
std::string
render(const std::set<litmus::Outcome> &outcomes)
{
    std::string out;
    for (const litmus::Outcome &outcome : outcomes)
        out += outcome.toString() + "\n";
    return out;
}

/** Require @p witness to show the rf and co edges of @p candidate. */
void
expectWitnessIs(const Program &program, const CandidateExecution &candidate,
                const Witness &witness, const std::string &ctx)
{
    std::vector<std::pair<EventId, EventId>> rf;
    for (const auto &[read, source] : candidate.sourceOf)
        rf.emplace_back(source, read);
    std::vector<std::pair<EventId, EventId>> got_rf = witness.rfEdges;
    std::sort(rf.begin(), rf.end());
    std::sort(got_rf.begin(), got_rf.end());
    EXPECT_EQ(got_rf, rf) << ctx;

    std::vector<std::pair<EventId, EventId>> co;
    for (const auto &[loc, order] : candidate.coOrders) {
        EventId prev = program.initWrite(loc);
        for (EventId w : order) {
            co.emplace_back(prev, w);
            prev = w;
        }
    }
    EXPECT_EQ(witness.coEdges, co) << ctx;
}

/**
 * Check @p test under @p mode with the checker and the reference and
 * require the same outcome set, the same number of consistent
 * candidates and the reference's first candidate as each witness.
 * Returns true when the program has two or more SC fences (the
 * checker's Fence-SC survivor pass runs).
 */
bool
expectMatchesReference(const litmus::LitmusTest &test, ProxyMode mode)
{
    const std::string ctx = test.name() + "/" + toString(mode);
    const Program program(test, mode);
    CheckOptions opts;
    opts.mode = mode;
    const CheckResult result = Checker(opts).check(program);
    const Reference ref = referenceCheck(program);

    EXPECT_FALSE(result.budgetExceeded) << ctx;
    EXPECT_EQ(render(result.outcomes), render(ref.outcomes)) << ctx;
    EXPECT_EQ(result.stats.consistentExecutions, ref.consistent) << ctx;
    EXPECT_EQ(result.witnesses.size(), ref.first.size()) << ctx;
    for (const auto &[outcome, candidate] : ref.first) {
        auto it = result.witnesses.find(outcome);
        if (it == result.witnesses.end()) {
            ADD_FAILURE() << ctx << ": no witness for "
                          << outcome.toString();
            continue;
        }
        expectWitnessIs(program, candidate, it->second,
                        ctx + " witness for " + outcome.toString());
    }
    return program.scFences().size() >= 2;
}

constexpr ProxyMode kModes[] = {ProxyMode::Ptx75, ProxyMode::Ptx60};

TEST(CheckerReference, MatchesOnTheRegistry)
{
    std::size_t compared = 0, fence_sc = 0;
    for (const std::string &name : litmus::testNames()) {
        for (ProxyMode mode : kModes) {
            fence_sc += expectMatchesReference(litmus::testByName(name),
                                               mode);
            compared++;
        }
    }
    EXPECT_GE(compared, 2 * 96u);
    // The Fence-SC survivor pass runs on the six fence.sc tests.
    EXPECT_GE(fence_sc, 2 * 6u);
}

TEST(CheckerReference, MatchesOnTheCorpusFiles)
{
#ifndef MIXEDPROXY_CORPUS_DIR
#error "MIXEDPROXY_CORPUS_DIR must be defined by the build"
#endif
    std::size_t compared = 0, fence_sc = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(MIXEDPROXY_CORPUS_DIR)) {
        if (entry.path().extension() != ".litmus")
            continue;
        const auto test = litmus::parseTestFile(entry.path().string());
        for (ProxyMode mode : kModes) {
            fence_sc += expectMatchesReference(test, mode);
            compared++;
        }
    }
    EXPECT_GE(compared, 2 * 10u);
    EXPECT_GE(fence_sc, 2 * 1u);
}

TEST(CheckerReference, MatchesOnSynthesizedPrograms)
{
    synth::SynthOptions opts;
    opts.instructions = 3;
    opts.withProxies = true;
    opts.classifyFenceMinimal = false;
    const synth::SynthReport report = synth::Synthesizer(opts).run();
    std::size_t compared = 0;
    for (const synth::SynthesizedTest &entry : report.interesting) {
        for (ProxyMode mode : kModes)
            expectMatchesReference(entry.test, mode);
        compared++;
    }
    EXPECT_GE(compared, 100u);
}

/**
 * The execution budget charges whole rf assignments: a check stops
 * before the assignment whose candidates would pass the budget. Over
 * every budget from 0 to the full candidate count, the flag must read
 * "full count > budget", the charged count must stay within the
 * budget, the partial outcome set must be a subset of the full one,
 * an over-budget check must never pass, and the rejection counters
 * must account for every charged candidate.
 */
TEST(CheckerReference, BudgetSweepStaysWithinTheFullVerdict)
{
    for (const char *name : {"fig9_message_passing", "release_sequence_rmw",
                             "fig2_iriw_fence_sc"}) {
        const auto &test = litmus::testByName(name);
        const CheckResult full = Checker().check(test);
        const std::uint64_t total = full.stats.candidateExecutions;
        ASSERT_FALSE(full.budgetExceeded) << name;
        ASSERT_GT(total, 2u) << name;
        for (std::uint64_t budget = 0; budget <= total; budget++) {
            const std::string ctx =
                std::string(name) + " budget=" + std::to_string(budget);
            CheckOptions opts;
            opts.maxExecutions = budget;
            const CheckResult r = Checker(opts).check(test);
            const CheckStats &s = r.stats;
            EXPECT_EQ(r.budgetExceeded, budget < total) << ctx;
            EXPECT_LE(s.candidateExecutions, budget) << ctx;
            EXPECT_TRUE(std::includes(full.outcomes.begin(),
                                      full.outcomes.end(),
                                      r.outcomes.begin(),
                                      r.outcomes.end()))
                << ctx;
            if (r.budgetExceeded) {
                EXPECT_FALSE(r.allPassed()) << ctx;
            } else {
                EXPECT_EQ(render(r.outcomes), render(full.outcomes))
                    << ctx;
            }
            EXPECT_EQ(s.rejectCausalityB + s.rejectScPerLocation +
                          s.rejectAtomicity + s.rejectFenceSc,
                      s.candidateExecutions - s.consistentExecutions)
                << ctx;
            std::uint64_t depth_sum = 0;
            for (std::uint64_t bucket : s.depthHistogram)
                depth_sum += bucket;
            EXPECT_EQ(depth_sum, s.candidateExecutions) << ctx;
        }
    }
}

} // namespace
