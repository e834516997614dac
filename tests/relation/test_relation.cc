/**
 * @file
 * Unit tests for relation::Relation, including property-style sweeps of
 * the closure and composition operators.
 */

#include <algorithm>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "relation/error.hh"
#include "relation/relation.hh"

namespace {

using mixedproxy::PanicError;
using mixedproxy::relation::EventId;
using mixedproxy::relation::EventSet;
using mixedproxy::relation::forEachTotalOrderVisit;
using mixedproxy::relation::Relation;

TEST(Relation, EmptyOnConstruction)
{
    Relation r(5);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.pairCount(), 0u);
    EXPECT_TRUE(r.irreflexive());
    EXPECT_TRUE(r.acyclic());
    EXPECT_TRUE(r.transitive());
}

TEST(Relation, InsertContainsErase)
{
    Relation r(70);
    r.insert(0, 69);
    r.insert(69, 0);
    EXPECT_TRUE(r.contains(0, 69));
    EXPECT_TRUE(r.contains(69, 0));
    EXPECT_FALSE(r.contains(0, 0));
    r.erase(0, 69);
    EXPECT_FALSE(r.contains(0, 69));
    EXPECT_EQ(r.pairCount(), 1u);
}

TEST(Relation, Identity)
{
    Relation id = Relation::identity(4);
    EXPECT_EQ(id.pairCount(), 4u);
    EXPECT_TRUE(id.contains(2, 2));
    EXPECT_FALSE(id.irreflexive());
}

TEST(Relation, Algebra)
{
    Relation a(4, {{0, 1}, {1, 2}});
    Relation b(4, {{1, 2}, {2, 3}});
    EXPECT_EQ((a | b), Relation(4, {{0, 1}, {1, 2}, {2, 3}}));
    EXPECT_EQ((a & b), Relation(4, {{1, 2}}));
    EXPECT_EQ((a - b), Relation(4, {{0, 1}}));
}

TEST(Relation, Compose)
{
    Relation a(4, {{0, 1}, {2, 3}});
    Relation b(4, {{1, 2}, {3, 0}});
    EXPECT_EQ(a.compose(b), Relation(4, {{0, 2}, {2, 0}}));
}

TEST(Relation, ComposeWithIdentityIsNoop)
{
    Relation a(5, {{0, 1}, {1, 2}, {4, 0}});
    EXPECT_EQ(a.compose(Relation::identity(5)), a);
    EXPECT_EQ(Relation::identity(5).compose(a), a);
}

TEST(Relation, Inverse)
{
    Relation a(3, {{0, 1}, {1, 2}});
    EXPECT_EQ(a.inverse(), Relation(3, {{1, 0}, {2, 1}}));
    EXPECT_EQ(a.inverse().inverse(), a);
}

TEST(Relation, TransitiveClosureChain)
{
    Relation r(4, {{0, 1}, {1, 2}, {2, 3}});
    Relation tc = r.transitiveClosure();
    EXPECT_TRUE(tc.contains(0, 3));
    EXPECT_TRUE(tc.contains(0, 2));
    EXPECT_TRUE(tc.contains(1, 3));
    EXPECT_FALSE(tc.contains(3, 0));
    EXPECT_TRUE(tc.transitive());
}

TEST(Relation, TransitiveClosureCycle)
{
    Relation r(3, {{0, 1}, {1, 2}, {2, 0}});
    Relation tc = r.transitiveClosure();
    EXPECT_TRUE(tc.contains(0, 0));
    EXPECT_FALSE(tc.irreflexive());
    EXPECT_FALSE(r.acyclic());
}

TEST(Relation, ReflexiveTransitiveClosure)
{
    Relation r(3, {{0, 1}});
    Relation rtc = r.reflexiveTransitiveClosure();
    EXPECT_TRUE(rtc.contains(0, 0));
    EXPECT_TRUE(rtc.contains(2, 2));
    EXPECT_TRUE(rtc.contains(0, 1));
}

TEST(Relation, AcyclicOnDags)
{
    Relation dag(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
    EXPECT_TRUE(dag.acyclic());
    dag.insert(4, 0);
    EXPECT_FALSE(dag.acyclic());
}

TEST(Relation, SelfLoopIsCycle)
{
    Relation r(2, {{1, 1}});
    EXPECT_FALSE(r.acyclic());
    EXPECT_FALSE(r.irreflexive());
}

TEST(Relation, RestrictOperators)
{
    Relation r(4, {{0, 1}, {1, 2}, {2, 3}});
    EventSet s(4, {1, 2});
    EXPECT_EQ(r.restrict(s), Relation(4, {{1, 2}}));
    EXPECT_EQ(r.restrictDomain(s), Relation(4, {{1, 2}, {2, 3}}));
    EXPECT_EQ(r.restrictRange(s), Relation(4, {{0, 1}, {1, 2}}));
}

TEST(Relation, DomainRangeSuccessors)
{
    Relation r(5, {{0, 2}, {0, 3}, {4, 3}});
    EXPECT_EQ(r.domain(), EventSet(5, {0, 4}));
    EXPECT_EQ(r.range(), EventSet(5, {2, 3}));
    EXPECT_EQ(r.successors(0), EventSet(5, {2, 3}));
    EXPECT_EQ(r.predecessors(3), EventSet(5, {0, 4}));
}

TEST(Relation, Product)
{
    Relation r = Relation::product(EventSet(3, {0}), EventSet(3, {1, 2}));
    EXPECT_EQ(r, Relation(3, {{0, 1}, {0, 2}}));
}

TEST(Relation, FromPredicate)
{
    Relation lt = Relation::fromPredicate(
        4, [](EventId a, EventId b) { return a < b; });
    EXPECT_EQ(lt.pairCount(), 6u);
    EXPECT_TRUE(lt.acyclic());
    EXPECT_TRUE(lt.totalOn(EventSet::full(4)));
}

TEST(Relation, TotalOn)
{
    Relation r(3, {{0, 1}, {1, 2}});
    EXPECT_FALSE(r.totalOn(EventSet::full(3))); // 0 vs 2 unrelated
    r.insert(0, 2);
    EXPECT_TRUE(r.totalOn(EventSet::full(3)));
}

TEST(Relation, FindPath)
{
    Relation r(5, {{0, 1}, {1, 2}, {2, 3}});
    auto path = r.findPath(0, 3);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, (std::vector<EventId>{1, 2}));
    EXPECT_FALSE(r.findPath(3, 0).has_value());
    auto direct = r.findPath(0, 1);
    ASSERT_TRUE(direct.has_value());
    EXPECT_TRUE(direct->empty());
}

TEST(Relation, TopologicalOrderRespectsEdges)
{
    Relation r(5, {{0, 1}, {1, 2}, {3, 2}});
    auto order = r.topologicalOrder(EventSet::full(5));
    ASSERT_TRUE(order.has_value());
    auto pos = [&](EventId id) {
        return std::find(order->begin(), order->end(), id) -
               order->begin();
    };
    EXPECT_LT(pos(0), pos(1));
    EXPECT_LT(pos(1), pos(2));
    EXPECT_LT(pos(3), pos(2));
}

TEST(Relation, TopologicalOrderOnCycleFails)
{
    Relation r(3, {{0, 1}, {1, 0}});
    EXPECT_FALSE(r.topologicalOrder(EventSet::full(3)).has_value());
}

TEST(Relation, UniverseMismatchPanics)
{
    Relation a(3);
    Relation b(4);
    EXPECT_THROW(a | b, PanicError);
    EXPECT_THROW(a.compose(b), PanicError);
}

TEST(Relation, ShiftDownDropsOldIds)
{
    Relation r(4);
    r.insertClosure(0, 1);
    r.insertClosure(1, 2);
    r.insertClosure(2, 3);
    r.shiftDown(2);
    // Old ids 2 and 3 are now 0 and 1; pairs touching 0 or 1 are gone.
    EXPECT_EQ(r, Relation(4, {{0, 1}}));
    // The freed top ids take new pairs, and closure still holds.
    r.insertClosure(1, 2);
    r.insertClosure(2, 3);
    EXPECT_TRUE(r.contains(0, 3));
    EXPECT_EQ(r.pairCount(), 6u);
    r.shiftDown(0);
    EXPECT_EQ(r.pairCount(), 6u);
    r.shiftDown(4);
    EXPECT_TRUE(r.empty());
}

TEST(Relation, ShiftDownMatchesDenseClosureUnderSlidingWindow)
{
    // A closed relation of fixed size, slid down over an ascending id
    // stream, must answer contains() like a closure over the whole
    // universe for every pair still in the window. Edges span a short
    // band; slides of random size cross word boundaries.
    constexpr std::size_t kUniverse = 400;
    constexpr std::size_t kBand = 20;
    std::mt19937_64 rng(2022);
    for (const std::size_t window : {3, 48, 64, 65, 130}) {
        Relation dense(kUniverse);
        Relation sliding(window);
        EventId floor = 0; // the id at sliding's index 0
        for (EventId b = 0; b < kUniverse; b++) {
            if (b - floor == window) {
                const std::size_t k = 1 + rng() % window;
                sliding.shiftDown(k);
                floor += k;
            }
            for (EventId a = (b > kBand ? b - kBand : 0); a < b; a++) {
                if (a < floor || rng() % 4 != 0)
                    continue;
                if (!dense.contains(a, b)) {
                    dense.insertClosure(a, b);
                    sliding.insertClosure(a - floor, b - floor);
                }
            }
            for (EventId x = floor; x <= b; x++) {
                for (EventId y = floor; y <= b; y++) {
                    ASSERT_EQ(sliding.contains(x - floor, y - floor),
                              dense.contains(x, y))
                        << "pair (" << x << ", " << y << ") at id " << b
                        << ", window " << window;
                }
            }
        }
    }
}

/**
 * A total-order visitor that records every complete order (aborting
 * after @p limit of them) and checks that push/pop bracket the prefix.
 */
struct OrderRecorder
{
    std::size_t limit = SIZE_MAX;
    std::vector<std::vector<EventId>> orders;
    std::size_t depth = 0;

    void
    push(EventId id, const std::vector<EventId> &prefix)
    {
        EXPECT_EQ(prefix.back(), id);
        EXPECT_EQ(prefix.size(), ++depth);
    }

    void
    pop(EventId id, const std::vector<EventId> &prefix)
    {
        EXPECT_EQ(prefix.back(), id);
        EXPECT_EQ(prefix.size(), depth--);
    }

    bool
    complete(const std::vector<EventId> &order)
    {
        orders.push_back(order);
        return orders.size() < limit;
    }
};

TEST(TotalOrderEnumeration, UnconstrainedIsFactorial)
{
    OrderRecorder rec;
    EXPECT_TRUE(
        forEachTotalOrderVisit(EventSet(4, {0, 1, 2}), Relation(4), rec));
    EXPECT_EQ(rec.orders.size(), 6u);
    // Ascending ids are tried first: orders arrive lexicographically.
    EXPECT_TRUE(std::is_sorted(rec.orders.begin(), rec.orders.end()));
    EXPECT_EQ(rec.depth, 0u);
}

TEST(TotalOrderEnumeration, RespectsPartialOrder)
{
    OrderRecorder rec;
    forEachTotalOrderVisit(EventSet(3, {0, 1, 2}), Relation(3, {{0, 1}}),
                           rec);
    for (const auto &order : rec.orders) {
        auto p0 = std::find(order.begin(), order.end(), 0);
        auto p1 = std::find(order.begin(), order.end(), 1);
        EXPECT_LT(p0 - order.begin(), p1 - order.begin());
    }
    EXPECT_EQ(rec.orders.size(), 3u);
}

TEST(TotalOrderEnumeration, CyclicConstraintYieldsNothing)
{
    OrderRecorder rec;
    forEachTotalOrderVisit(EventSet(2, {0, 1}),
                           Relation(2, {{0, 1}, {1, 0}}), rec);
    EXPECT_TRUE(rec.orders.empty());
}

TEST(TotalOrderEnumeration, EmptySubsetVisitsOnce)
{
    OrderRecorder rec;
    forEachTotalOrderVisit(EventSet(3), Relation(3), rec);
    ASSERT_EQ(rec.orders.size(), 1u);
    EXPECT_TRUE(rec.orders[0].empty());
}

TEST(TotalOrderEnumeration, EarlyAbort)
{
    OrderRecorder rec;
    rec.limit = 5;
    EXPECT_FALSE(forEachTotalOrderVisit(EventSet(4, {0, 1, 2, 3}),
                                        Relation(4), rec));
    EXPECT_EQ(rec.orders.size(), 5u);
    EXPECT_EQ(rec.depth, 0u);
}

// Property sweep: closure is idempotent and monotone on random DAG-ish
// relations; compose distributes over union.
class RelationPropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RelationPropertyTest, ClosureIdempotentAndMonotone)
{
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<std::size_t> node(0, 9);
    Relation r(10);
    for (int i = 0; i < 15; i++)
        r.insert(node(rng), node(rng));

    Relation tc = r.transitiveClosure();
    EXPECT_EQ(tc.transitiveClosure(), tc);
    EXPECT_TRUE(r.subsetOf(tc));
    EXPECT_TRUE(tc.transitive());
}

TEST_P(RelationPropertyTest, ComposeDistributesOverUnion)
{
    std::mt19937 rng(GetParam() * 7919 + 13);
    std::uniform_int_distribution<std::size_t> node(0, 7);
    auto random_relation = [&]() {
        Relation r(8);
        for (int i = 0; i < 10; i++)
            r.insert(node(rng), node(rng));
        return r;
    };
    Relation a = random_relation();
    Relation b = random_relation();
    Relation c = random_relation();
    EXPECT_EQ(a.compose(b | c), a.compose(b) | a.compose(c));
    EXPECT_EQ((a | b).compose(c), a.compose(c) | b.compose(c));
}

TEST_P(RelationPropertyTest, InverseReversesCompose)
{
    std::mt19937 rng(GetParam() * 104729 + 1);
    std::uniform_int_distribution<std::size_t> node(0, 7);
    auto random_relation = [&]() {
        Relation r(8);
        for (int i = 0; i < 10; i++)
            r.insert(node(rng), node(rng));
        return r;
    };
    Relation a = random_relation();
    Relation b = random_relation();
    EXPECT_EQ(a.compose(b).inverse(), b.inverse().compose(a.inverse()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelationPropertyTest,
                         ::testing::Range(0u, 20u));

} // namespace
