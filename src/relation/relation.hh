/**
 * @file
 * A finite binary relation over the event universe, parameterized over
 * a storage policy.
 *
 * This class provides the relational-algebra operators that Alloy-style
 * axiomatic memory model definitions are written in: union, intersection,
 * difference, composition (join), inverse, restriction, and transitive
 * closure, plus the acyclicity/irreflexivity checks the model axioms are
 * phrased as.
 *
 * The representation is an adjacency bit-matrix whose geometry is owned
 * by the @p Storage policy (storage.hh):
 *
 *  - `Relation` (= BasicRelation<DenseStorage>) is the historical dense
 *    matrix over {0..n-1} — exact and fast for litmus-scale universes
 *    (tens of events); the checker, pre-solver, and synthesizer all use
 *    it unchanged, with byte-identical output.
 *
 *  - `WindowedRelation` (= BasicRelation<WindowedStorage>) is the
 *    O(live-window) sliding backend of the streaming conformance
 *    checker: ids are admitted in ascending order and retired as the
 *    window slides; memory is bounded by the window capacity no matter
 *    how many events the trace carries. Dense-only operations (those
 *    whose geometry requires rows anchored at id 0) are constrained to
 *    contiguous storages and fail to compile if called on a windowed
 *    relation.
 *
 * Hot-path operations are built on the word-level kernels in kernel.hh
 * and accept templated callables directly; the std::function overloads
 * remain as thin delegating wrappers for ABI-stable callers. The delta
 * operations (insertClosure, unionClosure, insertWouldCycle) let an
 * already-closed relation be *extended* edge by edge without recomputing
 * the closure from scratch — the substrate of the checker's incremental
 * enumeration core and of the streaming checker's online cycle
 * detection. They are implemented once, storage-generically, in
 * kernel.hh (closureInsert / closureWouldCycle / frontierClosure).
 */

#ifndef MIXEDPROXY_RELATION_RELATION_HH
#define MIXEDPROXY_RELATION_RELATION_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "error.hh"
#include "event_set.hh"
#include "kernel.hh"
#include "storage.hh"
#include "word_store.hh"

namespace mixedproxy::relation {

/** An ordered pair within a relation. */
using EventPair = std::pair<EventId, EventId>;

/**
 * A binary relation on the universe {0, ..., size()-1}, as a bit-matrix
 * whose layout is owned by the @p Storage policy.
 */
template <class Storage>
class BasicRelation
{
  public:
    using StorageType = Storage;

    /**
     * Construct the empty relation. For dense storage @p size is the
     * universe size; for windowed storage it is the live-window
     * capacity (the universe starts empty and grows via admit()).
     */
    explicit BasicRelation(std::size_t size = 0) : store(size) {}

    /** Construct from an explicit pair list. */
    BasicRelation(std::size_t size,
                  std::initializer_list<EventPair> pairList)
        : BasicRelation(size)
    {
        for (const auto &[a, b] : pairList)
            insert(a, b);
    }

    /** The identity relation over a universe of @p n ids. */
    static BasicRelation
    identity(std::size_t n)
        requires(Storage::kContiguousFromZero)
    {
        BasicRelation r(n);
        for (EventId i = 0; i < n; i++)
            r.insert(i, i);
        return r;
    }

    /** The full (complete) relation over a universe of @p n ids. */
    static BasicRelation
    full(std::size_t n)
        requires(Storage::kContiguousFromZero)
    {
        return product(EventSet::full(n), EventSet::full(n));
    }

    /** Cartesian product of two sets (must share a universe). */
    static BasicRelation
    product(const EventSet &from, const EventSet &to)
        requires(Storage::kContiguousFromZero)
    {
        if (from.universeSize() != to.universeSize())
            panic("Relation::product: universe mismatch");
        BasicRelation r(from.universeSize());
        from.forEach([&](EventId a) {
            to.forEach([&](EventId b) { r.insert(a, b); });
        });
        return r;
    }

    /**
     * Build a relation by testing every ordered pair with a predicate.
     *
     * @param n Universe size.
     * @param pred Returns true when (a, b) should be in the relation.
     */
    template <typename Pred>
    static BasicRelation
    fromPredicate(std::size_t n, Pred &&pred)
        requires(Storage::kContiguousFromZero)
    {
        BasicRelation r(n);
        for (EventId a = 0; a < n; a++) {
            for (EventId b = 0; b < n; b++) {
                if (pred(a, b))
                    r.insert(a, b);
            }
        }
        return r;
    }

    /** std::function wrapper for ABI-stable callers. */
    static BasicRelation
    fromPredicate(std::size_t n,
                  const std::function<bool(EventId, EventId)> &pred)
        requires(Storage::kContiguousFromZero)
    {
        // Delegates to the templated overload.
        return fromPredicate<
            const std::function<bool(EventId, EventId)> &>(n, pred);
    }

    /** Number of ids in the universe. */
    std::size_t universeSize() const { return store.universeSize(); }

    /** First live id (0 for dense storage). */
    std::size_t liveBegin() const { return store.rowBegin(); }

    /** Number of pairs in the relation. */
    std::size_t
    pairCount() const
    {
        return kernel::popcount(store.data(), store.wordCount());
    }

    /** True if the relation has no pairs (any-bit word scan). */
    bool
    empty() const
    {
        return !kernel::anyBit(store.data(), store.wordCount());
    }

    /**
     * Extend the universe so @p id is live (windowed storage only; ids
     * must be admitted in ascending order).
     */
    void
    admit(EventId id)
        requires(!Storage::kContiguousFromZero)
    {
        store.admit(id);
    }

    /** Retire every id below @p id (windowed storage only). */
    void
    retireBelow(EventId id)
        requires(!Storage::kContiguousFromZero)
    {
        store.retireBelow(id);
    }

    /** Number of live (non-retired) ids. */
    std::size_t
    liveCount() const
    {
        return store.rowEnd() - store.rowBegin();
    }

    /** Add the pair (a, b). */
    void
    insert(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::setBit(store.row(a), b - store.colBitBase());
    }

    /** Remove the pair (a, b). */
    void
    erase(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::clearBit(store.row(a), b - store.colBitBase());
    }

    /** True if the pair (a, b) is present. */
    bool
    contains(EventId a, EventId b) const
    {
        if (a >= store.universeSize() || b >= store.universeSize() ||
            a < store.rowBegin() || b < store.rowBegin())
            return false;
        return kernel::testBit(store.row(a), b - store.colBitBase());
    }

    /** Relation union. */
    BasicRelation
    operator|(const BasicRelation &other) const
    {
        BasicRelation r(*this);
        r |= other;
        return r;
    }

    /** Relation intersection. */
    BasicRelation
    operator&(const BasicRelation &other) const
    {
        BasicRelation r(*this);
        r &= other;
        return r;
    }

    /** Relation difference. */
    BasicRelation
    operator-(const BasicRelation &other) const
    {
        BasicRelation r(*this);
        r -= other;
        return r;
    }

    BasicRelation &
    operator|=(const BasicRelation &other)
    {
        checkUniverse(other, "union");
        kernel::orInto(store.data(), other.store.data(),
                       store.wordCount());
        return *this;
    }

    BasicRelation &
    operator&=(const BasicRelation &other)
    {
        checkUniverse(other, "intersection");
        kernel::andInto(store.data(), other.store.data(),
                        store.wordCount());
        return *this;
    }

    BasicRelation &
    operator-=(const BasicRelation &other)
    {
        checkUniverse(other, "difference");
        kernel::andNotInto(store.data(), other.store.data(),
                           store.wordCount());
        return *this;
    }

    bool
    operator==(const BasicRelation &other) const
    {
        return store == other.store;
    }
    bool operator!=(const BasicRelation &other) const = default;

    /** Relational composition: (a, c) iff exists b: (a,b) and (b,c). */
    BasicRelation
    compose(const BasicRelation &other) const
    {
        checkUniverse(other, "compose");
        BasicRelation r = emptyLike();
        const std::size_t words = store.wordsPerRow();
        const std::size_t colBase = store.colBitBase();
        const std::size_t begin = store.rowBegin();
        for (EventId a = begin; a < store.rowEnd(); a++) {
            std::uint64_t *out = r.store.row(a);
            // Row-broadcast join: OR the successor row of every mid
            // into a's output row.
            kernel::forEachSetBit(
                store.row(a), words, [&](std::size_t local) {
                    const std::size_t mid = local + colBase;
                    if (mid >= begin) {
                        kernel::orInto(out, other.store.row(mid),
                                       words);
                    }
                });
        }
        return r;
    }

    /** The inverse relation: (b, a) for every (a, b). */
    BasicRelation
    inverse() const
    {
        BasicRelation r = emptyLike();
        forEach([&r](EventId a, EventId b) { r.insert(b, a); });
        return r;
    }

    /** Irreflexive transitive closure (Alloy ^r). */
    BasicRelation
    transitiveClosure() const
    {
        // Semi-naive delta-frontier propagation (kernel.hh
        // frontierClosure), with a single-word in-place Floyd-Warshall
        // fast path for contiguous universes of up to 64 ids: O(n^2)
        // word ORs with no allocation or worklist bookkeeping — far
        // below the semi-naive path's constant factor at litmus scale.
        // The closure is unique, so the paths agree bit for bit.
        BasicRelation r(*this);
        const std::size_t n = store.universeSize();
        if (n == 0)
            return r;
        if constexpr (Storage::kContiguousFromZero) {
            if (r.store.wordsPerRow() == 1) {
                std::uint64_t *rows = r.store.data();
                for (EventId k = 0; k < n; k++) {
                    const std::uint64_t krow = rows[k];
                    for (EventId i = 0; i < n; i++) {
                        if ((rows[i] >> k) & 1)
                            rows[i] |= krow;
                    }
                }
                return r;
            }
        }
        kernel::frontierClosure(r.store);
        return r;
    }

    /** Reflexive transitive closure (Alloy *r). */
    BasicRelation
    reflexiveTransitiveClosure() const
        requires(Storage::kContiguousFromZero)
    {
        return transitiveClosure() | identity(store.universeSize());
    }

    /**
     * Delta closure maintenance: add the pair (a, b) to an already
     * transitively closed relation and restore closure by broadcasting
     * b's successor row into every predecessor of a. Precondition:
     * *this is transitively closed (as by transitiveClosure()); the
     * result is bit-identical to rebuilding the closure from scratch
     * with (a, b) added.
     */
    void
    insertClosure(EventId a, EventId b)
    {
        checkId(a);
        checkId(b);
        kernel::closureInsert(store, a, b);
    }

    /**
     * Incremental acyclicity check: true when adding (a, b) to this
     * transitively closed, currently acyclic relation would create a
     * cycle (b already reaches a, or a == b).
     */
    bool
    insertWouldCycle(EventId a, EventId b) const
    {
        return a == b || contains(b, a);
    }

    /**
     * Extend an already transitively closed relation with every pair of
     * @p delta, maintaining closure (repeated insertClosure, skipping
     * pairs already present).
     */
    void
    unionClosure(const BasicRelation &delta)
    {
        checkUniverse(delta, "unionClosure");
        delta.forEach([&](EventId a, EventId b) {
            if (!contains(a, b))
                insertClosure(a, b);
        });
    }

    /** Restrict both sides to @p s: s <: r :> s. */
    BasicRelation
    restrict(const EventSet &s) const
        requires(Storage::kContiguousFromZero)
    {
        return restrictDomain(s).restrictRange(s);
    }

    /** Restrict the domain to @p s (Alloy s <: r). */
    BasicRelation
    restrictDomain(const EventSet &s) const
        requires(Storage::kContiguousFromZero)
    {
        if (s.universeSize() != store.universeSize())
            panic("Relation::restrictDomain: universe mismatch");
        BasicRelation r(store.universeSize());
        const std::size_t words = store.wordsPerRow();
        s.forEach([&](EventId a) {
            const std::uint64_t *src = store.row(a);
            std::uint64_t *dst = r.store.row(a);
            std::copy(src, src + words, dst);
        });
        return r;
    }

    /** Restrict the range to @p s (Alloy r :> s). */
    BasicRelation
    restrictRange(const EventSet &s) const
        requires(Storage::kContiguousFromZero)
    {
        if (s.universeSize() != store.universeSize())
            panic("Relation::restrictRange: universe mismatch");
        // Mask every row with s's membership words.
        BasicRelation r(*this);
        const std::size_t words = store.wordsPerRow();
        const std::uint64_t *mask = s.wordData();
        for (EventId a = 0; a < store.universeSize(); a++)
            kernel::andInto(r.store.row(a), mask, words);
        return r;
    }

    /** Keep only pairs satisfying @p pred. */
    template <typename Pred>
    BasicRelation
    filter(Pred &&pred) const
        requires(Storage::kContiguousFromZero)
    {
        BasicRelation r(store.universeSize());
        forEach([&](EventId a, EventId b) {
            if (pred(a, b))
                r.insert(a, b);
        });
        return r;
    }

    /** std::function wrapper for ABI-stable callers. */
    BasicRelation
    filter(const std::function<bool(EventId, EventId)> &pred) const
        requires(Storage::kContiguousFromZero)
    {
        // Delegates to the templated overload.
        return filter<const std::function<bool(EventId, EventId)> &>(
            pred);
    }

    /** Set of ids appearing on the left of some pair. */
    EventSet
    domain() const
    {
        EventSet s(store.universeSize());
        const std::size_t words = store.wordsPerRow();
        for (EventId a = store.rowBegin(); a < store.rowEnd(); a++) {
            if (kernel::anyBit(store.row(a), words))
                s.insert(a);
        }
        return s;
    }

    /** Set of ids appearing on the right of some pair. */
    EventSet
    range() const
    {
        EventSet s(store.universeSize());
        const std::size_t words = store.wordsPerRow();
        const std::size_t colBase = store.colBitBase();
        const std::size_t begin = store.rowBegin();
        kernel::WordStore acc(words);
        for (EventId a = begin; a < store.rowEnd(); a++)
            kernel::orInto(acc.data(), store.row(a), words);
        kernel::forEachSetBit(acc.data(), words, [&](std::size_t b) {
            if (b + colBase >= begin)
                s.insert(b + colBase);
        });
        return s;
    }

    /** Image of a single id: all b with (a, b). */
    EventSet
    successors(EventId a) const
    {
        checkId(a);
        EventSet s(store.universeSize());
        const std::size_t colBase = store.colBitBase();
        const std::size_t begin = store.rowBegin();
        kernel::forEachSetBit(store.row(a), store.wordsPerRow(),
                              [&](std::size_t b) {
                                  if (b + colBase >= begin)
                                      s.insert(b + colBase);
                              });
        return s;
    }

    /** Preimage of a single id: all a with (a, b). */
    EventSet
    predecessors(EventId b) const
    {
        checkId(b);
        EventSet s(store.universeSize());
        for (EventId a = store.rowBegin(); a < store.rowEnd(); a++) {
            if (contains(a, b))
                s.insert(a);
        }
        return s;
    }

    /** True if no (a, a) pair is present. */
    bool
    irreflexive() const
    {
        for (EventId i = store.rowBegin(); i < store.rowEnd(); i++) {
            if (contains(i, i))
                return false;
        }
        return true;
    }

    /** True if the relation, viewed as a digraph, has no cycle. */
    bool
    acyclic() const
    {
        return transitiveClosure().irreflexive();
    }

    /** True if r;r is a subset of r. */
    bool
    transitive() const
    {
        return compose(*this).subsetOf(*this);
    }

    /** True if this relation is a subset of @p other. */
    bool
    subsetOf(const BasicRelation &other) const
    {
        checkUniverse(other, "subsetOf");
        const std::size_t count = store.wordCount();
        for (std::size_t i = 0; i < count; i++) {
            if (store.data()[i] & ~other.store.data()[i])
                return false;
        }
        return true;
    }

    /**
     * True if every distinct pair of members of @p s is related one way
     * or the other (a strict total order candidate on s).
     */
    bool
    totalOn(const EventSet &s) const
    {
        if (s.universeSize() != store.universeSize())
            panic("Relation::totalOn: universe mismatch");
        auto ids = s.members();
        for (std::size_t i = 0; i < ids.size(); i++) {
            for (std::size_t j = i + 1; j < ids.size(); j++) {
                if (!contains(ids[i], ids[j]) &&
                    !contains(ids[j], ids[i]))
                    return false;
            }
        }
        return true;
    }

    /** All pairs in lexicographic order. */
    std::vector<EventPair>
    pairs() const
    {
        std::vector<EventPair> out;
        forEach([&out](EventId a, EventId b) { out.emplace_back(a, b); });
        return out;
    }

    /** Invoke @p fn for every pair in lexicographic order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t words = store.wordsPerRow();
        const std::size_t colBase = store.colBitBase();
        const std::size_t begin = store.rowBegin();
        for (EventId a = begin; a < store.rowEnd(); a++) {
            kernel::forEachSetBit(store.row(a), words,
                                  [&](std::size_t local) {
                                      const EventId b = local + colBase;
                                      if (b >= begin)
                                          fn(a, b);
                                  });
        }
    }

    /** std::function wrapper for ABI-stable callers. */
    void
    forEach(const std::function<void(EventId, EventId)> &fn) const
    {
        // Delegates to the templated overload.
        forEach<const std::function<void(EventId, EventId)> &>(fn);
    }

    /**
     * Find one a->...->b path and return its interior vertices, or
     * nullopt if b is unreachable from a. Used for diagnostics (showing
     * which causality path justified a verdict).
     */
    std::optional<std::vector<EventId>>
    findPath(EventId a, EventId b) const
    {
        checkId(a);
        checkId(b);
        const std::size_t n = store.universeSize();
        // BFS, recording parents.
        std::vector<EventId> parent(n, n);
        std::vector<EventId> queue;
        std::vector<bool> seen(n, false);
        queue.push_back(a);
        seen[a] = true;
        for (std::size_t head = 0; head < queue.size(); head++) {
            EventId cur = queue[head];
            for (EventId next = store.rowBegin(); next < n; next++) {
                if (!contains(cur, next) || seen[next])
                    continue;
                parent[next] = cur;
                if (next == b) {
                    std::vector<EventId> path;
                    for (EventId v = parent[b]; v != a && v != n;
                         v = parent[v]) {
                        path.push_back(v);
                    }
                    std::reverse(path.begin(), path.end());
                    return path;
                }
                seen[next] = true;
                queue.push_back(next);
            }
        }
        return std::nullopt;
    }

    /**
     * One topological order of @p s consistent with this relation, or
     * nullopt if the relation restricted to s is cyclic.
     */
    std::optional<std::vector<EventId>>
    topologicalOrder(const EventSet &s) const
        requires(Storage::kContiguousFromZero)
    {
        std::vector<EventId> out;
        if (!topologicalOrderInto(s, out))
            return std::nullopt;
        return out;
    }

    /**
     * Same, but written into caller-owned scratch (cleared first) so
     * hot loops can reuse the vector's capacity across calls; returns
     * false on a cycle. The checker's value evaluation calls this once
     * per rf assignment.
     */
    bool
    topologicalOrderInto(const EventSet &s,
                         std::vector<EventId> &out) const
        requires(Storage::kContiguousFromZero)
    {
        const std::size_t n = store.universeSize();
        if (s.universeSize() != n)
            panic("Relation::topologicalOrder: universe mismatch");
        out.clear();
        if (store.wordsPerRow() == 1 && n != 0) {
            // Single-word universe: Kahn's algorithm on row masks with
            // a stack-local ready stack — same LIFO visit order as the
            // general path below, zero scratch allocation. The checker
            // calls this once per rf assignment, where the general
            // path's restrict() copy and members() vector dominated
            // its profile.
            const std::uint64_t mask = s.wordData()[0];
            const std::uint64_t *rows = store.data();
            std::uint8_t indeg[64] = {};
            for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                const auto a =
                    static_cast<std::size_t>(std::countr_zero(m));
                for (std::uint64_t row = rows[a] & mask; row != 0;
                     row &= row - 1) {
                    indeg[std::countr_zero(row)]++;
                }
            }
            EventId ready[64];
            std::size_t top = 0;
            for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                const auto a =
                    static_cast<EventId>(std::countr_zero(m));
                if (indeg[a] == 0)
                    ready[top++] = a;
            }
            const auto count =
                static_cast<std::size_t>(std::popcount(mask));
            out.reserve(count);
            while (top != 0) {
                const EventId cur = ready[--top];
                out.push_back(cur);
                for (std::uint64_t row = rows[cur] & mask; row != 0;
                     row &= row - 1) {
                    const auto next =
                        static_cast<EventId>(std::countr_zero(row));
                    if (--indeg[next] == 0)
                        ready[top++] = next;
                }
            }
            return out.size() == count;
        }
        auto ids = s.members();
        std::vector<std::size_t> indegree(n, 0);
        BasicRelation sub = restrict(s);
        sub.forEach([&](EventId, EventId b) { indegree[b]++; });
        std::vector<EventId> ready;
        for (EventId id : ids) {
            if (indegree[id] == 0)
                ready.push_back(id);
        }
        while (!ready.empty()) {
            EventId cur = ready.back();
            ready.pop_back();
            out.push_back(cur);
            sub.successors(cur).forEach([&](EventId next) {
                if (--indegree[next] == 0)
                    ready.push_back(next);
            });
        }
        return out.size() == ids.size();
    }

    /** Render as "{(0,1), (2,3)}" for diagnostics. */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << "{";
        bool first = true;
        forEach([&](EventId a, EventId b) {
            if (!first)
                os << ", ";
            first = false;
            os << "(" << a << "," << b << ")";
        });
        os << "}";
        return os.str();
    }

  private:
    /** An empty relation sharing this one's universe geometry. */
    BasicRelation
    emptyLike() const
    {
        if constexpr (Storage::kContiguousFromZero) {
            return BasicRelation(store.universeSize());
        } else {
            BasicRelation r(*this);
            std::fill(r.store.data(),
                      r.store.data() + r.store.wordCount(), 0);
            return r;
        }
    }

    void
    checkUniverse(const BasicRelation &other, const char *op) const
    {
        if (other.store.universeSize() != store.universeSize()) {
            panic("Relation ", op, ": universe mismatch ",
                  store.universeSize(), " vs ",
                  other.store.universeSize());
        }
        if constexpr (!Storage::kContiguousFromZero) {
            if (other.store.rowBegin() != store.rowBegin() ||
                other.store.colBitBase() != store.colBitBase() ||
                other.store.wordsPerRow() != store.wordsPerRow()) {
                panic("Relation ", op, ": window geometry mismatch");
            }
        }
    }

    void
    checkId(EventId id) const
    {
        if (id >= store.universeSize() || id < store.rowBegin()) {
            panic("Relation id ", id, " out of universe ",
                  store.universeSize());
        }
    }

    Storage store;
};

/** The historical dense bit-matrix relation over {0..n-1}. */
using Relation = BasicRelation<DenseStorage>;

/** Sliding-window banded relation for streaming workloads. */
using WindowedRelation = BasicRelation<WindowedStorage>;

extern template class BasicRelation<DenseStorage>;
extern template class BasicRelation<WindowedStorage>;

namespace detail {

template <typename Visitor>
bool
totalOrderVisitRec(const std::vector<EventId> &ids, const Relation &closed,
                   std::vector<bool> &placed, std::vector<EventId> &prefix,
                   Visitor &visitor)
{
    if (prefix.size() == ids.size())
        return visitor.complete(prefix);
    for (std::size_t i = 0; i < ids.size(); i++) {
        if (placed[i])
            continue;
        EventId candidate = ids[i];
        // candidate may come next only if no unplaced id must precede it.
        bool ok = true;
        for (std::size_t j = 0; j < ids.size(); j++) {
            if (j != i && !placed[j] &&
                closed.contains(ids[j], candidate)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        placed[i] = true;
        prefix.push_back(candidate);
        visitor.push(candidate, prefix);
        bool keep_going =
            totalOrderVisitRec(ids, closed, placed, prefix, visitor);
        visitor.pop(candidate, prefix);
        prefix.pop_back();
        placed[i] = false;
        if (!keep_going)
            return false;
    }
    return true;
}

} // namespace detail

/**
 * Enumerate every strict total order of @p subset consistent with the
 * partial constraint @p partial, driving a stateful visitor:
 *
 *   visitor.push(id, prefix)  — id was appended (prefix includes it);
 *   visitor.pop(id, prefix)   — about to remove id (prefix still has it);
 *   visitor.complete(order)   — a full order; return false to abort.
 *
 * The push/pop hooks let the caller maintain incremental per-prefix
 * state (the checker re-checks per-location axioms as the coherence
 * order is extended). At each step candidates are tried in ascending
 * id order, so orders arrive in lexicographic order of their id
 * sequences. A cyclic constraint admits no order: complete() is never
 * called.
 *
 * @return false if visitor.complete ever returned false.
 */
template <typename Visitor>
bool
forEachTotalOrderVisit(const EventSet &subset, const Relation &partial,
                       Visitor &&visitor)
{
    auto ids = subset.members();
    std::vector<bool> placed(ids.size(), false);
    std::vector<EventId> prefix;
    prefix.reserve(ids.size());
    return detail::totalOrderVisitRec(ids, partial.transitiveClosure(),
                                      placed, prefix, visitor);
}

} // namespace mixedproxy::relation

#endif // MIXEDPROXY_RELATION_RELATION_HH
