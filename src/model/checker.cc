#include "checker.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::model {

using relation::EventSet;
using relation::Relation;

std::string
toString(PresolvePolicy policy)
{
    switch (policy) {
    case PresolvePolicy::Off:
        return "off";
    case PresolvePolicy::On:
        return "on";
    case PresolvePolicy::Only:
        return "only";
    }
    return "off";
}

std::optional<PresolvePolicy>
presolvePolicyFromString(const std::string &text)
{
    if (text == "off")
        return PresolvePolicy::Off;
    if (text == "on")
        return PresolvePolicy::On;
    if (text == "only")
        return PresolvePolicy::Only;
    return std::nullopt;
}

std::string
Witness::toString() const
{
    std::ostringstream os;
    os << "events:\n";
    for (const auto &e : events)
        os << "  " << e << "\n";
    auto dump = [&os](const char *name,
                      const std::vector<std::string> &edges) {
        os << name << ":";
        if (edges.empty()) {
            os << " (none)\n";
            return;
        }
        os << "\n";
        for (const auto &edge : edges)
            os << "  " << edge << "\n";
    };
    dump("rf", rf);
    dump("co", co);
    dump("sw", sw);
    dump("cause", cause);
    return os.str();
}

std::string
Witness::toDot(const std::string &name) const
{
    std::ostringstream os;
    os << "digraph \"" << name << "\" {\n"
       << "  rankdir=TB;\n"
       << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";

    // Group events into per-thread clusters.
    std::map<std::string, std::vector<EventId>> by_thread;
    for (const auto &[id, thread] : threadOf)
        by_thread[thread].push_back(id);
    std::size_t cluster = 0;
    for (const auto &[thread, ids] : by_thread) {
        os << "  subgraph cluster_" << cluster++ << " {\n"
           << "    label=\"" << thread << "\";\n"
           << "    style=rounded;\n";
        for (EventId id : ids) {
            os << "    e" << id << " [label=\"" << labels.at(id)
               << "\"];\n";
        }
        os << "  }\n";
    }

    auto edges = [&os](const std::vector<std::pair<EventId, EventId>> &es,
                       const char *attrs) {
        for (const auto &[a, b] : es) {
            os << "  e" << a << " -> e" << b << " [" << attrs << "];\n";
        }
    };
    edges(poEdges, "color=black");
    edges(rfEdges, "color=red, label=\"rf\", fontcolor=red");
    edges(coEdges, "color=blue, label=\"co\", fontcolor=blue");
    edges(swEdges,
          "color=darkgreen, label=\"sw\", fontcolor=darkgreen, "
          "style=bold");
    os << "}\n";
    return os.str();
}

void
CheckStats::publish(obs::MetricsRegistry &registry) const
{
    registry.add("checker.rf_assignments", rfAssignments);
    registry.add("checker.candidates", candidateExecutions);
    registry.add("checker.consistent", consistentExecutions);
    registry.add("checker.fastpath.hits", fastPathHits);
    registry.add("checker.fastpath.misses", fastPathMisses);
    registry.add("checker.fixpoint.iterations", fixpointIterations);
    registry.add("checker.edges.bcause", bcauseEdges);
    registry.add("checker.edges.ppbc", ppbcEdges);
    registry.add("checker.edges.cause", causeEdges);
    registry.add("checker.enum.reject.no_thin_air", rejectNoThinAir);
    registry.add("checker.enum.reject.value_infeasible",
                 rejectValueInfeasible);
    registry.add("checker.enum.reject.causality_a", rejectCausalityA);
    registry.add("checker.enum.reject.coherence_unembeddable",
                 rejectCoherenceUnembeddable);
    registry.add("checker.enum.reject.causality_b", rejectCausalityB);
    registry.add("checker.enum.reject.sc_per_location",
                 rejectScPerLocation);
    registry.add("checker.enum.reject.atomicity", rejectAtomicity);
    registry.add("checker.enum.reject.fence_sc", rejectFenceSc);
    // Depth buckets are published sparsely: an all-zero bucket would
    // only add noise to every stats report.
    for (std::size_t d = 0; d < kDepthBuckets; d++) {
        if (depthHistogram[d] == 0)
            continue;
        std::string name = d + 1 == kDepthBuckets
                               ? std::string("checker.enum.depth.overflow")
                               : "checker.enum.depth." + std::to_string(d);
        registry.add(name, depthHistogram[d]);
    }
    registry.add("checker.enum.rf.reads", enumReads);
    registry.add("checker.enum.rf.source_slots", enumSourceSlots);
    registry.add("checker.enum.co.locations", coLocations);
    registry.add("checker.enum.co.orders", coOrders);
    registry.add("checker.layer.base_reuse", layerBaseReuse);
    registry.add("checker.layer.rf_delta", layerRfDelta);
    registry.add("checker.layer.rf_prefix_reject", layerRfPrefixReject);
    registry.add("checker.layer.co_prefix_reject", layerCoPrefixReject);
}

bool
CheckResult::allPassed() const
{
    if (budgetExceeded)
        return false;
    return std::all_of(assertions.begin(), assertions.end(),
                       [](const AssertionCheck &a) { return a.passed; });
}

bool
CheckResult::admits(const litmus::ExprPtr &condition) const
{
    return std::any_of(outcomes.begin(), outcomes.end(),
                       [&](const litmus::Outcome &o) {
                           return condition->evalBool(o);
                       });
}

std::string
CheckResult::summary() const
{
    std::ostringstream os;
    os << "test " << testName << " [" << model::toString(mode) << "]: "
       << outcomes.size() << " outcome(s), "
       << stats.consistentExecutions << "/" << stats.candidateExecutions
       << " consistent executions\n";
    if (budgetExceeded) {
        os << "  BUDGET EXCEEDED: enumeration stopped early; outcomes "
              "and assertion verdicts are incomplete\n";
    }
    if (staticallyDischarged && staticallyDischarged->discharged) {
        os << "  statically discharged by the pre-solver "
              "(no enumeration; outcome set not computed)\n";
    }
    for (const auto &outcome : outcomes)
        os << "  allowed: " << outcome.toString() << "\n";
    for (const auto &check : assertions) {
        os << "  " << litmus::toString(check.assertion.kind) << " "
           << check.assertion.text << ": "
           << (check.passed ? "PASS" : "FAIL");
        if (!check.detail.empty())
            os << " (" << check.detail << ")";
        os << "\n";
    }
    return os.str();
}

namespace {

/** Per-candidate value/liveness assignment. */
struct Valuation
{
    std::vector<std::uint64_t> value;
    std::vector<char> live;
    bool feasible = true;
    std::vector<EventId> topo; ///< evaluation-order scratch
};

std::uint64_t
operandValue(const Program &program, const Valuation &vals,
             const Event &event, const litmus::Operand &op)
{
    if (op.isImm())
        return op.imm;
    if (op.isReg()) {
        EventId def = program.regDef(event.thread, op.reg);
        return vals.value[def];
    }
    panic("operand of ", event.toString(), " has no value");
}

/**
 * Compute event values and CAS-write liveness for one rf assignment
 * into caller-owned scratch (the hot enumeration loops reuse the
 * vectors across assignments). Requires rf|dep to be acyclic
 * (No-Thin-Air, checked by the caller).
 */
void
evaluateInto(const Program &program, const Relation &rf,
             const std::vector<EventId> &sourceOf, Valuation &vals)
{
    const auto &events = program.events();
    vals.value.assign(events.size(), 0);
    vals.live.assign(events.size(), 1);
    vals.feasible = true;

    Relation order = rf | program.dep();
    if (!order.topologicalOrderInto(EventSet::full(events.size()),
                                    vals.topo)) {
        panic("evaluate called with cyclic rf|dep");
    }

    for (EventId id : vals.topo) {
        const Event &e = events[id];
        if (e.isInit) {
            vals.value[id] =
                program.test().initOf(program.locationName(e.location));
            continue;
        }
        if (e.isRead()) {
            EventId src = sourceOf[id];
            if (!vals.live[src]) {
                vals.feasible = false; // reads from a dead CAS write
                return;
            }
            vals.value[id] = vals.value[src];
            continue;
        }
        if (e.isWrite()) {
            const auto *instr = e.instr;
            if (e.isAsyncCopy()) {
                // The copy writes exactly what it read.
                vals.value[id] = vals.value[e.asyncCopyPartner];
                continue;
            }
            if (!e.isAtomic()) {
                vals.value[id] =
                    operandValue(program, vals, e, instr->value);
                continue;
            }
            std::uint64_t read_value = vals.value[e.rmwPartner];
            switch (instr->atomOp) {
              case litmus::AtomOp::Add:
                vals.value[id] =
                    read_value +
                    operandValue(program, vals, e, instr->value);
                break;
              case litmus::AtomOp::Exch:
                vals.value[id] =
                    operandValue(program, vals, e, instr->value);
                break;
              case litmus::AtomOp::Cas: {
                std::uint64_t expected =
                    operandValue(program, vals, e, instr->expected);
                if (read_value == expected) {
                    vals.value[id] =
                        operandValue(program, vals, e, instr->value);
                } else {
                    vals.live[id] = 0; // failed CAS writes nothing
                }
                break;
              }
            }
        }
    }
}

/** Convenience wrapper for the one-shot callers. */
Valuation
evaluate(const Program &program, const Relation &rf,
         const std::vector<EventId> &sourceOf)
{
    Valuation vals;
    evaluateInto(program, rf, sourceOf, vals);
    return vals;
}

} // namespace

bool
proxyFenceBridged(const Program &program, const Relation &bcause,
                  const Event &x, const Event &y,
                  relation::EventSet *usedFences)
{
    const auto &events = program.events();
    const bool need_exit =
        x.proxy.kind != litmus::ProxyKind::Generic;
    const bool need_entry =
        y.proxy.kind != litmus::ProxyKind::Generic;

    bool bridged = false;
    auto found = [&](EventId f1, EventId f2 = Event::kNoPartner) {
        bridged = true;
        if (usedFences) {
            usedFences->insert(f1);
            if (f2 != Event::kNoPartner)
                usedFences->insert(f2);
        }
        // Without a collector the first bridge settles the question.
        return usedFences == nullptr;
    };

    // PTX 7.5 proxy fences act on the executing CTA's caches; the §7.2
    // scoped extension lets a wider-scope fence stand in for fences in
    // every CTA the scope covers.
    auto fence_matches = [&](const Event &f, const Event &op) {
        if (litmus::proxyKindForFence(f.proxyFence) != op.proxy.kind)
            return false;
        switch (f.scope) {
          case litmus::Scope::Sys:
            return true;
          case litmus::Scope::Gpu:
            return f.gpu == op.gpu;
          default:
            return f.cta == op.cta && f.gpu == op.gpu;
        }
    };

    if (!need_exit && !need_entry) {
        // Both generic. Same virtual address needs no fence (rule 1,
        // handled by the caller); different aliases need an alias fence
        // along the path (rule 3, no CTA constraint in the paper).
        for (EventId fid : program.proxyFences()) {
            const Event &f = events[fid];
            if (f.proxyFence == litmus::ProxyFenceKind::Alias &&
                bcause.contains(x.id, fid) &&
                bcause.contains(fid, y.id) && found(fid)) {
                return true;
            }
        }
        return bridged;
    }

    if (need_exit && need_entry) {
        // Exit fence in X's CTA, then entry fence in Y's CTA, in base
        // causality order (Fig. 8f). One wide-scope fence matching both
        // endpoints (§7.2 extension) may serve as exit and entry at
        // once.
        for (EventId f1 : program.proxyFences()) {
            const Event &exit = events[f1];
            if (!fence_matches(exit, x) || !bcause.contains(x.id, f1))
                continue;
            if (fence_matches(exit, y) && bcause.contains(f1, y.id) &&
                found(f1)) {
                return true;
            }
            for (EventId f2 : program.proxyFences()) {
                if (f1 == f2)
                    continue;
                const Event &entry = events[f2];
                if (fence_matches(entry, y) &&
                    bcause.contains(f1, f2) &&
                    bcause.contains(f2, y.id) && found(f1, f2)) {
                    return true;
                }
            }
        }
        return bridged;
    }

    // One non-generic endpoint: a single fence of its kind, in its CTA,
    // along the path.
    const Event &nongeneric = need_exit ? x : y;
    for (EventId fid : program.proxyFences()) {
        const Event &f = events[fid];
        if (fence_matches(f, nongeneric) &&
            bcause.contains(x.id, fid) && bcause.contains(fid, y.id) &&
            found(fid)) {
            return true;
        }
    }
    return bridged;
}

DerivedRelations
computeDerived(const Program &program, const Relation &rf,
               const std::vector<char> &live, bool staticFastPath)
{
    // Disabled-path cost of this span is one branch (measured at ~1ns
    // by bench/checker_perf BM_ObsSpanDisabled).
    obs::Span span("check.derived");

    // Single-proxy fast path: with every access generic and unaliased,
    // §6.2.4's clause (1) orders every overlapping base-causality pair,
    // so the per-pair clause checks and fence bridging are skipped.
    const bool single_proxy =
        staticFastPath && !program.usesMixedProxies();
    const auto &events = program.events();
    const std::size_t n = events.size();
    DerivedRelations d{Relation(n), Relation(n), Relation(n),
                       Relation(n), Relation(n), Relation(n)};

    // Morally strong reads-from (init sources excluded: initialization
    // needs no synchronization to be visible).
    rf.forEach([&](EventId w, EventId r) {
        if (!events[w].isInit && live[w] &&
            program.morallyStrong().contains(w, r)) {
            d.msRf.insert(w, r);
        }
    });

    // Observation order: morally strong reads-from, extended through
    // chains of atomic RMWs (release-sequence treatment). The fixpoint
    // can only ever add edges through atomic RMW reads, so programs
    // without one (the common case) skip it outright, and only passes
    // that added an edge are counted — checker.fixpoint.iterations
    // measures real work, not one mandatory no-op scan per assignment.
    d.obs = d.msRf;
    d.fastPath = single_proxy;
    bool changed = program.hasAtomicReads();
    while (changed) {
        changed = false;
        d.obs.forEach([&](EventId w, EventId r) {
            const Event &read = events[r];
            if (!read.isAtomic())
                return;
            EventId w2 = read.rmwPartner;
            if (!live[w2])
                return;
            d.msRf.forEach([&](EventId src, EventId r2) {
                if (src == w2 && !d.obs.contains(w, r2)) {
                    d.obs.insert(w, r2);
                    changed = true;
                }
            });
        });
        if (changed)
            d.fixpointIterations++;
    }

    // Synchronizes-with: release pattern to acquire pattern when the
    // pattern write reaches the pattern read in observation order and
    // the patterns' scopes mutually include each other's thread.
    for (const auto &rel : program.releasePatterns()) {
        if (!live[rel.write])
            continue;
        const Event &first = events[rel.first];
        for (const auto &acq : program.acquirePatterns()) {
            const Event &last = events[acq.last];
            if (d.obs.contains(rel.write, acq.read) &&
                program.scopeIncludes(first, last.thread) &&
                program.scopeIncludes(last, first.thread)) {
                d.sw.insert(rel.first, acq.last);
            }
        }
    }

    // Base causality order: transitive closure of program order,
    // synchronizes-with (§6.2.3: program order is now included), and
    // CTA execution-barrier rendezvous edges. The rf-independent part
    // ^(po | barrierSync) is the Program's precomputed base layer; the
    // rf-dependent synchronizes-with edges are folded in as incremental
    // closure inserts instead of re-closing the union from scratch.
    d.bcause = program.mustCause();
    d.sw.forEach([&](EventId a, EventId b) {
        if (!d.bcause.contains(a, b)) {
            d.bcause.insertClosure(a, b);
            d.swDeltaEdges++;
        }
    });

    // Proxy-preserved base causality order (§6.2.4). When the static
    // analysis proved the test single-proxy, clause (1) orders every
    // overlapping pair, so ppbc is just the bit-matrix intersection of
    // base causality with the precomputed overlap pairs (restricted to
    // live events) — no per-pair clause scan at all.
    if (single_proxy) {
        relation::EventSet live_set(events.size());
        for (const Event &e : events) {
            if (live[e.id])
                live_set.insert(e.id);
        }
        d.ppbc =
            (d.bcause & program.overlapPairs()).restrict(live_set);
        d.cause = d.ppbc | d.obs.compose(d.ppbc);
        return d;
    }

    for (const Event &x : events) {
        if (!x.isMemory() || x.isInit || !live[x.id])
            continue;
        for (const Event &y : events) {
            if (!y.isMemory() || y.isInit || !live[y.id])
                continue;
            if (!d.bcause.contains(x.id, y.id))
                continue;
            if (!program.overlaps(x, y))
                continue;
            const bool x_generic =
                x.proxy.kind == litmus::ProxyKind::Generic;
            const bool y_generic =
                y.proxy.kind == litmus::ProxyKind::Generic;
            bool ordered = false;
            // (1) same address, generic proxy
            if (x_generic && y_generic && x.address == y.address)
                ordered = true;
            // (2) same address, same proxy, same thread block
            if (!ordered && x.proxy == y.proxy &&
                x.address == y.address && x.cta == y.cta &&
                x.gpu == y.gpu) {
                ordered = true;
            }
            // (3) proxy fences along the base causality path
            if (!ordered && proxyFenceBridged(program, d.bcause, x, y))
                ordered = true;
            if (ordered)
                d.ppbc.insert(x.id, y.id);
        }
    }

    // Causality order (§6.2.5): ppbc, plus observation then ppbc.
    d.cause = d.ppbc | d.obs.compose(d.ppbc);

    return d;
}

Checker::Checker(CheckOptions options)
    : opts(std::move(options))
{}

namespace {

Relation
rfRelation(const Program &program, const std::vector<EventId> &source_of)
{
    Relation rf(program.size());
    for (EventId r : program.reads())
        rf.insert(source_of[r], r);
    return rf;
}

/** Build the coherence relation from per-location total orders. */
Relation
coRelation(const Program &program,
           const std::vector<std::vector<EventId>> &orders)
{
    Relation co(program.size());
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        EventId init = program.initWrite(loc);
        const auto &order = orders[static_cast<std::size_t>(loc)];
        for (std::size_t i = 0; i < order.size(); i++) {
            co.insert(init, order[i]);
            for (std::size_t j = i + 1; j < order.size(); j++)
                co.insert(order[i], order[j]);
        }
    }
    return co;
}

/** fr = rf^-1 ; co, computed from sources. */
Relation
frRelation(const Program &program, const std::vector<EventId> &source_of,
           const Relation &co)
{
    Relation fr(program.size());
    for (EventId r : program.reads()) {
        EventId src = source_of[r];
        for (EventId w = 0; w < program.size(); w++) {
            if (co.contains(src, w))
                fr.insert(r, w);
        }
    }
    return fr;
}

/**
 * The Fence-SC axiom over one fully specified candidate execution:
 * some total order of the sc fences must agree with base causality and
 * with communication routed through program order, for every morally
 * strong fence pair. Equivalently: the forced edges between morally
 * strong sc-fence pairs are acyclic. Trivially true with fewer than
 * two sc fences. Shared between candidateConsistent() and the
 * enumerator's survivor pass (Fence-SC is the only cross-
 * location axiom, so it is the only one the per-location order
 * classification cannot discharge).
 */
bool
fenceScHolds(const Program &program, const DerivedRelations &derived,
             const Relation &rf, const Relation &co, const Relation &fr)
{
    if (program.scFences().size() < 2)
        return true;
    const std::size_t n = program.size();
    Relation eco_ms(n);
    auto add_ms_edges = [&](const Relation &rel) {
        rel.forEach([&](EventId a, EventId b) {
            if (program.morallyStrong().contains(a, b))
                eco_ms.insert(a, b);
        });
    };
    add_ms_edges(rf);
    add_ms_edges(co);
    add_ms_edges(fr);
    eco_ms = eco_ms.transitiveClosure();
    Relation bad = derived.bcause |
                   program.po().compose(eco_ms).compose(program.po());
    Relation forced(n);
    for (EventId f1 : program.scFences()) {
        for (EventId f2 : program.scFences()) {
            if (f1 != f2 && program.morallyStrong().contains(f1, f2) &&
                bad.contains(f1, f2)) {
                forced.insert(f1, f2);
            }
        }
    }
    return forced.acyclic();
}

/**
 * The per-candidate axioms of evaluateCandidate(): Causality part (b),
 * SC-per-Location, Atomicity and Fence-SC over one fully specified
 * candidate execution. (No-Thin-Air, value feasibility and Causality
 * part (a) depend only on rf and are checked before it.) The
 * enumerator decides the same axioms per location instead — see
 * OrderClass.
 */
bool
candidateConsistent(const Program &program,
                    const std::vector<EventId> &source_of,
                    const std::vector<char> &live,
                    const DerivedRelations &derived, const Relation &rf,
                    const Relation &co, const Relation &fr)
{
    const auto &events = program.events();
    const std::size_t n = events.size();

    // ---- Axiom: Causality, part (b) -------------------------------
    // A read must not observe a write coherence-older than a write
    // that causally precedes the read.
    for (EventId r : program.reads()) {
        EventId src = source_of[r];
        for (EventId w = 0; w < n; w++) {
            if (w == src || !events[w].isWrite() || !live[w])
                continue;
            if (events[w].location != events[r].location)
                continue;
            if (derived.cause.contains(w, r) && co.contains(src, w))
                return false;
        }
    }

    // ---- Axiom: SC-per-Location -----------------------------------
    // Within each maximal clique of morally strong overlapping
    // operations, program order and communication order are acyclic.
    Relation comm = rf | co | fr | program.po();
    for (const auto &clique : program.msCliques()) {
        EventSet live_clique =
            clique.filter([&](EventId id) { return live[id]; });
        if (!comm.restrict(live_clique).acyclic())
            return false;
    }

    // ---- Axiom: Atomicity -----------------------------------------
    // No morally strong write intervenes in coherence order between an
    // RMW's source and its write.
    for (EventId r : program.reads()) {
        const Event &read = events[r];
        if (!read.isAtomic() || !live[read.rmwPartner])
            continue;
        EventId w = read.rmwPartner;
        EventId src = source_of[r];
        for (EventId w2 = 0; w2 < n; w2++) {
            if (w2 == src || w2 == w || !events[w2].isWrite() ||
                !live[w2]) {
                continue;
            }
            if (events[w2].location != read.location)
                continue;
            if (co.contains(src, w2) && co.contains(w2, w) &&
                program.morallyStrong().contains(w2, w)) {
                return false;
            }
        }
    }

    // ---- Axiom: Fence-SC -------------------------------------------
    return fenceScHolds(program, derived, rf, co, fr);
}

/** The outcome of one consistent candidate. */
litmus::Outcome
extractOutcome(const Program &program,
               const std::vector<std::vector<EventId>> &orders,
               const std::vector<std::uint64_t> &value)
{
    const auto &events = program.events();
    litmus::Outcome outcome;
    for (EventId r : program.reads()) {
        const Event &read = events[r];
        if (read.destReg.empty())
            continue;
        outcome.registers[read.threadName + "." + read.destReg] =
            value[r];
    }
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        const auto &order = orders[static_cast<std::size_t>(loc)];
        EventId final_write =
            order.empty() ? program.initWrite(loc) : order.back();
        outcome.memory[program.locationName(loc)] = value[final_write];
    }
    return outcome;
}

/**
 * Flat outcome accumulation for the enumeration hot path: consistent
 * candidates are deduplicated as flat value vectors against a
 * per-program slot schema instead of constructing a string-keyed
 * litmus::Outcome (two std::map builds plus a set insert of map pairs)
 * per candidate.
 *
 * The schema is fixed by the program alone: one register slot per
 * distinct "thread.reg" destination key (sorted; on duplicate keys the
 * last read in Program::reads() order supplies the value — the
 * map-assignment semantics of extractOutcome) and one memory slot per
 * location (sorted by name; the value comes from the candidate's
 * coherence-final write). Every consistent candidate of one program
 * fills exactly these slots, so lexicographic comparison of the flat
 * vectors coincides with litmus::Outcome's map comparison: the
 * materialized outcome set, and the first-candidate-per-outcome
 * witness selection, are identical to per-candidate construction.
 */
class OutcomeAccumulator
{
  public:
    explicit OutcomeAccumulator(const Program &program)
        : program(program)
    {
        // The schema sorts and dedups without building any "thread.reg"
        // string: slots order by (thread, reg) pair comparison over the
        // events' own strings, which is exactly the concatenated-key
        // order ('.' < [0-9A-Za-z_] and identifiers contain no '.');
        // the keys themselves are only rendered in materialize().
        const auto &events = program.events();
        for (EventId r : program.reads()) {
            if (!events[r].destReg.empty())
                reg_events.push_back(r);
        }
        const auto key_less = [&](EventId a, EventId b) {
            const Event &ea = events[a];
            const Event &eb = events[b];
            if (int c = ea.threadName.compare(eb.threadName))
                return c < 0;
            return ea.destReg < eb.destReg;
        };
        // Stable sort, then keep the *last* read per duplicate key —
        // the map-assignment semantics of extractOutcome.
        std::stable_sort(reg_events.begin(), reg_events.end(),
                         key_less);
        std::size_t kept = 0;
        for (std::size_t i = 0; i < reg_events.size(); i++) {
            if (i + 1 < reg_events.size() &&
                !key_less(reg_events[i], reg_events[i + 1])) {
                continue; // a later read shadows this slot
            }
            reg_events[kept++] = reg_events[i];
        }
        reg_events.resize(kept);

        for (LocationId loc = 0;
             loc < static_cast<LocationId>(program.locationCount());
             loc++) {
            mem_locs.push_back(loc);
        }
        std::sort(mem_locs.begin(), mem_locs.end(),
                  [&](LocationId a, LocationId b) {
                      return program.locationName(a) <
                             program.locationName(b);
                  });
        scratch.resize(reg_events.size() + mem_locs.size());
    }

    /**
     * Record the outcome of one consistent candidate; true when it is
     * new (the caller then attaches its witness).
     */
    bool
    insert(const std::vector<std::vector<EventId>> &orders,
           const std::vector<std::uint64_t> &value)
    {
        std::size_t slot = 0;
        for (EventId r : reg_events)
            scratch[slot++] = value[r];
        for (LocationId loc : mem_locs) {
            const auto &order = orders[static_cast<std::size_t>(loc)];
            const EventId final_write =
                order.empty() ? program.initWrite(loc) : order.back();
            scratch[slot++] = value[final_write];
        }
        return flat.insert(scratch).second;
    }

    /** Attach @p witness to the outcome insert() just admitted. */
    void
    attachWitness(Witness witness)
    {
        witnesses.emplace(scratch, std::move(witness));
    }

    /** Expand the flat sets into the string-keyed result fields. */
    void
    materialize(CheckResult &result)
    {
        const auto &events = program.events();
        for (const auto &key : flat) {
            litmus::Outcome outcome;
            std::size_t slot = 0;
            for (EventId r : reg_events) {
                const Event &read = events[r];
                outcome.registers[read.threadName + "." +
                                  read.destReg] = key[slot++];
            }
            for (LocationId loc : mem_locs)
                outcome.memory[program.locationName(loc)] = key[slot++];
            auto wit = witnesses.find(key);
            if (wit != witnesses.end()) {
                result.witnesses.emplace(outcome,
                                         std::move(wit->second));
            }
            result.outcomes.insert(std::move(outcome));
        }
    }

  private:
    const Program &program;
    std::vector<EventId> reg_events;    ///< value source per register slot
    std::vector<LocationId> mem_locs;   ///< location per memory slot
    std::vector<std::uint64_t> scratch; ///< last packed candidate
    std::set<std::vector<std::uint64_t>> flat;
    std::map<std::vector<std::uint64_t>, Witness> witnesses;
};

/**
 * One consistent execution rendered for diagnostics. The enumerator
 * builds one per outcome, for the first consistent candidate with that
 * outcome in odometer order (read 0 and location 0 are the fastest
 * digits).
 */
Witness
buildWitness(const Program &program, const std::vector<char> &live,
             const Relation &rf,
             const std::vector<std::vector<EventId>> &orders,
             const DerivedRelations &derived)
{
    const auto &events = program.events();
    const std::size_t n = events.size();
    Witness w;
    for (const Event &e : events) {
        if (!live[e.id])
            continue;
        w.events.push_back(e.toString());
        w.labels[e.id] = e.toString();
        w.threadOf[e.id] = e.isInit ? "init" : e.threadName;
    }
    // Reduced program order for the diagram.
    program.po().forEach([&](EventId a, EventId b) {
        if (!live[a] || !live[b])
            return;
        for (EventId c = 0; c < n; c++) {
            if (c != a && c != b && live[c] &&
                program.po().contains(a, c) &&
                program.po().contains(c, b)) {
                return;
            }
        }
        w.poEdges.emplace_back(a, b);
    });
    program.barrierSync().forEach([&](EventId a, EventId b) {
        if (a < b)
            w.swEdges.emplace_back(a, b);
    });
    rf.forEach([&](EventId a, EventId b) {
        w.rf.push_back(events[a].toString() + " -> " +
                       events[b].toString());
        w.rfEdges.emplace_back(a, b);
    });
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        std::ostringstream chain;
        chain << program.locationName(loc) << ": init";
        EventId prev = program.initWrite(loc);
        for (EventId id : orders[static_cast<std::size_t>(loc)]) {
            chain << " -> " << events[id].toString();
            w.coEdges.emplace_back(prev, id);
            prev = id;
        }
        w.co.push_back(chain.str());
    }
    derived.sw.forEach([&](EventId a, EventId b) {
        w.sw.push_back(events[a].toString() + " -> " +
                       events[b].toString());
        w.swEdges.emplace_back(a, b);
    });
    derived.cause.forEach([&](EventId a, EventId b) {
        w.cause.push_back(events[a].toString() + " -> " +
                          events[b].toString());
    });
    return w;
}

/**
 * Per-rf-assignment derived-relation accounting: the fast-path,
 * fixpoint, layer-reuse and (when observing) edge-total counters.
 */
void
accountDerived(CheckStats &stats, const DerivedRelations &derived)
{
    if (derived.fastPath)
        stats.fastPathHits++;
    else
        stats.fastPathMisses++;
    stats.fixpointIterations += derived.fixpointIterations;
    stats.layerBaseReuse++;
    stats.layerRfDelta += derived.swDeltaEdges;
    if (obs::enabled()) {
        stats.bcauseEdges += derived.bcause.pairCount();
        stats.ppbcEdges += derived.ppbc.pairCount();
        stats.causeEdges += derived.cause.pairCount();
    }
}

/** Saturating product — the combinatorial counters must not wrap. */
std::uint64_t
satMul(std::uint64_t a, std::uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    if (a > kMax / b)
        return kMax;
    return a * b;
}

/**
 * Classification of one complete per-location coherence order by the
 * first per-location axiom that rejects it, in candidateConsistent()'s
 * check order restricted to that location: Causality part (b),
 * SC-per-Location, Atomicity. Given rf, those three axioms decompose
 * exactly by location — Causality-(b) relates a read to same-location
 * writes through co, the moral-strength cliques are same-location by
 * construction, and Atomicity constrains an RMW through its location's
 * co; only Fence-SC is cross-location. A candidate assembled from
 * per-location orders therefore fails Causality-(b) iff some component
 * order is CausalityB-class, fails SC-per-Location iff no component is
 * CausalityB-class and some component's cliques fail, and so on —
 * which turns the per-candidate rejection counters into products of
 * per-location class counts.
 */
enum class OrderClass { Viable, CausalityB, ScPerLocation, Atomicity };

/**
 * The enumeration core: a layered delta engine over the candidate
 * odometer. Candidates are visited (or charged) in odometer order: rf
 * assignments with read 0 as the fastest digit, and within one
 * assignment the coherence orders with location 0 as the fastest digit,
 * each location's orders in forEachTotalOrderVisit order. The witness
 * of an outcome is the first consistent candidate with that outcome in
 * this order.
 *
 * rf layer — assignments are a DFS over the reads in *reverse* index
 * order (read 0, the fastest digit, is the innermost level). A
 * ^(dep | rf-prefix) closure is maintained with per-depth snapshots,
 * seeded from the Program's precomputed dep closure; an rf edge that
 * would close a cycle discharges the whole subtree combinatorially.
 * This is exact: dep is present from depth 0, so a full assignment is
 * cyclic iff some prefix edge closed a cycle at the moment it was
 * added.
 *
 * co layer — per surviving assignment, each location's admissible
 * coherence orders are enumerated once and classified by OrderClass,
 * with Causality-(b) doom marked on order prefixes: a pushed write's
 * new co edges are checkable immediately, and doom is monotone, so
 * extensions inherit the class without re-checking. Candidate-level
 * counters are rolled up as saturating products of per-location class
 * counts. Survivors are materialized in odometer order: all of them
 * when Fence-SC is live (it is the one cross-location axiom), else
 * only the first survivor per outcome.
 *
 * Budget — an assignment's candidates are charged all at once; when
 * that would pass CheckOptions::maxExecutions the enumeration stops
 * with the assignment uncharged (see CheckOptions::maxExecutions).
 */
class IncrementalEnumerator
{
  public:
    IncrementalEnumerator(const Program &program,
                          const CheckOptions &opts, CheckResult &result,
                          OutcomeAccumulator &acc,
                          std::size_t depth_bucket)
        : program(program), opts(opts), result(result), acc(acc),
          depth_bucket(depth_bucket),
          events(program.events()), n(program.size()),
          reads(program.reads())
    {
        const std::size_t L = program.locationCount();
        reads_at.resize(L);
        atomic_reads_at.resize(L);
        for (EventId r : reads) {
            const auto loc = static_cast<std::size_t>(events[r].location);
            reads_at[loc].push_back(r);
            if (events[r].isAtomic())
                atomic_reads_at[loc].push_back(r);
        }
        cliques_at.resize(L);
        for (const auto &clique : program.msCliques()) {
            std::vector<EventId> members;
            clique.forEach([&](EventId id) { members.push_back(id); });
            if (!members.empty()) {
                cliques_at[static_cast<std::size_t>(
                               events[members.front()].location)]
                    .push_back(std::move(members));
            }
        }
        // Subtree sizes for prefix-prune accounting: prefix_product[i]
        // is the number of completions of a prefix whose unassigned
        // reads are exactly reads[0..i) (assignment runs from the
        // highest read index down).
        prefix_product.assign(reads.size() + 1, 1);
        for (std::size_t i = 0; i < reads.size(); i++) {
            prefix_product[i + 1] =
                satMul(prefix_product[i],
                       program.readSources(reads[i]).size());
        }
        pos.assign(n, -1);
        color.assign(n, 0);
        source_of.assign(n, static_cast<EventId>(-1));
    }

    void
    run()
    {
        closure.assign(reads.size() + 1, Relation(0));
        closure[0] = program.depClosure();
        if (!closure[0].irreflexive()) {
            // The dependency order alone is cyclic: every assignment is
            // a thin-air rejection.
            result.stats.rfAssignments += prefix_product[reads.size()];
            result.stats.rejectNoThinAir +=
                prefix_product[reads.size()];
            result.stats.layerRfPrefixReject++;
            return;
        }
        dfs(0);
    }

  private:
    void
    dfs(std::size_t depth)
    {
        if (depth == reads.size()) {
            processAssignment();
            return;
        }
        const std::size_t ri = reads.size() - 1 - depth;
        const EventId r = reads[ri];
        for (EventId src : program.readSources(r)) {
            if (result.budgetExceeded)
                return;
            if (closure[depth].insertWouldCycle(src, r)) {
                // ---- Axiom: No-Thin-Air (whole subtree) -----------
                // Every completion of this prefix contains the cycle:
                // charge them all without enumerating.
                result.stats.rfAssignments += prefix_product[ri];
                result.stats.rejectNoThinAir += prefix_product[ri];
                result.stats.layerRfPrefixReject++;
                continue;
            }
            closure[depth + 1] = closure[depth];
            closure[depth + 1].insertClosure(src, r);
            result.stats.layerRfDelta++;
            source_of[r] = src;
            dfs(depth + 1);
            source_of[r] = static_cast<EventId>(-1);
        }
    }

    void
    processAssignment()
    {
        CheckStats &stats = result.stats;
        stats.rfAssignments++;
        Relation rf = rfRelation(program, source_of);
        // No-Thin-Air holds by construction: the maintained closure
        // stayed irreflexive along the whole prefix.
        Valuation &vals = vals_scratch;
        evaluateInto(program, rf, source_of, vals);
        if (!vals.feasible) {
            stats.rejectValueInfeasible++;
            return;
        }

        DerivedRelations derived =
            computeDerived(program, rf, vals.live, opts.staticFastPath);
        accountDerived(stats, derived);

        // ---- Axiom: Causality, part (a) ---------------------------
        for (EventId r : reads) {
            if (derived.cause.contains(r, source_of[r])) {
                stats.rejectCausalityA++;
                return;
            }
        }

        // ---- Axiom: Coherence, + per-location classification ------
        const std::size_t L = program.locationCount();
        locs.assign(L, {});
        bool some_loc_empty = false;
        for (LocationId loc = 0; loc < static_cast<LocationId>(L);
             loc++) {
            EventSet live_writes(n);
            for (EventId w : program.writesAt(loc)) {
                if (vals.live[w])
                    live_writes.insert(w);
            }
            LocOrders &lo = locs[static_cast<std::size_t>(loc)];
            classifyLocation(loc, live_writes, vals, derived, lo);
            if (lo.orders.empty() && live_writes.count() > 0)
                some_loc_empty = true;
            if (live_writes.count() > 0) {
                stats.coLocations++;
                stats.coOrders += lo.orders.size();
            }
        }
        if (some_loc_empty) {
            stats.rejectCoherenceUnembeddable++;
            return;
        }

        // ---- Combinatorial roll-up of the candidate counters ------
        // First-fail attribution survives the per-location product:
        // a candidate passes Causality-(b) iff every component order
        // does, and so on down the check order.
        std::uint64_t p_full = 1, p_ncb = 1, p_nsc = 1, p_viable = 1;
        for (const LocOrders &lo : locs) {
            const auto full =
                static_cast<std::uint64_t>(lo.orders.size());
            p_full = satMul(p_full, full);
            p_ncb = satMul(p_ncb, full - lo.cb);
            p_nsc = satMul(p_nsc, full - lo.cb - lo.sc);
            p_viable = satMul(p_viable, lo.viable.size());
        }

        // ---- Budget: charge the whole assignment or stop ----------
        // candidateExecutions never passes the budget, so the
        // subtraction cannot wrap.
        if (p_full > opts.maxExecutions - stats.candidateExecutions) {
            result.budgetExceeded = true;
            return;
        }

        stats.candidateExecutions += p_full;
        stats.depthHistogram[depth_bucket] += p_full;
        stats.rejectCausalityB += p_full - p_ncb;
        stats.rejectScPerLocation += p_ncb - p_nsc;
        stats.rejectAtomicity += p_nsc - p_viable;
        if (p_viable == 0)
            return;

        const bool fence_active = program.scFences().size() >= 2;
        if (!fence_active) {
            stats.consistentExecutions += p_viable;
            emitOutcomeProduct(vals, derived, rf);
            return;
        }

        // Fence-SC is the one cross-location axiom: evaluate it per
        // survivor, in odometer order (location 0 fastest).
        std::vector<std::size_t> vi(L, 0);
        while (true) {
            orders_scratch.assign(L, {});
            for (std::size_t loc = 0; loc < L; loc++) {
                const LocOrders &lo = locs[loc];
                orders_scratch[loc] = lo.orders[lo.viable[vi[loc]]];
            }
            Relation co = coRelation(program, orders_scratch);
            Relation fr = frRelation(program, source_of, co);
            if (fenceScHolds(program, derived, rf, co, fr)) {
                stats.consistentExecutions++;
                if (acc.insert(orders_scratch, vals.value) &&
                    opts.collectWitnesses) {
                    acc.attachWitness(
                        buildWitness(program, vals.live, rf,
                                     orders_scratch, derived));
                }
            } else {
                stats.rejectFenceSc++;
            }
            bool done = true;
            for (std::size_t loc = 0; loc < L; loc++) {
                vi[loc]++;
                if (vi[loc] < locs[loc].viable.size()) {
                    done = false;
                    break;
                }
                vi[loc] = 0;
            }
            if (done)
                break;
        }
    }

    /**
     * Without Fence-SC every survivor is consistent and its outcome is
     * its registers (fixed by rf) plus each location's final-write
     * value. Visit one representative survivor per distinct
     * final-value combination — the representative is the *first*
     * survivor with that outcome in odometer order (the digits are
     * independent, so the earliest combination is the per-location
     * earliest viable order with that final value), which is the
     * witness the enumerator's contract names.
     */
    void
    emitOutcomeProduct(const Valuation &vals,
                       const DerivedRelations &derived,
                       const Relation &rf)
    {
        const std::size_t L = locs.size();
        std::vector<std::size_t> fi(L, 0);
        while (true) {
            orders_scratch.assign(L, {});
            for (std::size_t loc = 0; loc < L; loc++) {
                const LocOrders &lo = locs[loc];
                orders_scratch[loc] = lo.orders[lo.finals[fi[loc]]];
            }
            if (acc.insert(orders_scratch, vals.value) &&
                opts.collectWitnesses) {
                acc.attachWitness(buildWitness(
                    program, vals.live, rf, orders_scratch, derived));
            }
            bool done = true;
            for (std::size_t loc = 0; loc < L; loc++) {
                fi[loc]++;
                if (fi[loc] < locs[loc].finals.size()) {
                    done = false;
                    break;
                }
                fi[loc] = 0;
            }
            if (done)
                break;
        }
    }

    /** One location's enumerated coherence orders, classified. */
    struct LocOrders
    {
        std::vector<std::vector<EventId>> orders; ///< bucket order
        std::uint64_t cb = 0, sc = 0, atom = 0;   ///< class counts
        std::vector<std::size_t> viable; ///< indices of viable orders
        std::vector<std::size_t> finals; ///< first viable order per
                                         ///< distinct final value
    };

    /**
     * Total-order visitor: maintains coherence positions, marks
     * Causality-(b) doom on prefixes (monotone — see push()), and
     * classifies each complete order.
     */
    struct Classifier
    {
        IncrementalEnumerator &e;
        LocationId loc;
        const Valuation &vals;
        const DerivedRelations &derived;
        LocOrders &out;
        int doomDepth = -1;

        void
        push(EventId w, const std::vector<EventId> &prefix)
        {
            e.pos[w] = static_cast<int>(prefix.size()) - 1;
            if (doomDepth >= 0)
                return;
            // The new co edges of this push are (x, w) for every x
            // already placed, plus the implicit (init, w):
            // Causality-(b) fires when some read's source is such an x
            // while w causally precedes the read. Extensions only add
            // co edges, so doom is inherited by the whole subtree.
            const EventId init = e.program.initWrite(loc);
            for (const auto &[r, src] : e.cb_pairs) {
                if (w == src || !derived.cause.contains(w, r))
                    continue;
                if (src == init || e.pos[src] >= 0) {
                    doomDepth = static_cast<int>(prefix.size());
                    e.result.stats.layerCoPrefixReject++;
                    break;
                }
            }
        }

        void
        pop(EventId w, const std::vector<EventId> &prefix)
        {
            if (doomDepth == static_cast<int>(prefix.size()))
                doomDepth = -1;
            e.pos[w] = -1;
        }

        bool
        complete(const std::vector<EventId> &order)
        {
            OrderClass c = OrderClass::Viable;
            if (doomDepth >= 0)
                c = OrderClass::CausalityB;
            else if (e.scFails(loc, vals))
                c = OrderClass::ScPerLocation;
            else if (e.atomFails(loc, order, vals))
                c = OrderClass::Atomicity;
            switch (c) {
            case OrderClass::CausalityB:
                out.cb++;
                break;
            case OrderClass::ScPerLocation:
                out.sc++;
                break;
            case OrderClass::Atomicity:
                out.atom++;
                break;
            case OrderClass::Viable:
                out.viable.push_back(out.orders.size());
                break;
            }
            out.orders.push_back(order);
            return true;
        }
    };

    void
    classifyLocation(LocationId loc, const EventSet &live_writes,
                     const Valuation &vals,
                     const DerivedRelations &derived, LocOrders &out)
    {
        cb_pairs.clear();
        for (EventId r : reads_at[static_cast<std::size_t>(loc)])
            cb_pairs.emplace_back(r, source_of[r]);
        Classifier visitor{*this, loc, vals, derived, out};
        relation::forEachTotalOrderVisit(
            live_writes, derived.cause.restrict(live_writes), visitor);
        // One representative order per distinct final-write value, in
        // first-occurrence order, for the no-fence outcome product.
        out.finals.clear();
        final_values.clear();
        for (std::size_t idx : out.viable) {
            const auto &order = out.orders[idx];
            const std::uint64_t v =
                order.empty() ? vals.value[program.initWrite(loc)]
                              : vals.value[order.back()];
            if (std::find(final_values.begin(), final_values.end(),
                          v) == final_values.end()) {
                final_values.push_back(v);
                out.finals.push_back(idx);
            }
        }
    }

    /**
     * co precedence under the current order positions: the init write
     * precedes every order member; order members compare by position.
     * pos doubles as the "is a placed live write" test (reads and
     * unplaced events sit at -1).
     */
    bool
    coBefore(LocationId loc, EventId x, EventId y) const
    {
        const EventId init = program.initWrite(loc);
        if (x == y || y == init)
            return false;
        if (x == init)
            return pos[y] >= 0;
        return pos[x] >= 0 && pos[y] >= 0 && pos[x] < pos[y];
    }

    /** One comm = rf | co | fr | po edge within a live clique. */
    bool
    commEdge(LocationId loc, EventId x, EventId y) const
    {
        if (program.po().contains(x, y))
            return true;
        if (events[y].isRead() && source_of[y] == x)
            return true;
        if (events[x].isWrite() && coBefore(loc, x, y))
            return true;
        if (events[x].isRead() && coBefore(loc, source_of[x], y))
            return true;
        return false;
    }

    /** SC-per-Location for @p loc's cliques under the current order. */
    bool
    scFails(LocationId loc, const Valuation &vals)
    {
        for (const auto &members :
             cliques_at[static_cast<std::size_t>(loc)]) {
            live_members.clear();
            for (EventId m : members) {
                if (vals.live[m])
                    live_members.push_back(m);
            }
            if (cliqueCyclic(loc, live_members))
                return true;
        }
        return false;
    }

    /** Cycle detection over comm edges among clique members. */
    bool
    cliqueCyclic(LocationId loc, const std::vector<EventId> &members)
    {
        for (EventId m : members)
            color[m] = 0;
        for (EventId root : members) {
            if (color[root] != 0)
                continue;
            color[root] = 1;
            frames.clear();
            frames.push_back({root, 0});
            while (!frames.empty()) {
                Frame &f = frames.back();
                if (f.next >= members.size()) {
                    color[f.node] = 2;
                    frames.pop_back();
                    continue;
                }
                const EventId y = members[f.next++];
                if (y == f.node || !commEdge(loc, f.node, y))
                    continue;
                if (color[y] == 1)
                    return true;
                if (color[y] == 0) {
                    color[y] = 1;
                    frames.push_back({y, 0});
                }
            }
        }
        return false;
    }

    /** Atomicity for @p loc's RMWs under the current complete order. */
    bool
    atomFails(LocationId loc, const std::vector<EventId> &order,
              const Valuation &vals) const
    {
        for (EventId r : atomic_reads_at[static_cast<std::size_t>(loc)]) {
            const Event &read = events[r];
            const EventId w = read.rmwPartner;
            if (!vals.live[w])
                continue;
            const EventId src = source_of[r];
            for (EventId w2 : order) {
                if (w2 == src || w2 == w)
                    continue;
                if (coBefore(loc, src, w2) && coBefore(loc, w2, w) &&
                    program.morallyStrong().contains(w2, w)) {
                    return true;
                }
            }
        }
        return false;
    }

    const Program &program;
    const CheckOptions &opts;
    CheckResult &result;
    OutcomeAccumulator &acc;
    const std::size_t depth_bucket;
    const std::vector<Event> &events;
    const std::size_t n;
    const std::vector<EventId> &reads;

    // Static per-program tables (built once per check).
    std::vector<std::vector<EventId>> reads_at;
    std::vector<std::vector<EventId>> atomic_reads_at;
    std::vector<std::vector<std::vector<EventId>>> cliques_at;
    std::vector<std::uint64_t> prefix_product;

    // rf-layer state.
    std::vector<Relation> closure; ///< per-depth ^(dep | rf-prefix)
    std::vector<EventId> source_of;

    // co-layer scratch, reused across locations and assignments.
    std::vector<std::pair<EventId, EventId>> cb_pairs;
    std::vector<int> pos;
    std::vector<signed char> color;
    struct Frame
    {
        EventId node;
        std::size_t next;
    };
    std::vector<Frame> frames;
    std::vector<EventId> live_members;
    std::vector<std::uint64_t> final_values;
    Valuation vals_scratch;
    std::vector<LocOrders> locs;
    std::vector<std::vector<EventId>> orders_scratch;
};

} // namespace

std::optional<litmus::Outcome>
evaluateCandidate(const Program &program,
                  const CandidateExecution &candidate,
                  bool staticFastPath)
{
    const auto &events = program.events();
    const std::size_t n = events.size();

    // Reject malformed source maps: every read mapped, every source
    // drawn from the read's feasible source list.
    std::vector<EventId> source_of(n, static_cast<EventId>(-1));
    for (EventId r : program.reads()) {
        auto it = candidate.sourceOf.find(r);
        if (it == candidate.sourceOf.end())
            return std::nullopt;
        const auto &sources = program.readSources(r);
        if (std::find(sources.begin(), sources.end(), it->second) ==
            sources.end()) {
            return std::nullopt;
        }
        source_of[r] = it->second;
    }

    Relation rf = rfRelation(program, source_of);

    // ---- Axiom: No-Thin-Air --------------------------------------
    if (!(rf | program.dep()).acyclic())
        return std::nullopt;

    Valuation vals = evaluate(program, rf, source_of);
    if (!vals.feasible)
        return std::nullopt;

    DerivedRelations derived =
        computeDerived(program, rf, vals.live, staticFastPath);

    // ---- Axiom: Causality, part (a) ------------------------------
    for (EventId r : program.reads()) {
        if (derived.cause.contains(r, source_of[r]))
            return std::nullopt;
    }

    // Validate and adopt the coherence orders: each must be a
    // permutation of the location's live non-init writes. An order
    // that inverts a causality edge between live writes violates the
    // Coherence axiom (the enumerator only ever generates embeddings),
    // so it is rejected the same way.
    std::vector<std::vector<EventId>> orders(program.locationCount());
    for (LocationId loc = 0;
         loc < static_cast<LocationId>(program.locationCount()); loc++) {
        std::vector<EventId> live_writes;
        for (EventId w : program.writesAt(loc)) {
            if (vals.live[w])
                live_writes.push_back(w);
        }
        auto it = candidate.coOrders.find(loc);
        std::vector<EventId> order = it == candidate.coOrders.end()
                                         ? std::vector<EventId>{}
                                         : it->second;
        std::vector<EventId> sorted_order = order;
        std::sort(sorted_order.begin(), sorted_order.end());
        std::sort(live_writes.begin(), live_writes.end());
        if (sorted_order != live_writes)
            return std::nullopt;
        // ---- Axiom: Coherence ------------------------------------
        for (std::size_t i = 0; i < order.size(); i++) {
            for (std::size_t j = i + 1; j < order.size(); j++) {
                if (derived.cause.contains(order[j], order[i]))
                    return std::nullopt;
            }
        }
        orders[static_cast<std::size_t>(loc)] = std::move(order);
    }

    Relation co = coRelation(program, orders);
    Relation fr = frRelation(program, source_of, co);
    if (!candidateConsistent(program, source_of, vals.live, derived, rf,
                             co, fr)) {
        return std::nullopt;
    }

    return extractOutcome(program, orders, vals.value);
}

void
evaluateAssertions(const litmus::LitmusTest &test, CheckResult &result)
{
    obs::Span assertion_span("check.assertions");
    for (const auto &assertion : test.assertions()) {
        AssertionCheck check;
        check.assertion = assertion;
        switch (assertion.kind) {
          case litmus::AssertKind::Require: {
            check.passed = !result.outcomes.empty();
            if (!check.passed)
                check.detail = "no consistent execution";
            for (const auto &outcome : result.outcomes) {
                if (!assertion.condition->evalBool(outcome)) {
                    check.passed = false;
                    check.detail =
                        "counterexample: " + outcome.toString();
                    break;
                }
            }
            break;
          }
          case litmus::AssertKind::Permit: {
            check.passed = result.admits(assertion.condition);
            if (!check.passed)
                check.detail = "no allowed outcome satisfies it";
            break;
          }
          case litmus::AssertKind::Forbid: {
            check.passed = true;
            for (const auto &outcome : result.outcomes) {
                if (assertion.condition->evalBool(outcome)) {
                    check.passed = false;
                    check.detail = "observed: " + outcome.toString();
                    break;
                }
            }
            break;
          }
        }
        result.assertions.push_back(std::move(check));
    }
}

namespace {

/** Everything one check does inside its "check" span. */
CheckResult
checkProgram(const Program &program, const CheckOptions &opts)
{
    const auto &test = program.test();

    CheckResult result;
    result.testName = test.name();
    result.mode = opts.mode;

    // Static pre-solver fast path (docs/static_solver.md): try to
    // discharge every assertion without enumeration. All-or-nothing —
    // a partial discharge falls back to the full enumeration below (or
    // stops here under PresolvePolicy::Only).
    if (opts.presolve != PresolvePolicy::Off &&
        opts.presolver != nullptr) {
        StaticDischarge discharge;
        {
            obs::Span presolve_span("check.presolve");
            discharge = opts.presolver->presolve(program);
        }
        const auto &asserts = test.assertions();
        const bool usable =
            discharge.assertions.size() == asserts.size();
        if (usable && discharge.discharged) {
            obs::count("check.presolve.discharged");
            for (std::size_t i = 0; i < asserts.size(); i++) {
                const auto &v = discharge.assertions[i];
                AssertionCheck check;
                check.assertion = asserts[i];
                check.passed = v.passed;
                check.detail = "static " + v.method;
                if (!v.detail.empty())
                    check.detail += ": " + v.detail;
                result.assertions.push_back(std::move(check));
            }
            result.staticallyDischarged = std::move(discharge);
            if (obs::Session *session = obs::current())
                result.stats.publish(session->metrics);
            return result;
        }
        obs::count("check.presolve.inconclusive");
        if (opts.presolve == PresolvePolicy::Only) {
            for (std::size_t i = 0; i < asserts.size(); i++) {
                AssertionCheck check;
                check.assertion = asserts[i];
                if (usable && discharge.assertions[i].conclusive) {
                    const auto &v = discharge.assertions[i];
                    check.passed = v.passed;
                    check.detail = "static " + v.method;
                    if (!v.detail.empty())
                        check.detail += ": " + v.detail;
                } else {
                    check.passed = false;
                    check.detail =
                        "statically inconclusive (presolve=only)";
                }
                result.assertions.push_back(std::move(check));
            }
            result.staticallyDischarged = std::move(discharge);
            if (obs::Session *session = obs::current())
                result.stats.publish(session->metrics);
            return result;
        }
        // Fall through to enumeration, keeping the partial provenance.
        result.staticallyDischarged = std::move(discharge);
    }

    // Branching-factor numerators (enumeration profiler): the rf
    // choice points of this program and their candidate sources,
    // counted once per check. The candidate depth — the bucket every
    // examined candidate of this program lands in — is the same count.
    result.stats.enumReads += program.reads().size();
    for (EventId r : program.reads())
        result.stats.enumSourceSlots += program.readSources(r).size();
    const std::size_t depth_bucket = std::min(
        program.reads().size(), CheckStats::kDepthBuckets - 1);

    {
        obs::Span enumerate_span("check.enumerate");
        OutcomeAccumulator acc(program);
        IncrementalEnumerator(program, opts, result, acc, depth_bucket)
            .run();
        acc.materialize(result);
    }

    evaluateAssertions(test, result);

    if (obs::Session *session = obs::current()) {
        result.stats.publish(session->metrics);
        if (result.budgetExceeded)
            session->metrics.add("checker.budget_exceeded");
    }

    return result;
}

} // namespace

// Each overload opens exactly one "check" span, so every check.* span
// nests under it whichever entry point a caller uses.
CheckResult
Checker::check(const litmus::LitmusTest &test) const
{
    obs::ScopedSession bind(opts.session);
    obs::Span span("check");
    std::optional<Program> program;
    {
        obs::Span expand("check.expand");
        program.emplace(test, opts.mode);
    }
    return checkProgram(*program, opts);
}

CheckResult
Checker::check(const Program &program) const
{
    obs::ScopedSession bind(opts.session);
    obs::Span span("check");
    return checkProgram(program, opts);
}

} // namespace mixedproxy::model
