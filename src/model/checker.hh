/**
 * @file
 * The axiomatic PTX-with-proxies model checker.
 *
 * The checker enumerates candidate executions of a litmus test
 * exhaustively: every reads-from assignment, every per-location coherence
 * order consistent with causality, with Fence-SC order checked
 * analytically. A candidate is consistent when it satisfies the six PTX
 * axioms (Coherence, SC-per-Location, Causality, Fence-SC, Atomicity,
 * No-Thin-Air) as extended by the proxy rules of the paper's §6.2. The
 * set of outcomes of consistent executions is exact for litmus-scale
 * programs; this replaces the paper's Alloy/SAT flow (DESIGN.md §5).
 */

#ifndef MIXEDPROXY_MODEL_CHECKER_HH
#define MIXEDPROXY_MODEL_CHECKER_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/program.hh"
#include "obs/obs.hh"
#include "relation/relation.hh"

namespace mixedproxy::model {

/**
 * When the static pre-solver runs relative to enumeration
 * (docs/static_solver.md).
 *
 *  - Off:  never consult the pre-solver (the enumerating baseline).
 *  - On:   try to discharge every assertion statically first; fall back
 *          to full enumeration when any assertion is inconclusive. The
 *          verdict is always exact.
 *  - Only: static verdicts only, no enumeration ever. Inconclusive
 *          assertions are reported failed with a "statically
 *          inconclusive" note; the outcome set stays empty. Used by the
 *          differential harness and by callers that need a cheap sound
 *          filter rather than an exact answer.
 */
enum class PresolvePolicy { Off, On, Only };

/** "off" / "on" / "only" — the CLI and JSON-protocol spellings. */
std::string toString(PresolvePolicy policy);

/** Parse a CLI/JSON spelling; nullopt for anything unrecognized. */
std::optional<PresolvePolicy>
presolvePolicyFromString(const std::string &text);

/**
 * The pre-solver's verdict on one assertion, with provenance. Only
 * trust `passed` when `conclusive` is true — the pre-solver never
 * guesses, so an inconclusive verdict carries no information.
 */
struct StaticAssertionVerdict
{
    bool conclusive = false;
    bool passed = false;

    /**
     * How the verdict was reached: "unsat" (no candidate execution can
     * satisfy the condition — refuted by the value-domain fixpoint),
     * "witness" (a concrete consistent execution was constructed and
     * verified), or "inconclusive".
     */
    std::string method;

    std::string detail; ///< human-readable provenance note
};

/**
 * Structured provenance for a statically discharged check: one verdict
 * per assertion, in assertion order. `discharged` is true only when
 * every assertion is conclusive — the all-or-nothing contract that
 * lets the checker skip enumeration without changing any verdict.
 */
struct StaticDischarge
{
    bool discharged = false;
    std::vector<StaticAssertionVerdict> assertions;
};

/**
 * The seam between the checker and the static pre-solver. The concrete
 * implementation lives in src/analysis/presolve/ (analysis::presolve::
 * StaticSolver); the model library defines only this interface so the
 * dependency arrow keeps pointing model <- analysis.
 */
class Presolver
{
  public:
    virtual ~Presolver() = default;

    /**
     * Attempt to discharge @p program's assertions without
     * enumeration. Must be sound: a conclusive verdict must equal what
     * full enumeration would conclude.
     */
    virtual StaticDischarge presolve(const Program &program) const = 0;
};

/** Options controlling a model-checking run. */
struct CheckOptions
{
    /** Model variant: proxy-aware PTX 7.5 or proxy-oblivious PTX 6.0. */
    ProxyMode mode = ProxyMode::Ptx75;

    /** Record one witness execution per distinct outcome. */
    bool collectWitnesses = true;

    /**
     * Skip per-candidate proxy-rule evaluation (§6.2.4 clause checks and
     * fence bridging) for tests the static analysis proves single-proxy
     * (Program::usesMixedProxies() == false). Semantics-preserving;
     * disable only to benchmark or cross-check the slow path.
     */
    bool staticFastPath = true;

    /**
     * Candidate-execution budget. Candidates are charged per rf
     * assignment (the product of its locations' coherence-order
     * counts); when charging the next assignment would pass this many,
     * enumeration stops with that assignment uncharged, so
     * candidateExecutions never exceeds the budget, and the check is
     * over budget exactly when its full candidate count is larger.
     * Exceeding the budget is a structured per-test verdict
     * (CheckResult::budgetExceeded), not an error — batch runs report
     * it and keep going.
     */
    std::uint64_t maxExecutions = 100'000'000;

    /**
     * Static pre-solver policy. Anything other than Off requires
     * `presolver` to be set; with On the pre-solver runs before
     * enumeration and a full discharge skips it entirely, with Only
     * enumeration never runs (see PresolvePolicy).
     */
    PresolvePolicy presolve = PresolvePolicy::Off;

    /**
     * The pre-solver consulted when `presolve != Off` (not owned).
     * Callers construct an analysis::presolve::StaticSolver and point
     * here; the engine facade does this wiring automatically.
     */
    const Presolver *presolver = nullptr;

    /**
     * Observability session to record into (bound for the duration of
     * check()). Null uses the calling thread's ambient session
     * (obs::ScopedSession binding, or none).
     */
    obs::Session *session = nullptr;
};

/** One consistent execution, rendered for diagnostics (Fig. 9 style). */
struct Witness
{
    std::vector<std::string> events;
    std::vector<std::string> rf;    ///< "e1 -> e4" reads-from edges
    std::vector<std::string> co;    ///< per-location coherence chains
    std::vector<std::string> sw;    ///< synchronizes-with edges
    std::vector<std::string> cause; ///< causality edges (memory ops)

    /** Structured form, for graph rendering. */
    std::map<EventId, std::string> labels;       ///< live events
    std::map<EventId, std::string> threadOf;     ///< grouping key
    std::vector<std::pair<EventId, EventId>> poEdges; ///< reduced po
    std::vector<std::pair<EventId, EventId>> rfEdges;
    std::vector<std::pair<EventId, EventId>> coEdges; ///< reduced co
    std::vector<std::pair<EventId, EventId>> swEdges;

    std::string toString() const;

    /**
     * Render as a graphviz digraph (the herd/NVLitmus-style execution
     * diagram): one cluster per thread, program order in black,
     * reads-from in red, coherence in blue, synchronizes-with in green.
     */
    std::string toDot(const std::string &name) const;
};

/** The verdict on one litmus-test assertion. */
struct AssertionCheck
{
    litmus::Assertion assertion;
    bool passed = false;
    std::string detail; ///< counterexample or confirmation note
};

/**
 * Enumeration statistics. The checker fills this struct directly (it
 * is the single source of truth) and publish() maps every field onto
 * the stable "checker.*" metric names of the observability registry
 * (docs/observability.md), so the summary() text and the --stats-json
 * report cannot drift apart.
 */
struct CheckStats
{
    std::uint64_t rfAssignments = 0;
    std::uint64_t candidateExecutions = 0;
    std::uint64_t consistentExecutions = 0;

    /**
     * Derived-relation computations that took the single-proxy fast
     * path (the Program::usesMixedProxies() skip) vs. the full §6.2.4
     * per-pair proxy-rule evaluation. hits + misses == rfAssignments
     * that survived No-Thin-Air and value feasibility.
     */
    std::uint64_t fastPathHits = 0;
    std::uint64_t fastPathMisses = 0;

    /**
     * Productive observation-order fixpoint iterations
     * (DerivedRelations). Programs without atomic RMW reads skip the
     * fixpoint outright and passes that add no edge are not counted,
     * so on rf-delta-friendly corpora this stays strictly below
     * rfAssignments — the layered engine's reuse at work.
     */
    std::uint64_t fixpointIterations = 0;

    /**
     * Derived-relation edge totals summed over candidate rf
     * assignments; populated only while obs::enabled() (the popcounts
     * are cheap but pure overhead otherwise).
     */
    std::uint64_t bcauseEdges = 0;
    std::uint64_t ppbcEdges = 0;
    std::uint64_t causeEdges = 0;

    /**
     * Enumeration-profiler rejection attribution (always on; plain
     * field increments, no registry traffic in the hot loop). The
     * first four are rf-level: the whole rf assignment dies before any
     * coherence odometer runs, counted once per rejected assignment.
     * The last four are candidate-level, attributed to the *first*
     * axiom that fails in the checker's fixed check order
     * (Causality-b, SC-per-Location, Atomicity, Fence-SC). The budget
     * charges whole rf assignments, so for every check, over budget or
     * not:
     *
     *   rejectCausalityB + rejectScPerLocation + rejectAtomicity
     *     + rejectFenceSc == candidateExecutions - consistentExecutions
     */
    std::uint64_t rejectNoThinAir = 0;
    std::uint64_t rejectValueInfeasible = 0;
    std::uint64_t rejectCausalityA = 0;
    std::uint64_t rejectCoherenceUnembeddable = 0;
    std::uint64_t rejectCausalityB = 0;
    std::uint64_t rejectScPerLocation = 0;
    std::uint64_t rejectAtomicity = 0;
    std::uint64_t rejectFenceSc = 0;

    /**
     * Search-tree shape: examined candidates bucketed by rf depth (the
     * number of read events = rf choice points). Bucket kDepthBuckets-1
     * is the overflow bucket for deeper programs. Sums to
     * candidateExecutions.
     */
    static constexpr std::size_t kDepthBuckets = 17;
    std::array<std::uint64_t, kDepthBuckets> depthHistogram{};

    /**
     * Branching-factor raw sums (averages are presentation-time
     * quotients, so the counters stay additive under session merging
     * and jobs-invariant): rf choice points and their candidate
     * sources, counted once per check; locations with a live write and
     * their admissible coherence orders, counted once per surviving rf
     * assignment.
     */
    std::uint64_t enumReads = 0;
    std::uint64_t enumSourceSlots = 0;
    std::uint64_t coLocations = 0;
    std::uint64_t coOrders = 0;

    /**
     * Layered-enumeration reuse counters (docs/observability.md).
     * base_reuse counts derived-relation computations that started
     * from the Program's precomputed rf-independent base closure
     * instead of re-closing from scratch; rf_delta counts incremental
     * closure edge insertions (rf edges along the enumeration prefix
     * plus per-assignment synchronizes-with deltas); rf_prefix_reject
     * and co_prefix_reject count whole enumeration subtrees discharged
     * at a prefix (an rf prefix edge that closes a thin-air cycle; a
     * coherence prefix whose Causality-(b) doom every extension
     * inherits).
     */
    std::uint64_t layerBaseReuse = 0;
    std::uint64_t layerRfDelta = 0;
    std::uint64_t layerRfPrefixReject = 0;
    std::uint64_t layerCoPrefixReject = 0;

    /** Add every field to @p registry under the "checker." prefix. */
    void publish(obs::MetricsRegistry &registry) const;
};

/** The result of checking one litmus test. */
struct CheckResult
{
    std::string testName;
    ProxyMode mode = ProxyMode::Ptx75;

    /** Every outcome some consistent execution produces. */
    std::set<litmus::Outcome> outcomes;

    /** One witness per outcome (when collectWitnesses). */
    std::map<litmus::Outcome, Witness> witnesses;

    std::vector<AssertionCheck> assertions;
    CheckStats stats;

    /**
     * Set when the static pre-solver ran (CheckOptions::presolve !=
     * Off). When `->discharged`, every assertion verdict above came
     * from the pre-solver and enumeration was skipped — `outcomes` and
     * `witnesses` are then empty by construction, not because the test
     * admits nothing.
     */
    std::optional<StaticDischarge> staticallyDischarged;

    /**
     * True when the full candidate count exceeds
     * CheckOptions::maxExecutions. The outcome set (and thus every
     * assertion verdict) covers only the rf assignments charged before
     * the budget ran out — treat the result as inconclusive, not as a
     * pass.
     */
    bool budgetExceeded = false;

    /**
     * True when every assertion passed over a *complete* enumeration;
     * always false when budgetExceeded (an inconclusive result must
     * not read as success).
     */
    bool allPassed() const;

    /** True when some consistent execution satisfies @p condition. */
    bool admits(const litmus::ExprPtr &condition) const;

    /** Multi-line human-readable report. */
    std::string summary() const;
};

/**
 * Derived relations of one candidate execution, exposed for testing and
 * for the Fig. 9 relation dumps.
 */
struct DerivedRelations
{
    relation::Relation msRf;   ///< morally strong reads-from
    relation::Relation obs;    ///< observation order
    relation::Relation sw;     ///< synchronizes-with
    relation::Relation bcause; ///< base causality order (§6.2.3)
    relation::Relation ppbc;   ///< proxy-preserved base causality (§6.2.4)
    relation::Relation cause;  ///< causality order (§6.2.5)

    /**
     * Productive iterations of the observation-order (release-chain)
     * fixpoint; 0 when the program has no atomic RMW reads (the
     * fixpoint is skipped outright — it could never add an edge).
     */
    std::uint64_t fixpointIterations = 0;

    /**
     * Synchronizes-with edges folded into the precomputed base closure
     * by incremental insertion (the rf-dependent delta of the bcause
     * layer).
     */
    std::uint64_t swDeltaEdges = 0;

    /** True when the single-proxy fast path was taken. */
    bool fastPath = false;
};

/**
 * Compute the rf-dependent derived relations for a candidate execution.
 *
 * @param program The static expansion.
 * @param rf Reads-from edges, write -> read.
 * @param live Liveness per event (failed-CAS writes are dead).
 * @param staticFastPath Allow the single-proxy fast path (see
 *        CheckOptions::staticFastPath); the result is identical either
 *        way.
 */
DerivedRelations computeDerived(const Program &program,
                                const relation::Relation &rf,
                                const std::vector<char> &live,
                                bool staticFastPath = true);

/**
 * One fully specified candidate execution: a reads-from choice per read
 * event plus a per-location coherence order. The pre-solver's witness
 * path uses this to have the axiomatic core verify a single candidate
 * in polynomial time instead of enumerating.
 */
struct CandidateExecution
{
    /** Source write per read event (every read must be mapped). */
    std::map<EventId, EventId> sourceOf;

    /**
     * Coherence order per location over the live non-init writes (the
     * init write is implicitly coherence-first). Locations with no
     * live writes may be omitted.
     */
    std::map<LocationId, std::vector<EventId>> coOrders;
};

/**
 * Check one candidate execution against all six PTX axioms (the same
 * per-candidate core Checker::check() runs inside its enumeration
 * loops) and return its outcome when consistent, std::nullopt when any
 * axiom rejects it. Also rejects malformed candidates: a read source
 * that is not in the read's feasible source set, value-infeasible rf,
 * or a coherence order that is not a permutation of the location's
 * live non-init writes. Polynomial in program size — no enumeration.
 */
std::optional<litmus::Outcome>
evaluateCandidate(const Program &program,
                  const CandidateExecution &candidate,
                  bool staticFastPath = true);

/**
 * Evaluate @p test's assertions against @p result's outcome set,
 * appending one AssertionCheck per assertion (the checker's own final
 * step, exposed standalone). The engine calls this to re-evaluate a
 * request's assertions against a cache-served outcome set — assertions
 * are deliberately not part of the verdict-cache key, so two tests
 * that differ only in their assertions share one cached enumeration
 * (docs/service.md).
 */
void evaluateAssertions(const litmus::LitmusTest &test,
                        CheckResult &result);

/**
 * True when a chain of proxy fences along the base-causality path
 * @p bcause bridges @p x's proxy to @p y's proxy (§6.2.4 clause 3,
 * generalized per DESIGN.md §3). Shared between the checker's ppbc
 * construction and the static race analyzer (src/analysis/).
 *
 * @param usedFences When non-null, every proxy-fence event participating
 *        in *some* successful bridge is inserted (the search then does
 *        not stop at the first bridge found); used by the analyzer's
 *        redundant-fence diagnostic.
 */
bool proxyFenceBridged(const Program &program,
                       const relation::Relation &bcause, const Event &x,
                       const Event &y,
                       relation::EventSet *usedFences = nullptr);

/** The exhaustive axiomatic checker. */
class Checker
{
  public:
    explicit Checker(CheckOptions options = {});

    /** Expand and check a litmus test. */
    CheckResult check(const litmus::LitmusTest &test) const;

    /** Check a pre-expanded program (reuse across calls). */
    CheckResult check(const Program &program) const;

    const CheckOptions &options() const { return opts; }

  private:
    CheckOptions opts;
};

} // namespace mixedproxy::model

#endif // MIXEDPROXY_MODEL_CHECKER_HH
