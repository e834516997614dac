#include "checker.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <utility>

#include "litmus/types.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::conform {

std::string
toString(ViolationKind kind)
{
    switch (kind) {
    case ViolationKind::Malformed:
        return "malformed";
    case ViolationKind::RfValue:
        return "rf_value";
    case ViolationKind::Coherence:
        return "coherence";
    case ViolationKind::Causality:
        return "causality";
    case ViolationKind::Atomicity:
        return "atomicity";
    case ViolationKind::FenceSc:
        return "fence_sc";
    }
    return "?";
}

std::string
ConformReport::summary() const
{
    std::ostringstream os;
    os << "trace " << (test.empty() ? "<unnamed>" : test) << ": "
       << (conformant() ? "CONFORMANT" : "NONCONFORMANT") << '\n';
    os << "  events=" << stats.events << " loads=" << stats.loads
       << " stores=" << stats.stores << " commits=" << stats.commits
       << " rmws=" << stats.rmws << " fences=" << stats.fences
       << " barriers=" << stats.barriers << '\n';
    os << "  window.peak=" << stats.peakWindow
       << " retired=" << stats.retiredWrites
       << " rf_unknown=" << stats.rfUnknown << '\n';
    if (!conformant()) {
        os << "  violations:";
        for (std::size_t k = 0; k < kViolationKinds; k++) {
            if (stats.byKind[k]) {
                os << ' ' << toString((ViolationKind)k) << '='
                   << stats.byKind[k];
            }
        }
        os << '\n';
        for (const Violation &v : violations) {
            os << "  [" << toString(v.kind) << "] seq=" << v.seq << ": "
               << v.detail;
            if (!v.involved.empty()) {
                os << " (involving seq";
                for (std::uint64_t s : v.involved)
                    os << ' ' << s;
                os << ')';
            }
            os << '\n';
        }
    }
    return os.str();
}

namespace {

constexpr std::size_t kNoThread = ~std::size_t{0};
constexpr std::uint64_t kNoFence = ~std::uint64_t{0};

/**
 * Capped dedup set of SC-fence ids. Overflow drops the oldest entry:
 * losing a fence id loses forced SC edges (an under-approximation),
 * never invents one.
 */
struct FenceSet
{
    static constexpr std::size_t kCap = 8;

    std::vector<std::uint64_t> ids;

    /** Add @p fid; returns whether the set changed. */
    bool
    add(std::uint64_t fid)
    {
        for (std::uint64_t have : ids) {
            if (have == fid)
                return false;
        }
        if (ids.size() >= kCap)
            ids.erase(ids.begin());
        ids.push_back(fid);
        return true;
    }

    void clear() { ids.clear(); }
};

} // namespace

struct StreamChecker::Impl
{
    explicit Impl(ConformOptions opts)
        : opts(opts), scGraph(opts.window)
    {}

    ConformOptions opts;
    ConformReport report;
    bool haveHeader = false;

    std::vector<TraceThread> threads;
    std::vector<TraceLocation> locations;

    /** Per-thread vector clocks; vc[t][u] = events of u known to t. */
    std::vector<std::vector<std::uint64_t>> vc;

    /** Everything the checker remembers about one live write. */
    struct WriteInfo
    {
        std::uint64_t uid = 0;
        std::uint64_t seq = 0;
        std::size_t thread = kNoThread; ///< kNoThread for init writes
        std::size_t location = 0;
        std::uint64_t value = 0;
        litmus::Semantics sem = litmus::Semantics::Weak;
        litmus::Scope scope = litmus::Scope::None;
        litmus::ProxyKind proxy = litmus::ProxyKind::Generic;
        bool committed = false;
        bool isRmw = false;
        std::uint64_t rmwRf = kNoUid; ///< RMW only: read-from uid
        std::uint64_t coPos = 0;      ///< per-location commit number
        std::vector<std::uint64_t> clock; ///< issue-time VC snapshot
        std::uint64_t fenceBefore = kNoFence; ///< last SC fence po-before
        /** The issuer's SC-fence count at issue (see forFencesAfter). */
        std::uint64_t scFencesBefore = 0;
        FenceSet readerFences; ///< SC fences po-before observers
    };

    /**
     * Live writes by uid (issued-but-uncommitted plus windowed). Nodes
     * are stable, so the per-location lists below hold pointers.
     */
    std::unordered_map<std::uint64_t, WriteInfo> writes;

    /**
     * One thread's live committed writes at one location, and how far
     * its SC fences have discharged what their co-predecessors owe.
     */
    struct OwnWrites
    {
        /** Commit numbers, ascending; popped as the location retires. */
        std::deque<std::uint64_t> coPos;
        /**
         * Writes with commit numbers below mark owe nothing beyond
         * edges already forced into SC fence `at` of this thread (see
         * onFence).
         */
        std::uint64_t mark = 0;
        std::uint64_t at = kNoFence;
    };

    struct LocationState
    {
        /** Live committed writes, in commit (= coherence) order. */
        std::deque<WriteInfo *> co;
        /** Per thread; sized at the first commit. */
        std::vector<OwnWrites> own;
        std::uint64_t nextCoPos = 0;
        /** uids below this were retired (reads of them are unknown). */
        std::uint64_t uidFloor = 0;
        /**
         * Per observed thread u, the max of clock[u] over every write
         * ever committed here, with a witnessing uid/seq. Survives
         * retirement, so coherence conviction outlives the window.
         */
        std::vector<std::uint64_t> maxClock;
        std::vector<std::uint64_t> maxClockUid;
        std::vector<std::uint64_t> maxClockSeq;
    };
    std::vector<LocationState> locState;

    /** One live SC fence. */
    struct FenceInfo
    {
        std::uint64_t fid = 0;
        std::uint64_t seq = 0;
        std::size_t thread = 0;
        litmus::Scope scope = litmus::Scope::None;
    };

    /**
     * Forced SC-fence order (transitively closed) over live fences, by
     * local id fid - fidFloor; retireFences() shifts it down.
     */
    relation::Relation scGraph;
    std::deque<FenceInfo> liveFences; ///< fid-dense, ascending
    std::uint64_t nextFid = 0;
    /** fids below this were retired; the front of liveFences has it. */
    std::uint64_t fidFloor = 0;

    /** One thread's SC fences: how many, and the newest kCap ids. */
    struct ScHistory
    {
        std::uint64_t count = 0;
        std::array<std::uint64_t, FenceSet::kCap> newest{};
        /**
         * Oldest fence from which every later SC fence of the thread is
         * forced after it by program-order edges in scGraph.
         */
        std::uint64_t chainStart = kNoFence;

        void
        push(std::uint64_t fid)
        {
            newest[count++ % FenceSet::kCap] = fid;
        }
    };
    std::vector<ScHistory> scHistory; ///< per thread
    /** Per thread: fence ids owed an edge into its next SC fence. */
    std::vector<FenceSet> pendingRead;

    /** In-flight CTA barrier rendezvous, keyed by (gpu, cta). */
    struct BarrierState
    {
        std::vector<std::uint64_t> clock;
        std::size_t arrived = 0;
    };
    std::map<std::pair<int, int>, BarrierState> barriers;
    std::map<std::pair<int, int>, std::size_t> ctaSize;

    /** Last value loaded into each (thread, register), for the footer. */
    std::map<std::pair<std::size_t, std::string>, std::uint64_t> lastReg;

    bool sawFooter = false;

    // ---- helpers -----------------------------------------------------

    void
    violation(ViolationKind kind, std::uint64_t seq, std::string detail,
              std::vector<std::uint64_t> involved = {})
    {
        report.stats.byKind[(std::size_t)kind]++;
        if (report.violations.size() < opts.maxViolations) {
            report.violations.push_back(Violation{
                kind, seq, std::move(detail), std::move(involved)});
        }
    }

    /** True when scope @p s of a thread at (cta, gpu) reaches other. */
    bool
    scopeIncludes(litmus::Scope s, std::size_t self,
                  std::size_t other) const
    {
        using litmus::Scope;
        if (self == kNoThread || other == kNoThread)
            return false;
        const TraceThread &a = threads[self];
        const TraceThread &b = threads[other];
        switch (s) {
        case Scope::Cta:
            return a.cta == b.cta && a.gpu == b.gpu;
        case Scope::Gpu:
            return a.gpu == b.gpu;
        case Scope::Sys:
            return true;
        case Scope::None:
            return false;
        }
        return false;
    }

    /** Morally strong: both strong, each scope includes the other. */
    bool
    morallyStrong(litmus::Semantics semA, litmus::Scope scopeA,
                  std::size_t threadA, litmus::Semantics semB,
                  litmus::Scope scopeB, std::size_t threadB) const
    {
        return litmus::isStrong(semA) && litmus::isStrong(semB) &&
               scopeIncludes(scopeA, threadA, threadB) &&
               scopeIncludes(scopeB, threadB, threadA);
    }

    /** w happens-before thread t's current point. */
    bool
    hbToNow(const WriteInfo &w, std::size_t t) const
    {
        if (w.thread == kNoThread)
            return true; // init writes precede everything
        return w.clock[w.thread] <= vc[t][w.thread];
    }

    /** a happens-before b (both writes, by issue-time snapshots). */
    bool
    hbWriteWrite(const WriteInfo &a, const WriteInfo &b) const
    {
        if (a.thread == kNoThread)
            return true;
        if (b.thread == kNoThread)
            return false;
        return a.clock[a.thread] <= b.clock[a.thread];
    }

    /** Deque index of the committed write with commit number coPos. */
    static std::size_t
    coIndexOf(const LocationState &loc, std::uint64_t coPos)
    {
        // loc.co is dense in commit numbers: front() holds the oldest
        // live one.
        return (std::size_t)(coPos - loc.co.front()->coPos);
    }

    /** Thread t's last SC fence, or kNoFence if none is live. */
    std::uint64_t
    lastLiveScFence(std::size_t t) const
    {
        const ScHistory &h = scHistory[t];
        if (h.count == 0)
            return kNoFence;
        const std::uint64_t fid =
            h.newest[(h.count - 1) % FenceSet::kCap];
        return fid >= fidFloor ? fid : kNoFence;
    }

    /**
     * Call fn(fid) for the SC fences program-order-after write w,
     * oldest first: the newest FenceSet::kCap its issuer has issued
     * since w, exactly what a capped FenceSet fed every such fence
     * would hold.
     */
    template <typename Fn>
    void
    forFencesAfter(const WriteInfo &w, Fn fn) const
    {
        if (w.thread == kNoThread)
            return;
        const ScHistory &h = scHistory[w.thread];
        std::uint64_t k = std::max<std::uint64_t>(
            w.scFencesBefore,
            h.count > FenceSet::kCap ? h.count - FenceSet::kCap : 0);
        for (; k < h.count; k++)
            fn(h.newest[k % FenceSet::kCap]);
    }

    bool
    validThread(const TraceEvent &ev)
    {
        if (ev.thread < threads.size())
            return true;
        violation(ViolationKind::Malformed, ev.seq,
                  "thread index out of range");
        return false;
    }

    bool
    validLocation(const TraceEvent &ev)
    {
        if (ev.location < locations.size())
            return true;
        violation(ViolationKind::Malformed, ev.seq,
                  "location index out of range");
        return false;
    }

    /** Look up a live write by uid; classifies misses. */
    WriteInfo *
    findWrite(std::uint64_t uid, std::size_t location,
              std::uint64_t seq, const char *role)
    {
        auto it = writes.find(uid);
        if (it != writes.end())
            return &it->second;
        if (location < locState.size() &&
            uid < locState[location].uidFloor) {
            // Retired from the window: unknowable, not convictable.
            report.stats.rfUnknown++;
            return nullptr;
        }
        violation(ViolationKind::Malformed, seq,
                  std::string(role) + " references unknown write uid " +
                      std::to_string(uid));
        return nullptr;
    }

    // ---- fence-SC order ----------------------------------------------

    /**
     * Record the forced SC edge before -> after; a cycle is a fence-SC
     * violation. Edges between fences that are not morally strong with
     * each other are not forced by the axiom and are skipped. Returns
     * whether the obligation is discharged for good: before is retired
     * (it can never convict again) or scGraph now orders before ahead
     * of after.
     */
    bool
    addScEdge(std::uint64_t before, std::uint64_t after,
              std::uint64_t seq, const char *why)
    {
        if (before < fidFloor)
            return true;
        if (before == after || after < fidFloor)
            return false;
        const std::size_t b = before - fidFloor;
        const std::size_t a = after - fidFloor;
        const FenceInfo &fb = liveFences[b];
        const FenceInfo &fa = liveFences[a];
        if (!scopeIncludes(fb.scope, fb.thread, fa.thread) ||
            !scopeIncludes(fa.scope, fa.thread, fb.thread))
            return false;
        if (scGraph.contains(b, a)) {
            report.stats.scEdgesRedundant++;
            return true;
        }
        if (scGraph.insertWouldCycle(b, a)) {
            violation(ViolationKind::FenceSc, seq,
                      std::string("forced SC-fence order is cyclic (") +
                          why + " forces fence at seq " +
                          std::to_string(fb.seq) +
                          " before fence at seq " +
                          std::to_string(fa.seq) +
                          ", but the reverse order is already forced)",
                      {fb.seq, fa.seq});
            return false;
        }
        scGraph.insertClosure(b, a);
        report.stats.scEdgesAdded++;
        return true;
    }

    /**
     * Retire the older half of the live SC fences. liveFences is
     * fid-dense, so the survivors' local ids all drop by the same
     * amount: shifting scGraph keeps every edge among them.
     */
    void
    retireFences()
    {
        const std::size_t drop = liveFences.size() / 2;
        if (drop == 0)
            return;
        scGraph.shiftDown(drop);
        for (std::size_t i = 0; i < drop; i++)
            liveFences.pop_front();
        fidFloor += drop;
        report.stats.retiredFences += drop;
    }

    // ---- per-event handlers ------------------------------------------

    void
    onStore(const TraceEvent &ev)
    {
        report.stats.stores++;
        if (!validThread(ev) || !validLocation(ev))
            return;
        if (ev.uid == kNoUid) {
            violation(ViolationKind::Malformed, ev.seq,
                      "store missing uid");
            return;
        }
        if (ev.uid < locations.size()) {
            violation(ViolationKind::Malformed, ev.seq,
                      "store uid collides with an init write");
            return;
        }
        if (writes.count(ev.uid)) {
            violation(ViolationKind::Malformed, ev.seq,
                      "store uid " + std::to_string(ev.uid) +
                          " already issued");
            return;
        }
        WriteInfo w;
        w.uid = ev.uid;
        w.seq = ev.seq;
        w.thread = ev.thread;
        w.location = ev.location;
        w.value = ev.value;
        w.sem = ev.sem;
        w.scope = ev.scope;
        w.proxy = ev.proxy;
        w.isRmw = (ev.op == TraceOp::Rmw);
        w.rmwRf = w.isRmw ? ev.rf : kNoUid;
        // Async-proxy accesses are unordered in program order until the
        // matching wait; snapshot without advancing the clock.
        if (ev.proxy != litmus::ProxyKind::Async)
            vc[ev.thread][ev.thread]++;
        w.clock = vc[ev.thread];
        w.fenceBefore = lastLiveScFence(ev.thread);
        w.scFencesBefore = scHistory[ev.thread].count;
        writes.emplace(ev.uid, std::move(w));
        if (writes.size() > report.stats.peakWindow)
            report.stats.peakWindow = writes.size();
    }

    void
    retireLocation(LocationState &loc)
    {
        const std::size_t drop = loc.co.size() / 2;
        std::uint64_t floor = loc.uidFloor;
        for (std::size_t i = 0; i < drop; i++) {
            const WriteInfo *w = loc.co.front();
            loc.co.pop_front();
            if (w->thread != kNoThread)
                loc.own[w->thread].coPos.pop_front();
            floor = std::max(floor, w->uid + 1);
            writes.erase(w->uid);
        }
        loc.uidFloor = floor;
        report.stats.retiredWrites += drop;
    }

    void
    onCommit(const TraceEvent &ev)
    {
        report.stats.commits++;
        auto it = writes.find(ev.uid);
        if (it == writes.end()) {
            violation(ViolationKind::Malformed, ev.seq,
                      "commit of unknown write uid " +
                          std::to_string(ev.uid));
            return;
        }
        WriteInfo &w = it->second;
        if (w.committed) {
            violation(ViolationKind::Malformed, ev.seq,
                      "write uid " + std::to_string(ev.uid) +
                          " committed twice");
            return;
        }
        LocationState &loc = locState[w.location];
        if (loc.own.empty()) {
            loc.own.resize(threads.size());
            loc.maxClock.assign(threads.size(), 0);
            loc.maxClockUid.assign(threads.size(), 0);
            loc.maxClockSeq.assign(threads.size(), 0);
        }
        if (loc.co.size() >= opts.window)
            retireLocation(loc);

        // Coherence: this write must not causally precede any write
        // already committed at this location. The per-thread max of
        // committed snapshots answers that in O(threads), and survives
        // retirement.
        // Only generic-proxy writes make (and are held to) causality
        // claims here: an async or surface write's snapshot reflects
        // the issuing thread's clock, but the paths themselves are
        // unordered against generic traffic until the matching proxy
        // fence, so commit-order inversions against them are the
        // paper's expected mixed-proxy behavior, not violations.
        const bool genericWrite =
            w.proxy == litmus::ProxyKind::Generic;
        if (w.thread != kNoThread && genericWrite) {
            const std::uint64_t stamp = w.clock[w.thread];
            if (stamp != 0 && loc.maxClock[w.thread] >= stamp) {
                violation(
                    ViolationKind::Coherence, ev.seq,
                    "commit order contradicts causality: write uid " +
                        std::to_string(w.uid) +
                        " causally precedes already-committed uid " +
                        std::to_string(loc.maxClockUid[w.thread]),
                    {w.seq, loc.maxClockSeq[w.thread]});
            }
        }

        // Atomicity: for the write half of an RMW, no morally-strong
        // write may sit in coherence order between its read source and
        // this commit.
        if (w.isRmw && w.rmwRf != kNoUid) {
            auto src = writes.find(w.rmwRf);
            if (src != writes.end() && src->second.committed &&
                loc.co.back() != &src->second) {
                const std::size_t from =
                    coIndexOf(loc, src->second.coPos) + 1;
                for (std::size_t i = from; i < loc.co.size(); i++) {
                    const WriteInfo &mid = *loc.co[i];
                    if (morallyStrong(mid.sem, mid.scope, mid.thread,
                                      w.sem, w.scope, w.thread)) {
                        violation(
                            ViolationKind::Atomicity, ev.seq,
                            "write uid " + std::to_string(mid.uid) +
                                " intervenes between atomic read "
                                "(uid " +
                                std::to_string(w.rmwRf) +
                                ") and its write (uid " +
                                std::to_string(w.uid) + ")",
                            {src->second.seq, mid.seq, w.seq});
                        break;
                    }
                }
            }
        }

        // Append to the location's coherence order; coPos is the order.
        w.committed = true;
        w.coPos = loc.nextCoPos++;
        loc.co.push_back(&w);
        if (w.thread != kNoThread)
            loc.own[w.thread].coPos.push_back(w.coPos);

        // Fold this write's snapshot into the per-thread maxima.
        if (w.thread != kNoThread && genericWrite) {
            for (std::size_t u = 0; u < threads.size(); u++) {
                if (w.clock[u] > loc.maxClock[u]) {
                    loc.maxClock[u] = w.clock[u];
                    loc.maxClockUid[u] = w.uid;
                    loc.maxClockSeq[u] = w.seq;
                }
            }
        }

        // fence-SC: a commit after the source of an earlier observation
        // forces edges when this thread's later fences arrive; collect
        // the co-predecessor's obligations onto this thread.
        if (w.thread != kNoThread && loc.co.size() >= 2) {
            const WriteInfo &prev = *loc.co[loc.co.size() - 2];
            if (prev.fenceBefore != kNoFence &&
                prev.fenceBefore >= fidFloor)
                pendingRead[w.thread].add(prev.fenceBefore);
            for (std::uint64_t fid : prev.readerFences.ids) {
                if (fid >= fidFloor)
                    pendingRead[w.thread].add(fid);
            }
        }
    }

    /** Shared read-side logic for ld and the read half of atom. */
    void
    onRead(const TraceEvent &ev, std::uint64_t observed)
    {
        if (!validThread(ev) || !validLocation(ev))
            return;
        if (ev.rf == kNoUid) {
            violation(ViolationKind::Malformed, ev.seq,
                      "load missing rf");
            return;
        }
        const std::size_t t = ev.thread;
        WriteInfo *w = findWrite(ev.rf, ev.location, ev.seq, "load rf");
        if (w) {
            if (w->location != ev.location) {
                violation(ViolationKind::Malformed, ev.seq,
                          "load rf uid " + std::to_string(ev.rf) +
                              " names a write to a different location");
                w = nullptr;
            } else if (w->value != observed) {
                violation(ViolationKind::RfValue, ev.seq,
                          "load observed value " +
                              std::to_string(observed) +
                              " but write uid " + std::to_string(ev.rf) +
                              " wrote " + std::to_string(w->value),
                          {w->seq, ev.seq});
            }
        }

        // Synchronization: a morally-strong same-proxy release/acquire
        // pair joins the writer's knowledge into this thread.
        if (w && litmus::hasAcquire(ev.sem) &&
            litmus::hasRelease(w->sem) && w->proxy == ev.proxy &&
            morallyStrong(w->sem, w->scope, w->thread, ev.sem, ev.scope,
                          t)) {
            for (std::size_t u = 0; u < threads.size(); u++) {
                if (w->clock[u] > vc[t][u])
                    vc[t][u] = w->clock[u];
            }
        }

        // Causality (staleness): reading w is illegal if some same-proxy
        // write w', coherence-after w, already happens-before this read.
        // Fast path: reads of the coherence-latest write skip the scan.
        const std::uint64_t fenceA = lastLiveScFence(t);
        if (w && w->committed) {
            LocationState &loc = locState[ev.location];
            const bool overwritten = loc.co.back() != w;
            if (fenceA != kNoFence && w->readerFences.add(fenceA) &&
                overwritten) {
                // w's co-successor owes the next fences of its thread
                // a new edge: reopen it for onFence.
                const WriteInfo &next =
                    *loc.co[coIndexOf(loc, w->coPos) + 1];
                if (next.thread != kNoThread) {
                    OwnWrites &mine = loc.own[next.thread];
                    mine.mark = std::min(mine.mark, next.coPos);
                }
            }
            if (overwritten) {
                // The staleness conviction only applies when write,
                // read, and the later write all live in the generic
                // proxy: non-generic caches are legitimately
                // non-coherent until the matching proxy fence, which
                // this approximation does not model.
                const bool generic =
                    ev.proxy == litmus::ProxyKind::Generic &&
                    w->proxy == litmus::ProxyKind::Generic;
                const std::size_t from = coIndexOf(loc, w->coPos) + 1;
                bool flagged = false;
                for (std::size_t i = from; i < loc.co.size(); i++) {
                    const WriteInfo &later = *loc.co[i];
                    if (!flagged && generic &&
                        later.proxy == litmus::ProxyKind::Generic &&
                        later.thread != t && hbToNow(later, t)) {
                        violation(
                            ViolationKind::Causality, ev.seq,
                            "stale read: load observed uid " +
                                std::to_string(w->uid) +
                                " although coherence-later uid " +
                                std::to_string(later.uid) +
                                " already happens-before it",
                            {w->seq, later.seq, ev.seq});
                        flagged = true;
                    }
                    // fence-SC via fr: our preceding fence is forced
                    // before any fence already program-order-after a
                    // coherence-later write.
                    if (fenceA != kNoFence) {
                        forFencesAfter(later, [&](std::uint64_t fid) {
                            addScEdge(fenceA, fid, ev.seq,
                                      "read of an overwritten value");
                        });
                    }
                }
            }
        }

        // fence-SC via rf: the writer's preceding fence is forced before
        // this thread's next fence.
        if (w && w->fenceBefore != kNoFence &&
            w->fenceBefore >= fidFloor)
            pendingRead[t].add(w->fenceBefore);

        // The read itself advances this thread's clock.
        if (ev.proxy != litmus::ProxyKind::Async)
            vc[t][t]++;

        if (!ev.destReg.empty())
            lastReg[{t, ev.destReg}] = observed;
    }

    void
    onLoad(const TraceEvent &ev)
    {
        report.stats.loads++;
        onRead(ev, ev.value);
    }

    void
    onRmw(const TraceEvent &ev)
    {
        report.stats.rmws++;
        onRead(ev, ev.oldValue);
        // The write half issues immediately after the read joined and
        // advanced the clock; its commit line follows in the trace.
        onStore(ev);
    }

    void
    onFence(const TraceEvent &ev)
    {
        report.stats.fences++;
        if (!validThread(ev))
            return;
        const std::size_t t = ev.thread;
        vc[t][t]++;
        if (ev.sem != litmus::Semantics::Sc)
            return;

        if (liveFences.size() >= opts.window)
            retireFences();
        const std::uint64_t fid = nextFid++;
        liveFences.push_back(FenceInfo{fid, ev.seq, t, ev.scope});

        // Program order chains this thread's SC fences.
        ScHistory &history = scHistory[t];
        const std::uint64_t last = lastLiveScFence(t);
        if (last == kNoFence ||
            !addScEdge(last, fid, ev.seq, "program order"))
            history.chainStart = fid;
        // Communication observed by this thread forces earlier fences
        // before this one.
        for (std::uint64_t before : pendingRead[t].ids) {
            if (before >= fidFloor)
                addScEdge(before, fid, ev.seq, "communication");
        }
        pendingRead[t].clear();
        // Causality between fences (clock comparison against every
        // live fence's issuing thread knowledge): subsumed by the
        // program-order and communication edges above, which are the
        // only causality channels this checker models.

        // This fence is program-order-after every live write this
        // thread has issued (forFencesAfter derives that side);
        // co-predecessors of the committed ones owe it an edge. Visit
        // them by location, then commit order, skipping writes whose
        // obligations were all discharged into an earlier fence of
        // this thread that program order still chains to this one:
        // closure already orders those edges ahead of this fence.
        for (LocationState &loc : locState) {
            if (loc.own.empty())
                continue;
            OwnWrites &mine = loc.own[t];
            auto from = mine.coPos.begin();
            if (mine.at != kNoFence && mine.at >= history.chainStart)
                from = std::lower_bound(from, mine.coPos.end(),
                                        mine.mark);
            std::uint64_t open = loc.nextCoPos;
            for (auto it = from; it != mine.coPos.end(); ++it) {
                // The write's direct co-predecessor, if still in the
                // window.
                const std::size_t idx = coIndexOf(loc, *it);
                if (idx == 0)
                    continue;
                const WriteInfo &prev = *loc.co[idx - 1];
                bool done = true;
                if (prev.fenceBefore != kNoFence)
                    done = addScEdge(prev.fenceBefore, fid, ev.seq,
                                     "coherence order");
                for (std::uint64_t before : prev.readerFences.ids)
                    done = addScEdge(before, fid, ev.seq,
                                     "read before overwrite") &&
                           done;
                if (!done)
                    open = std::min(open, *it);
            }
            mine.mark = open;
            mine.at = fid;
        }
        history.push(fid);
    }

    void
    onProxyFence(const TraceEvent &ev)
    {
        report.stats.fences++;
        if (!validThread(ev))
            return;
        // Proxy fences order proxies within a thread; the causality
        // approximation does not model ppbc, so only the clock moves.
        vc[ev.thread][ev.thread]++;
    }

    void
    onBarrier(const TraceEvent &ev)
    {
        report.stats.barriers++;
        if (!validThread(ev))
            return;
        const std::size_t t = ev.thread;
        vc[t][t]++;
        const TraceThread &self = threads[t];
        const std::pair<int, int> cta{self.gpu, self.cta};
        BarrierState &bar = barriers[cta];
        if (bar.clock.empty())
            bar.clock.assign(threads.size(), 0);
        for (std::size_t u = 0; u < threads.size(); u++) {
            if (vc[t][u] > bar.clock[u])
                bar.clock[u] = vc[t][u];
        }
        bar.arrived++;
        if (bar.arrived < ctaSize[cta])
            return;
        // Rendezvous complete: every participant leaves knowing
        // everything any participant knew on arrival.
        for (std::size_t u = 0; u < threads.size(); u++) {
            if (threads[u].cta != self.cta || threads[u].gpu != self.gpu)
                continue;
            for (std::size_t v = 0; v < threads.size(); v++) {
                if (bar.clock[v] > vc[u][v])
                    vc[u][v] = bar.clock[v];
            }
        }
        barriers.erase(cta);
    }
};

void
checkWindow(std::size_t window)
{
    if (window < kMinWindow || window > kMaxWindow) {
        fatal("conform window must be between ", kMinWindow, " and ",
              kMaxWindow, ", got ", window);
    }
}

StreamChecker::StreamChecker(ConformOptions opts)
{
    checkWindow(opts.window);
    impl = new Impl(opts);
}

StreamChecker::~StreamChecker()
{
    delete impl;
}

void
StreamChecker::begin(const TraceHeader &header)
{
    Impl &st = *impl;
    if (st.haveHeader) {
        st.violation(ViolationKind::Malformed, 0,
                     "duplicate trace header");
        return;
    }
    st.haveHeader = true;
    st.report.test = header.test;
    st.threads = header.threads;
    st.locations = header.locations;
    st.vc.assign(st.threads.size(),
                 std::vector<std::uint64_t>(st.threads.size(), 0));
    st.scHistory.assign(st.threads.size(), {});
    st.pendingRead.assign(st.threads.size(), {});
    for (const TraceThread &thread : st.threads)
        st.ctaSize[{thread.gpu, thread.cta}]++;
    st.locState.clear();
    st.locState.reserve(st.locations.size());
    for (std::size_t i = 0; i < st.locations.size(); i++) {
        Impl::LocationState &loc = st.locState.emplace_back();
        // The init write: uid i, committed first, before everything.
        Impl::WriteInfo init;
        init.uid = i;
        init.location = i;
        init.value = st.locations[i].init;
        init.committed = true;
        init.coPos = loc.nextCoPos++;
        Impl::WriteInfo &stored =
            st.writes.emplace(i, std::move(init)).first->second;
        loc.co.push_back(&stored);
    }
    if (st.writes.size() > st.report.stats.peakWindow)
        st.report.stats.peakWindow = st.writes.size();
}

void
StreamChecker::event(const TraceEvent &ev)
{
    Impl &st = *impl;
    st.report.stats.events++;
    if (!st.haveHeader) {
        st.violation(ViolationKind::Malformed, ev.seq,
                     "event before trace header");
        return;
    }
    if (st.sawFooter) {
        st.violation(ViolationKind::Malformed, ev.seq,
                     "event after finish footer");
        return;
    }
    switch (ev.op) {
    case TraceOp::Store:
        st.onStore(ev);
        break;
    case TraceOp::Commit:
        st.onCommit(ev);
        break;
    case TraceOp::Load:
        st.onLoad(ev);
        break;
    case TraceOp::Rmw:
        st.onRmw(ev);
        break;
    case TraceOp::Fence:
        st.onFence(ev);
        break;
    case TraceOp::FenceProxy:
        st.onProxyFence(ev);
        break;
    case TraceOp::Barrier:
        st.onBarrier(ev);
        break;
    }
}

void
StreamChecker::footer(const TraceFooter &footer)
{
    Impl &st = *impl;
    if (!st.haveHeader) {
        st.violation(ViolationKind::Malformed, 0,
                     "finish footer before trace header");
        return;
    }
    if (st.sawFooter) {
        st.violation(ViolationKind::Malformed, 0,
                     "duplicate finish footer");
        return;
    }
    st.sawFooter = true;
    st.report.sawFooter = true;

    // Registers: the footer must agree with the last value each load
    // put into its destination register.
    for (const auto &[key, value] : st.lastReg) {
        const std::string name =
            st.threads[key.first].name + "." + key.second;
        auto it = footer.registers.find(name);
        if (it == footer.registers.end()) {
            st.violation(ViolationKind::Malformed, 0,
                         "footer missing register " + name);
        } else if (it->second != value) {
            st.violation(ViolationKind::Malformed, 0,
                         "footer register " + name + " is " +
                             std::to_string(it->second) +
                             " but the trace last loaded " +
                             std::to_string(value));
        }
    }

    // Memory: the footer must agree with the coherence-last write of
    // each location.
    for (std::size_t i = 0; i < st.locations.size(); i++) {
        const Impl::LocationState &loc = st.locState[i];
        std::uint64_t final = st.locations[i].init;
        if (!loc.co.empty())
            final = loc.co.back()->value;
        auto it = footer.memory.find(st.locations[i].name);
        if (it == footer.memory.end()) {
            st.violation(ViolationKind::Malformed, 0,
                         "footer missing location " +
                             st.locations[i].name);
        } else if (it->second != final) {
            st.violation(ViolationKind::Malformed, 0,
                         "footer location " + st.locations[i].name +
                             " is " + std::to_string(it->second) +
                             " but the last committed write left " +
                             std::to_string(final));
        }
    }

    litmus::Outcome outcome;
    outcome.registers = footer.registers;
    outcome.memory = footer.memory;
    st.report.outcome = std::move(outcome);
}

void
StreamChecker::malformedLine(std::uint64_t lineNumber,
                             const std::string &why)
{
    impl->violation(ViolationKind::Malformed, 0,
                    "line " + std::to_string(lineNumber) + ": " + why);
}

ConformReport
StreamChecker::finish()
{
    Impl &st = *impl;
    if (!st.haveHeader) {
        st.violation(ViolationKind::Malformed, 0,
                     "trace has no header");
    } else if (!st.sawFooter) {
        st.violation(ViolationKind::Malformed, 0,
                     "trace ended without a finish footer");
    }

    const ConformStats &stats = st.report.stats;
    obs::count("conform.traces");
    obs::count("conform.events", stats.events);
    obs::count("conform.loads", stats.loads);
    obs::count("conform.stores", stats.stores);
    obs::count("conform.commits", stats.commits);
    obs::count("conform.rmws", stats.rmws);
    obs::count("conform.fences", stats.fences);
    obs::count("conform.barriers", stats.barriers);
    obs::count("conform.rf_unknown", stats.rfUnknown);
    obs::count("conform.retired_writes", stats.retiredWrites);
    obs::count("conform.retired_fences", stats.retiredFences);
    obs::count("conform.sc_edges.added", stats.scEdgesAdded);
    obs::count("conform.sc_edges.redundant", stats.scEdgesRedundant);
    static const char *const kKindCounter[kViolationKinds] = {
        "conform.violations.malformed", "conform.violations.rf_value",
        "conform.violations.coherence", "conform.violations.causality",
        "conform.violations.atomicity", "conform.violations.fence_sc",
    };
    for (std::size_t k = 0; k < kViolationKinds; k++)
        obs::count(kKindCounter[k], stats.byKind[k]);
    obs::gauge("conform.window.peak", (double)stats.peakWindow);

    return std::move(st.report);
}

ConformReport
checkTrace(std::istream &in, const ConformOptions &opts)
{
    obs::Span span("conform.check");
    StreamChecker checker(opts);
    TraceReader reader(in);
    TraceLine line;
    for (;;) {
        const TraceReader::Status status = reader.next(line);
        if (status == TraceReader::Status::Eof)
            break;
        if (status == TraceReader::Status::Error) {
            checker.malformedLine(reader.lineNumber(), reader.error());
            continue;
        }
        switch (line.kind) {
        case TraceLine::Kind::Header:
            checker.begin(line.header);
            break;
        case TraceLine::Kind::Event:
            checker.event(line.event);
            break;
        case TraceLine::Kind::Footer:
            checker.footer(line.footer);
            break;
        }
    }
    return checker.finish();
}

ConformReport
checkTraceFile(const std::string &path, const ConformOptions &opts)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file ", path);
    return checkTrace(in, opts);
}

} // namespace mixedproxy::conform
