#include "generator.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "model/checker.hh"
#include "obs/obs.hh"
#include "relation/error.hh"
#include "runtime/parallel.hh"
#include "synth/mutate.hh"
#include "synth/sc_reference.hh"

namespace mixedproxy::synth {

namespace {

/** One entry of the instruction alphabet. */
struct Template
{
    enum class Kind {
        Store,
        Load,
        ReleaseStore,
        AcquireLoad,
        FenceAcqRel,
        FenceSc,
        ConstLoad,     ///< ld.const through the location's alias
        AliasStore,    ///< generic store through the location's alias
        AliasLoad,     ///< generic load through the location's alias
        ProxyFenceConstant,
        ProxyFenceAlias,
        AtomAdd,
        AsyncCopy,     ///< cp.async [L], [other location]
        AsyncWait,
        Barrier,
    };

    Kind kind;
    bool usesLocation = true;
    bool isLoad = false;
    bool isStore = false;
    bool isFence = false;
    const char *name = "";

    /**
     * The template PTX 6.0 sees once proxies are erased; nullopt when
     * it vanishes (a proxy fence). See erasureKey().
     */
    std::optional<Kind> erasure;
};

std::vector<Template>
alphabet(const SynthOptions &opts)
{
    using K = Template::Kind;
    std::vector<Template> out;
    out.push_back({K::Store, true, false, true, false, "st", K::Store});
    out.push_back({K::Load, true, true, false, false, "ld", K::Load});
    if (opts.withReleaseAcquire) {
        out.push_back({K::ReleaseStore, true, false, true, false,
                       "st.rel", K::ReleaseStore});
        out.push_back({K::AcquireLoad, true, true, false, false,
                       "ld.acq", K::AcquireLoad});
    }
    if (opts.withFences) {
        out.push_back({K::FenceAcqRel, false, false, false, true,
                       "fence.acq_rel", K::FenceAcqRel});
        out.push_back({K::FenceSc, false, false, false, true,
                       "fence.sc", K::FenceSc});
    }
    if (opts.withProxies) {
        out.push_back({K::ConstLoad, true, true, false, false,
                       "ld.const", K::Load});
        out.push_back({K::AliasStore, true, false, true, false,
                       "st.alias", K::Store});
        out.push_back({K::AliasLoad, true, true, false, false,
                       "ld.alias", K::Load});
        out.push_back({K::ProxyFenceConstant, false, false, false, true,
                       "fence.proxy.constant", std::nullopt});
        out.push_back({K::ProxyFenceAlias, false, false, false, true,
                       "fence.proxy.alias", std::nullopt});
    }
    if (opts.withAtomics)
        out.push_back({K::AtomAdd, true, true, true, false, "atom.add",
                       K::AtomAdd});
    if (opts.withAsync) {
        out.push_back({K::AsyncCopy, true, true, true, false,
                       "cp.async", K::AsyncCopy});
        out.push_back({K::AsyncWait, false, false, false, true,
                       "cp.async.wait_all", K::AsyncWait});
    }
    if (opts.withBarriers)
        out.push_back({K::Barrier, false, false, false, false,
                       "bar.sync", K::Barrier});
    return out;
}

/** A program skeleton: per thread, a list of (template, location). */
using Slot = std::pair<std::size_t, std::size_t>;
using Skeleton = std::vector<std::vector<Slot>>;

const char *kLocNames[2] = {"x", "y"};
const char *kAliasNames[2] = {"ax", "ay"};

/**
 * Canonical key modulo thread permutation and location permutation.
 * Thread and location identities are arbitrary labels; two programs
 * related by relabeling have identical behavior.
 */
std::string
canonicalKey(const Skeleton &program, std::size_t locations)
{
    // Stage B calls this once per enumerated skeleton, so for the
    // sizes the synthesizer explores (locations <= 2, a handful of
    // short threads) the relabeling search runs entirely in stack
    // buffers; only the returned key touches the heap. The general
    // path below handles oversized inputs.
    constexpr std::size_t kThreads = 16;
    constexpr std::size_t kKey = 32;
    bool small = program.size() <= kThreads && locations <= 2;
    for (const auto &thread : program)
        small = small && thread.size() * 2 <= kKey;
    if (small) {
        std::size_t loc_perm[2] = {0, 1};
        char best[kThreads * (kKey + 1)];
        std::size_t best_len = 0;
        bool have_best = false;
        do {
            // Relabel locations, then sort threads for thread symmetry.
            char keys[kThreads][kKey];
            std::size_t lens[kThreads];
            std::size_t order[kThreads];
            const std::size_t nt = program.size();
            for (std::size_t t = 0; t < nt; t++) {
                std::size_t len = 0;
                for (const auto &[tmpl, loc] : program[t]) {
                    keys[t][len++] = static_cast<char>('A' + tmpl);
                    keys[t][len++] =
                        static_cast<char>('0' + loc_perm[loc]);
                }
                lens[t] = len;
                order[t] = t;
            }
            std::sort(order, order + nt,
                      [&](std::size_t a, std::size_t b) {
                          return std::lexicographical_compare(
                              keys[a], keys[a] + lens[a], keys[b],
                              keys[b] + lens[b]);
                      });
            char whole[kThreads * (kKey + 1)];
            std::size_t len = 0;
            for (std::size_t i = 0; i < nt; i++) {
                const std::size_t t = order[i];
                std::memcpy(whole + len, keys[t], lens[t]);
                len += lens[t];
                whole[len++] = '|';
            }
            if (!have_best ||
                std::lexicographical_compare(whole, whole + len, best,
                                             best + best_len)) {
                std::memcpy(best, whole, len);
                best_len = len;
                have_best = true;
            }
        } while (
            std::next_permutation(loc_perm, loc_perm + locations));
        return std::string(best, best_len);
    }

    std::string best;
    std::vector<std::size_t> loc_perm(locations);
    for (std::size_t i = 0; i < locations; i++)
        loc_perm[i] = i;
    do {
        // Relabel locations, then sort threads for thread symmetry.
        std::vector<std::string> thread_keys;
        for (const auto &thread : program) {
            std::string key;
            for (const auto &[tmpl, loc] : thread) {
                key += static_cast<char>('A' + tmpl);
                key += static_cast<char>('0' + loc_perm[loc]);
            }
            thread_keys.push_back(key);
        }
        std::sort(thread_keys.begin(), thread_keys.end());
        std::string whole;
        for (const auto &key : thread_keys) {
            whole += key;
            whole += '|';
        }
        if (best.empty() || whole < best)
            best = whole;
    } while (std::next_permutation(loc_perm.begin(), loc_perm.end()));
    return best;
}

/**
 * The PTX 6.0 erasure class of a skeleton: every template replaced by
 * its erasure (Template::erasure), in thread order with thread
 * boundaries kept. Under ProxyMode::Ptx60 every access takes the
 * generic proxy at its canonical location and a proxy fence is inert,
 * and the SC reference resolves aliases and ignores fences, so members
 * of one class share the PTX 6.0 outcome set, its budget verdict and
 * the SC outcome set. There is no symmetry canonicalization: erasure
 * drops no load or store, so members share thread, register, value and
 * location names, and one member's outcome sets serve them all.
 */
std::string
erasureKey(const Skeleton &program, const std::vector<Template> &alpha)
{
    std::string key;
    for (const auto &thread : program) {
        for (const auto &[tmpl, loc] : thread) {
            if (const auto kind = alpha[tmpl].erasure) {
                key += static_cast<char>('A' + static_cast<int>(*kind));
                key += static_cast<char>('0' + loc);
            }
        }
        key += '|';
    }
    return key;
}

/**
 * A pre-decoded instruction prototype for one (template, location)
 * pair. The PTX text of a materialized instruction is fixed up to the
 * embedded store value or destination register, so Stage C decodes
 * each pair once per run and materialization patches the one variable
 * field — replacing the per-candidate ostringstream + decode() parse
 * round-trip that dominated its profile.
 */
struct Proto
{
    enum class Patch { None, StoreValue, LoadReg };

    litmus::Instruction instr;
    Patch patch = Patch::None;
    std::string before; ///< text up to the patched field
    std::string after;  ///< text after the patched field
};

using ProtoTable = std::vector<std::array<Proto, 2>>;

ProtoTable
buildProtos(const std::vector<Template> &alpha)
{
    using K = Template::Kind;
    ProtoTable table(alpha.size());
    for (std::size_t ti = 0; ti < alpha.size(); ti++) {
        for (std::size_t loc = 0; loc < 2; loc++) {
            const std::string l = kLocNames[loc];
            const std::string a = kAliasNames[loc];
            Proto &p = table[ti][loc];
            switch (alpha[ti].kind) {
              case K::Store:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.global.u32 [" + l + "], ";
                break;
              case K::Load:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.global.u32 ";
                p.after = ", [" + l + "]";
                break;
              case K::ReleaseStore:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.release.gpu.u32 [" + l + "], ";
                break;
              case K::AcquireLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.acquire.gpu.u32 ";
                p.after = ", [" + l + "]";
                break;
              case K::FenceAcqRel:
                p.before = "fence.acq_rel.gpu";
                break;
              case K::FenceSc:
                p.before = "fence.sc.gpu";
                break;
              case K::ConstLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.const.u32 ";
                p.after = ", [" + a + "]";
                break;
              case K::AliasStore:
                p.patch = Proto::Patch::StoreValue;
                p.before = "st.global.u32 [" + a + "], ";
                break;
              case K::AliasLoad:
                p.patch = Proto::Patch::LoadReg;
                p.before = "ld.global.u32 ";
                p.after = ", [" + a + "]";
                break;
              case K::ProxyFenceConstant:
                p.before = "fence.proxy.constant";
                break;
              case K::ProxyFenceAlias:
                p.before = "fence.proxy.alias";
                break;
              case K::AtomAdd:
                p.patch = Proto::Patch::LoadReg;
                p.before = "atom.add.u32 ";
                p.after = ", [" + l + "], 1";
                break;
              case K::AsyncCopy:
                // Copy from the other location into this one (self-copy
                // is a no-op and needs two locations to be interesting).
                p.before = "cp.async.ca.u32 [" + l + "], [" +
                           kLocNames[(loc + 1) % 2] + "]";
                break;
              case K::AsyncWait:
                p.before = "cp.async.wait_all";
                break;
              case K::Barrier:
                p.before = "bar.sync 0";
                break;
            }
            std::string sample;
            switch (p.patch) {
              case Proto::Patch::StoreValue:
                sample = p.before + "0";
                break;
              case Proto::Patch::LoadReg:
                sample = p.before + "r0" + p.after;
                break;
              case Proto::Patch::None:
                sample = p.before;
                break;
            }
            p.instr = litmus::decode(sample);
        }
    }
    return table;
}

/** Materialize a skeleton as a LitmusTest. */
litmus::LitmusTest
materialize(const Skeleton &program, const std::vector<Template> &alpha,
            const ProtoTable &protos, std::size_t locations,
            std::size_t index, bool same_cta)
{
    using K = Template::Kind;
    // Declare aliases for every location that an alias template uses.
    std::set<std::size_t> aliased;
    for (const auto &thread : program) {
        for (const auto &[tmpl, loc] : thread) {
            K kind = alpha[tmpl].kind;
            if (kind == K::ConstLoad || kind == K::AliasStore ||
                kind == K::AliasLoad) {
                aliased.insert(loc);
            }
        }
    }
    litmus::LitmusTest test("synth_" + std::to_string(index));
    for (std::size_t loc : aliased)
        test.addAlias(kAliasNames[loc], kLocNames[loc]);
    (void)locations;

    std::uint64_t next_value = 1;
    for (std::size_t t = 0; t < program.size(); t++) {
        litmus::Thread thread;
        // Append rather than operator+: GCC 12's -Wrestrict misfires on
        // literal + std::string&& under heavy inlining (GCC PR105651).
        thread.name = "t";
        thread.name += std::to_string(t);
        // Barriers only rendezvous within a CTA, so the barrier
        // alphabet co-locates all threads.
        thread.cta = same_cta ? 0 : static_cast<int>(t);
        thread.gpu = 0;
        std::size_t next_reg = 0;
        thread.instructions.reserve(program[t].size());
        for (const auto &[tmpl, loc] : program[t]) {
            const Proto &p = protos[tmpl][loc];
            litmus::Instruction instr = p.instr;
            switch (p.patch) {
              case Proto::Patch::StoreValue: {
                const std::uint64_t v = next_value++;
                instr.value = litmus::Operand::ofImm(v);
                instr.text = p.before + std::to_string(v);
                break;
              }
              case Proto::Patch::LoadReg: {
                std::string reg = "r" + std::to_string(next_reg++);
                instr.text = p.before + reg + p.after;
                instr.destReg = std::move(reg);
                break;
              }
              case Proto::Patch::None:
                break;
            }
            thread.instructions.push_back(std::move(instr));
        }
        test.addThread(std::move(thread));
    }
    test.validate();
    return test;
}

/** Mild pruning: keep programs that can exhibit communication. */
bool
worthChecking(const Skeleton &program, const std::vector<Template> &alpha)
{
    bool has_load = false;
    bool has_store = false;
    // Location touched by >= 2 instructions (otherwise trivially boring)
    std::size_t touches[2] = {0, 0};
    for (const auto &thread : program) {
        if (thread.empty())
            return false;
        for (const auto &[tmpl, loc] : thread) {
            has_load |= alpha[tmpl].isLoad;
            has_store |= alpha[tmpl].isStore;
            if (alpha[tmpl].usesLocation)
                touches[loc]++;
        }
    }
    if (!has_load || !has_store)
        return false;
    if (touches[0] < 2 && touches[1] < 2)
        return false;
    return true;
}

} // namespace

std::size_t
SynthReport::writeSuite(const std::string &directory) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(directory, ec);
    if (ec)
        fatal("cannot create suite directory '", directory, "'");
    std::size_t written = 0;
    for (const auto &entry : interesting) {
        fs::path path =
            fs::path(directory) / (entry.test.name() + ".litmus");
        std::ofstream out(path);
        if (!out)
            fatal("cannot write '", path.string(), "'");
        out << "# synthesized litmus test\n"
            << "#   weak (beyond SC):      "
            << (entry.weak ? "yes" : "no") << "\n"
            << "#   proxy-sensitive:       "
            << (entry.proxySensitive ? "yes" : "no") << "\n"
            << "#   fence-minimal:         "
            << (entry.fenceMinimal ? "yes" : "no") << "\n"
            << "#   ptx75/ptx60 outcomes:  " << entry.ptx75Outcomes
            << "/" << entry.ptx60Outcomes << "\n"
            << entry.test.toString();
        written++;
    }
    return written;
}

void
SynthStats::publish(obs::MetricsRegistry &registry) const
{
    registry.add("synth.enumerated", programsEnumerated);
    registry.add("synth.after_pruning", afterPruning);
    registry.add("synth.unique", uniquePrograms);
    registry.add("synth.checked", checked);
    registry.add("synth.skipped_too_expensive", skippedTooExpensive);
    registry.add("synth.weak", weak);
    registry.add("synth.proxy_sensitive", proxySensitive);
    registry.add("synth.fence_minimal", fenceMinimal);
    registry.add("synth.presolve.pruned_ptx60", presolvePrunedPtx60);
    registry.add("synth.presolve.pruned_fence_checks",
                 presolvePrunedFenceChecks);
    registry.add("synth.ptx60_classes", ptx60Classes);
    registry.add("synth.sc_classes", scClasses);
}

std::string
SynthReport::summary() const
{
    std::ostringstream os;
    os << "enumerated " << stats.programsEnumerated << ", pruned to "
       << stats.afterPruning << ", unique " << stats.uniquePrograms
       << ", checked " << stats.checked << " (skipped "
       << stats.skippedTooExpensive << "): weak " << stats.weak
       << ", proxy-sensitive " << stats.proxySensitive
       << ", fence-minimal " << stats.fenceMinimal;
    return os.str();
}

Synthesizer::Synthesizer(SynthOptions options)
    : opts(std::move(options))
{
    if (opts.maxLocations < 1 || opts.maxLocations > 2)
        fatal("maxLocations must be 1 or 2");
    if (opts.instructions < 1)
        fatal("instructions must be at least 1");
    if (opts.maxThreads < 1)
        fatal("maxThreads must be at least 1");
}

namespace {

/**
 * One enumeration shard: a thread shape plus the assignment of its
 * first slot. Shards partition the skeleton space finely enough to
 * keep every worker busy, and enumerating them in order reproduces the
 * exact serial enumeration order.
 */
struct EnumShard
{
    std::vector<std::size_t> parts; ///< instructions per thread
    std::size_t firstTmpl = 0;
    std::size_t firstLoc = 0;
};

/** What one shard's enumeration produced. */
struct ShardResult
{
    std::uint64_t enumerated = 0;
    std::uint64_t pruned = 0;

    /** In-shard deduplicated skeletons, first occurrence first. */
    std::vector<std::pair<std::string, Skeleton>> unique;
};

/** What classifying one unique skeleton produced. */
struct Classified
{
    bool valid = false;        ///< materialize succeeded
    bool checked75 = false;    ///< PTX 7.5 check finished in budget
    bool tooExpensive = false; ///< some check exceeded its budget
    std::uint64_t prunedPtx60 = 0;       ///< oracle-skipped 6.0 checks
    std::uint64_t prunedFenceChecks = 0; ///< oracle-skipped rechecks
    SynthesizedTest entry;

    /** True when Stage D reports the entry. */
    bool kept() const
    {
        return !tooExpensive &&
               (entry.weak || entry.proxySensitive || entry.fenceMinimal);
    }
};

/** One outcome set an erasure class shares, computed at most once. */
struct ClassVerdict
{
    std::once_flag once;
    bool computed = false;
    bool failed = false; ///< over budget, or the check rejected it
    std::set<litmus::Outcome> outcomes;
};

/** The verdicts shared by the members of one erasure class. */
struct ErasureClass
{
    std::size_t first = 0; ///< first member, in unique order
    ClassVerdict ptx60;
    ClassVerdict sc;
};

} // namespace

SynthReport
Synthesizer::run() const
{
    obs::ScopedSession bind(opts.session);
    obs::Span span("synth");
    auto start = std::chrono::steady_clock::now();
    SynthReport report;
    const auto alpha = alphabet(opts);
    const ProtoTable protos = buildProtos(alpha);

    // ---- Stage A: shard the skeleton space -----------------------------
    // Compositions of `instructions` into 1..maxThreads nonincreasing
    // parts (thread order is a symmetry), each split by the first
    // slot's (template, location) assignment.
    std::vector<EnumShard> shards;
    std::vector<std::size_t> parts;
    std::function<void(std::size_t, std::size_t, std::size_t)> compose =
        [&](std::size_t remaining, std::size_t threads_left,
            std::size_t max_part) {
            if (remaining == 0) {
                for (std::size_t tmpl = 0; tmpl < alpha.size(); tmpl++) {
                    std::size_t loc_count =
                        alpha[tmpl].usesLocation ? opts.maxLocations : 1;
                    for (std::size_t loc = 0; loc < loc_count; loc++)
                        shards.push_back({parts, tmpl, loc});
                }
                return;
            }
            if (threads_left == 0)
                return;
            for (std::size_t take = std::min(remaining, max_part);
                 take >= 1; take--) {
                parts.push_back(take);
                compose(remaining - take, threads_left - 1, take);
                parts.pop_back();
            }
        };
    compose(opts.instructions, opts.maxThreads, opts.instructions);

    // Each shard enumerates its subspace in serial nested-loop order
    // and dedups within itself; results land in the shard's slot.
    std::vector<ShardResult> shard_results(shards.size());
    runtime::ParallelOptions par;
    par.jobs = opts.jobs;
    runtime::parallelFor(
        shards.size(), par, [&](std::size_t si, obs::Session *) {
            const EnumShard &shard = shards[si];
            ShardResult &out = shard_results[si];
            std::set<std::string> seen;
            Skeleton program;
            for (std::size_t part : shard.parts)
                program.emplace_back(part, Slot{0, 0});
            program[0][0] = {shard.firstTmpl, shard.firstLoc};

            auto process = [&](const Skeleton &complete) {
                out.enumerated++;
                if (!worthChecking(complete, alpha))
                    return;
                out.pruned++;
                std::string key =
                    canonicalKey(complete, opts.maxLocations);
                if (seen.insert(key).second)
                    out.unique.emplace_back(std::move(key), complete);
            };

            std::function<void(std::size_t, std::size_t)> fill =
                [&](std::size_t thread, std::size_t slot) {
                    if (thread == program.size()) {
                        process(program);
                        return;
                    }
                    std::size_t next_thread = thread;
                    std::size_t next_slot = slot + 1;
                    if (next_slot == program[thread].size()) {
                        next_thread = thread + 1;
                        next_slot = 0;
                    }
                    for (std::size_t tmpl = 0; tmpl < alpha.size();
                         tmpl++) {
                        std::size_t loc_count = alpha[tmpl].usesLocation
                                                    ? opts.maxLocations
                                                    : 1;
                        for (std::size_t loc = 0; loc < loc_count;
                             loc++) {
                            program[thread][slot] = {tmpl, loc};
                            fill(next_thread, next_slot);
                        }
                    }
                };
            // The first slot is fixed by the shard; start at its
            // successor.
            if (program[0].size() > 1)
                fill(0, 1);
            else if (program.size() > 1)
                fill(1, 0);
            else
                process(program);
        });

    // ---- Stage B: merge shard dedups (serial, deterministic) -----------
    // Folding shards in order against one global seen-set reproduces
    // the serial first-occurrence order exactly, so test names and the
    // unique count do not depend on jobs.
    std::set<std::string> seen;
    std::vector<Skeleton> unique_list;
    for (ShardResult &shard : shard_results) {
        report.stats.programsEnumerated += shard.enumerated;
        report.stats.afterPruning += shard.pruned;
        for (auto &[key, skeleton] : shard.unique) {
            if (seen.insert(key).second)
                unique_list.push_back(std::move(skeleton));
        }
    }
    if (opts.maxUniquePrograms != 0 &&
        unique_list.size() > opts.maxUniquePrograms)
        unique_list.resize(opts.maxUniquePrograms);
    report.stats.uniquePrograms = unique_list.size();

    // Erasure classes (erasureKey), numbered in first-member order.
    std::vector<std::size_t> class_of(unique_list.size());
    std::vector<std::size_t> firsts;
    {
        std::unordered_map<std::string, std::size_t> ids;
        for (std::size_t i = 0; i < unique_list.size(); i++) {
            auto [it, fresh] = ids.try_emplace(
                erasureKey(unique_list[i], alpha), firsts.size());
            if (fresh)
                firsts.push_back(i);
            class_of[i] = it->second;
        }
    }
    std::vector<ErasureClass> classes(firsts.size());
    for (std::size_t k = 0; k < firsts.size(); k++)
        classes[k].first = firsts[k];

    // ---- Stage C: classify every unique program ------------------------
    model::CheckOptions check75;
    check75.collectWitnesses = false;
    check75.maxExecutions = opts.maxExecutionsPerTest;
    model::Checker checker75(check75);
    model::CheckOptions check60 = check75;
    check60.mode = model::ProxyMode::Ptx60;
    model::Checker checker60(check60);

    // Program i's share of its class's verdict, computing it on first
    // demand from the class's first member, so the result never
    // depends on which member asked first, or on jobs.
    auto classVerdict =
        [&](std::size_t i, const litmus::LitmusTest &test,
            ClassVerdict ErasureClass::*part,
            const auto &compute) -> const ClassVerdict & {
        ErasureClass &cls = classes[class_of[i]];
        ClassVerdict &verdict = cls.*part;
        std::call_once(verdict.once, [&] {
            obs::Span span("synth.check.class");
            verdict.computed = true;
            try {
                if (cls.first == i) {
                    compute(test, verdict);
                } else {
                    compute(materialize(unique_list[cls.first], alpha,
                                        protos, opts.maxLocations,
                                        cls.first + 1, opts.withBarriers),
                            verdict);
                }
            } catch (const FatalError &) {
                verdict.failed = true;
            }
        });
        return verdict;
    };
    auto computePtx60 = [&](const litmus::LitmusTest &test,
                            ClassVerdict &verdict) {
        auto r60 = checker60.check(test);
        verdict.failed = r60.budgetExceeded;
        verdict.outcomes = std::move(r60.outcomes);
    };
    auto computeSc = [](const litmus::LitmusTest &test,
                        ClassVerdict &verdict) {
        verdict.outcomes = scOutcomes(test);
    };

    auto classify = [&](std::size_t i, Classified &c) {
        litmus::LitmusTest test;
        try {
            obs::Span span("synth.materialize");
            test = materialize(unique_list[i], alpha, protos,
                               opts.maxLocations, i + 1,
                               opts.withBarriers);
        } catch (const FatalError &) {
            // E.g. mismatched barrier sequences within the CTA.
            return;
        }
        c.valid = true;

        obs::Span check_span("synth.check");
        // A copy, not the materialized test itself: on synth_n4, moving
        // `test` into the entry measured 10-20% slower.
        c.entry.test = test;
        try {
            // One static expansion serves both the PTX 7.5 check
            // and the pruning oracle below: the Program carries
            // the precomputed base layers (dep closure, must base
            // causality) the incremental enumeration core starts
            // from, so expanding per consumer would redo exactly
            // the work the layering is meant to share.
            const model::Program prog75 = [&] {
                obs::Span expand("synth.check.expand");
                return model::Program(test, model::ProxyMode::Ptx75);
            }();
            auto r75 = checker75.check(prog75);
            if (r75.budgetExceeded) {
                c.tooExpensive = true;
                return;
            }
            c.entry.ptx75Outcomes = r75.outcomes.size();
            c.checked75 = true;

            // The static pruning oracle: a program all of whose
            // accesses go through one proxy is interpreted
            // identically by both models and by the proxy rules —
            // the same fact the checker's single-proxy fast path
            // rests on (docs/static_solver.md "Synthesis
            // pruning"), so two whole classes of Stage C checks
            // are provably redundant for it.
            bool single_proxy = false;
            if (opts.presolve)
                single_proxy = !prog75.usesMixedProxies();

            if (opts.classifyAgainstSc) {
                const ClassVerdict &sc =
                    classVerdict(i, test, &ErasureClass::sc, computeSc);
                if (sc.failed) {
                    c.tooExpensive = true;
                    return;
                }
                c.entry.scOutcomeCount = sc.outcomes.size();
                for (const auto &outcome : r75.outcomes) {
                    if (!sc.outcomes.count(outcome)) {
                        c.entry.weak = true;
                        break;
                    }
                }
            }
            if (opts.classifyAgainstPtx60) {
                if (single_proxy) {
                    // Both models admit exactly r75's outcomes
                    // (and would enumerate the same candidates,
                    // so the budget verdict matches too).
                    c.entry.ptx60Outcomes = r75.outcomes.size();
                    c.entry.proxySensitive = false;
                    c.prunedPtx60++;
                } else {
                    const ClassVerdict &r60 = classVerdict(
                        i, test, &ErasureClass::ptx60, computePtx60);
                    if (r60.failed) {
                        c.tooExpensive = true;
                        return;
                    }
                    c.entry.ptx60Outcomes = r60.outcomes.size();
                    c.entry.proxySensitive =
                        r60.outcomes != r75.outcomes;
                }
            }
            if (opts.classifyFenceMinimal) {
                bool has_fence = false;
                bool all_load_bearing = true;
                for (std::size_t t = 0;
                     t < test.threads().size() && all_load_bearing;
                     t++) {
                    const auto &instrs = test.threads()[t].instructions;
                    for (std::size_t j = 0; j < instrs.size(); j++) {
                        if (!instrs[j].isFence())
                            continue;
                        has_fence = true;
                        if (single_proxy &&
                            instrs[j].opcode ==
                                litmus::Opcode::FenceProxy) {
                            // A proxy fence in a single-proxy
                            // program anchors no release/acquire
                            // pattern and bridges no cross-proxy
                            // pair: removing it provably leaves
                            // the outcome set unchanged, which is
                            // exactly the recheck's break
                            // condition.
                            c.prunedFenceChecks++;
                            all_load_bearing = false;
                            break;
                        }
                        auto reduced = withoutInstruction(test, t, j);
                        auto rr = checker75.check(reduced);
                        if (rr.budgetExceeded) {
                            c.tooExpensive = true;
                            return;
                        }
                        if (rr.outcomes == r75.outcomes) {
                            all_load_bearing = false;
                            break;
                        }
                    }
                }
                c.entry.fenceMinimal = has_fence && all_load_bearing;
            }
        } catch (const FatalError &) {
            c.tooExpensive = true;
        }
    };

    std::vector<Classified> classified(unique_list.size());
    runtime::parallelFor(
        unique_list.size(), par, [&](std::size_t i, obs::Session *) {
            Classified &c = classified[i];
            classify(i, c);
            // Stage D drops it anyway; do not hold every test to the end.
            if (!c.kept())
                c.entry.test = litmus::LitmusTest();
        });
    for (const ErasureClass &cls : classes) {
        report.stats.ptx60Classes += cls.ptx60.computed;
        report.stats.scClasses += cls.sc.computed;
    }

    // ---- Stage D: fold classifications (serial, index order) -----------
    for (Classified &c : classified) {
        if (!c.valid)
            continue;
        if (c.checked75)
            report.stats.checked++;
        report.stats.presolvePrunedPtx60 += c.prunedPtx60;
        report.stats.presolvePrunedFenceChecks += c.prunedFenceChecks;
        if (c.tooExpensive) {
            report.stats.skippedTooExpensive++;
            continue;
        }
        if (c.entry.weak)
            report.stats.weak++;
        if (c.entry.proxySensitive)
            report.stats.proxySensitive++;
        if (c.entry.fenceMinimal)
            report.stats.fenceMinimal++;
        if (c.kept())
            report.interesting.push_back(std::move(c.entry));
    }

    auto end = std::chrono::steady_clock::now();
    report.stats.seconds =
        std::chrono::duration<double>(end - start).count();
    if (obs::Session *session = obs::current())
        report.stats.publish(session->metrics);
    return report;
}

} // namespace mixedproxy::synth
