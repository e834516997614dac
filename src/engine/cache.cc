#include "cache.hh"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/json.hh"
#include "obs/obs.hh"
#include "relation/error.hh"

namespace mixedproxy::engine {

namespace {

/**
 * SHA-256 (FIPS 180-4). Self-contained so the disk store stays
 * dependency-free; litmus-test fingerprints are tiny, so throughput is
 * irrelevant here.
 */
class Sha256
{
  public:
    Sha256() { reset(); }

    void update(const unsigned char *data, std::size_t length)
    {
        for (std::size_t i = 0; i < length; i++) {
            block[blockLen++] = data[i];
            if (blockLen == 64) {
                transform();
                bitLen += 512;
                blockLen = 0;
            }
        }
    }

    std::string hexDigest()
    {
        // Pad: 0x80, zeros, 64-bit big-endian message length.
        std::uint64_t totalBits = bitLen + blockLen * 8;
        std::size_t i = blockLen;
        block[i++] = 0x80;
        if (i > 56) {
            while (i < 64)
                block[i++] = 0;
            transform();
            i = 0;
        }
        while (i < 56)
            block[i++] = 0;
        for (int b = 7; b >= 0; b--)
            block[i++] =
                static_cast<unsigned char>(totalBits >> (b * 8));
        transform();

        std::string hex;
        hex.reserve(64);
        for (std::uint32_t word : state) {
            char buffer[16];
            std::snprintf(buffer, sizeof buffer, "%08x", word);
            hex += buffer;
        }
        return hex;
    }

  private:
    void reset()
    {
        state[0] = 0x6a09e667;
        state[1] = 0xbb67ae85;
        state[2] = 0x3c6ef372;
        state[3] = 0xa54ff53a;
        state[4] = 0x510e527f;
        state[5] = 0x9b05688c;
        state[6] = 0x1f83d9ab;
        state[7] = 0x5be0cd19;
    }

    static std::uint32_t rotr(std::uint32_t x, int n)
    {
        return (x >> n) | (x << (32 - n));
    }

    void transform()
    {
        static constexpr std::uint32_t k[64] = {
            0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
            0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
            0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
            0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
            0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
            0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
            0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
            0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
            0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
            0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
            0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
            0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
            0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
        };

        std::uint32_t w[64];
        for (int t = 0; t < 16; t++) {
            w[t] = (std::uint32_t(block[t * 4]) << 24) |
                   (std::uint32_t(block[t * 4 + 1]) << 16) |
                   (std::uint32_t(block[t * 4 + 2]) << 8) |
                   std::uint32_t(block[t * 4 + 3]);
        }
        for (int t = 16; t < 64; t++) {
            std::uint32_t s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^
                               (w[t - 15] >> 3);
            std::uint32_t s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^
                               (w[t - 2] >> 10);
            w[t] = w[t - 16] + s0 + w[t - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];
        for (int t = 0; t < 64; t++) {
            std::uint32_t s1 =
                rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + k[t] + w[t];
            std::uint32_t s0 =
                rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }

    std::uint32_t state[8];
    unsigned char block[64] = {};
    std::size_t blockLen = 0;
    std::uint64_t bitLen = 0;
};

/** Disk-entry format tag; bump on any layout change. */
constexpr const char *kEntryFormat = "mixedproxy.verdict.v3";

json::Value
encodeOutcome(const litmus::Outcome &outcome)
{
    json::Value registers = json::Value::makeObject();
    for (const auto &[name, value] : outcome.registers)
        registers.object[name] = json::Value::makeUint(value);
    json::Value memory = json::Value::makeObject();
    for (const auto &[name, value] : outcome.memory)
        memory.object[name] = json::Value::makeUint(value);

    json::Value entry = json::Value::makeObject();
    entry.object["registers"] = std::move(registers);
    entry.object["memory"] = std::move(memory);
    return entry;
}

bool
decodeOutcome(const json::Value &value, litmus::Outcome &out)
{
    const json::Value *registers = value.find("registers");
    const json::Value *memory = value.find("memory");
    if (!registers || !registers->isObject() || !memory ||
        !memory->isObject()) {
        return false;
    }
    for (const auto &[name, member] : registers->object) {
        if (member.kind != json::Value::Kind::Number ||
            !member.isInteger) {
            return false;
        }
        out.registers[name] = member.integer;
    }
    for (const auto &[name, member] : memory->object) {
        if (member.kind != json::Value::Kind::Number ||
            !member.isInteger) {
            return false;
        }
        out.memory[name] = member.integer;
    }
    return true;
}

json::Value
encodeStats(const model::CheckStats &stats)
{
    json::Value entry = json::Value::makeObject();
    entry.object["rf_assignments"] =
        json::Value::makeUint(stats.rfAssignments);
    entry.object["candidate_executions"] =
        json::Value::makeUint(stats.candidateExecutions);
    entry.object["consistent_executions"] =
        json::Value::makeUint(stats.consistentExecutions);
    entry.object["fast_path_hits"] =
        json::Value::makeUint(stats.fastPathHits);
    entry.object["fast_path_misses"] =
        json::Value::makeUint(stats.fastPathMisses);
    entry.object["fixpoint_iterations"] =
        json::Value::makeUint(stats.fixpointIterations);
    entry.object["bcause_edges"] =
        json::Value::makeUint(stats.bcauseEdges);
    entry.object["ppbc_edges"] = json::Value::makeUint(stats.ppbcEdges);
    entry.object["cause_edges"] =
        json::Value::makeUint(stats.causeEdges);
    // Enumeration-profiler counters (v2): deterministic, so replaying
    // them on a cache hit keeps stats reports jobs- and cache-
    // invariant. Sampled wall-clock numbers are deliberately absent —
    // they never enter CheckStats.
    entry.object["reject_no_thin_air"] =
        json::Value::makeUint(stats.rejectNoThinAir);
    entry.object["reject_value_infeasible"] =
        json::Value::makeUint(stats.rejectValueInfeasible);
    entry.object["reject_causality_a"] =
        json::Value::makeUint(stats.rejectCausalityA);
    entry.object["reject_coherence_unembeddable"] =
        json::Value::makeUint(stats.rejectCoherenceUnembeddable);
    entry.object["reject_causality_b"] =
        json::Value::makeUint(stats.rejectCausalityB);
    entry.object["reject_sc_per_location"] =
        json::Value::makeUint(stats.rejectScPerLocation);
    entry.object["reject_atomicity"] =
        json::Value::makeUint(stats.rejectAtomicity);
    entry.object["reject_fence_sc"] =
        json::Value::makeUint(stats.rejectFenceSc);
    json::Value depth = json::Value::makeArray();
    for (std::uint64_t bucket : stats.depthHistogram)
        depth.array.push_back(json::Value::makeUint(bucket));
    entry.object["depth_histogram"] = std::move(depth);
    entry.object["enum_reads"] = json::Value::makeUint(stats.enumReads);
    entry.object["enum_source_slots"] =
        json::Value::makeUint(stats.enumSourceSlots);
    entry.object["co_locations"] =
        json::Value::makeUint(stats.coLocations);
    entry.object["co_orders"] = json::Value::makeUint(stats.coOrders);
    // Layered-engine counters (v3): deterministic per (test, core), so
    // they round-trip like the other profiler counters.
    entry.object["layer_base_reuse"] =
        json::Value::makeUint(stats.layerBaseReuse);
    entry.object["layer_rf_delta"] =
        json::Value::makeUint(stats.layerRfDelta);
    entry.object["layer_rf_prefix_reject"] =
        json::Value::makeUint(stats.layerRfPrefixReject);
    entry.object["layer_co_prefix_reject"] =
        json::Value::makeUint(stats.layerCoPrefixReject);
    return entry;
}

void
decodeStats(const json::Value &value, model::CheckStats &out)
{
    out.rfAssignments = value.uintOr("rf_assignments", 0);
    out.candidateExecutions = value.uintOr("candidate_executions", 0);
    out.consistentExecutions = value.uintOr("consistent_executions", 0);
    out.fastPathHits = value.uintOr("fast_path_hits", 0);
    out.fastPathMisses = value.uintOr("fast_path_misses", 0);
    out.fixpointIterations = value.uintOr("fixpoint_iterations", 0);
    out.bcauseEdges = value.uintOr("bcause_edges", 0);
    out.ppbcEdges = value.uintOr("ppbc_edges", 0);
    out.causeEdges = value.uintOr("cause_edges", 0);
    out.rejectNoThinAir = value.uintOr("reject_no_thin_air", 0);
    out.rejectValueInfeasible =
        value.uintOr("reject_value_infeasible", 0);
    out.rejectCausalityA = value.uintOr("reject_causality_a", 0);
    out.rejectCoherenceUnembeddable =
        value.uintOr("reject_coherence_unembeddable", 0);
    out.rejectCausalityB = value.uintOr("reject_causality_b", 0);
    out.rejectScPerLocation = value.uintOr("reject_sc_per_location", 0);
    out.rejectAtomicity = value.uintOr("reject_atomicity", 0);
    out.rejectFenceSc = value.uintOr("reject_fence_sc", 0);
    if (const json::Value *depth = value.find("depth_histogram")) {
        if (depth->kind == json::Value::Kind::Array) {
            const std::size_t limit = std::min(
                depth->array.size(), out.depthHistogram.size());
            for (std::size_t d = 0; d < limit; d++) {
                const json::Value &bucket = depth->array[d];
                if (bucket.kind == json::Value::Kind::Number &&
                    bucket.isInteger) {
                    out.depthHistogram[d] =
                        static_cast<std::uint64_t>(bucket.integer);
                }
            }
        }
    }
    out.enumReads = value.uintOr("enum_reads", 0);
    out.enumSourceSlots = value.uintOr("enum_source_slots", 0);
    out.coLocations = value.uintOr("co_locations", 0);
    out.coOrders = value.uintOr("co_orders", 0);
    out.layerBaseReuse = value.uintOr("layer_base_reuse", 0);
    out.layerRfDelta = value.uintOr("layer_rf_delta", 0);
    out.layerRfPrefixReject = value.uintOr("layer_rf_prefix_reject", 0);
    out.layerCoPrefixReject = value.uintOr("layer_co_prefix_reject", 0);
}

} // namespace

std::string
sha256Hex(const std::string &data)
{
    Sha256 hasher;
    hasher.update(reinterpret_cast<const unsigned char *>(data.data()),
                  data.size());
    return hasher.hexDigest();
}

std::string
encodeVerdictEntry(const std::string &key, const CachedVerdict &verdict)
{
    json::Value entry = json::Value::makeObject();
    entry.object["format"] = json::Value::makeString(kEntryFormat);
    entry.object["key"] = json::Value::makeString(key);
    entry.object["budget_exceeded"] =
        json::Value::makeBool(verdict.budgetExceeded);

    json::Value outcomes = json::Value::makeArray();
    for (const litmus::Outcome &outcome : verdict.outcomes)
        outcomes.array.push_back(encodeOutcome(outcome));
    entry.object["outcomes"] = std::move(outcomes);
    entry.object["stats"] = encodeStats(verdict.stats);
    return entry.dump();
}

bool
decodeVerdictEntry(const std::string &text, const std::string &key,
                   CachedVerdict &out)
{
    std::unique_ptr<json::Value> doc = json::parse(text);
    if (!doc || !doc->isObject())
        return false;
    if (doc->stringOr("format", "") != kEntryFormat)
        return false;
    // The embedded key is the collision guard: a filename collision
    // (or a truncated/foreign file) must degrade to a miss.
    if (doc->stringOr("key", "") != key)
        return false;

    CachedVerdict verdict;
    verdict.budgetExceeded = doc->boolOr("budget_exceeded", false);
    const json::Value *outcomes = doc->find("outcomes");
    if (!outcomes || outcomes->kind != json::Value::Kind::Array)
        return false;
    for (const json::Value &element : outcomes->array) {
        litmus::Outcome outcome;
        if (!decodeOutcome(element, outcome))
            return false;
        verdict.outcomes.insert(std::move(outcome));
    }
    if (const json::Value *stats = doc->find("stats"))
        decodeStats(*stats, verdict.stats);
    out = std::move(verdict);
    return true;
}

VerdictCache::VerdictCache() : VerdictCache(Config{}) {}

VerdictCache::VerdictCache(Config config) : cfg(std::move(config)) {}

std::string
VerdictCache::fingerprint(const std::string &canonicalKey,
                          model::ProxyMode mode, bool staticFastPath,
                          std::uint64_t maxExecutions,
                          model::PresolvePolicy presolve)
{
    // "fp4" guards this layout the way the canonical key's own version
    // tag guards its serialization; any knob added to CheckOptions that
    // can change the outcome set must be appended here, and the tag
    // bumped when a knob's meaning changes (docs/service.md).
    std::ostringstream os;
    os << "fp4|mode=" << static_cast<int>(mode)
       << "|fast=" << (staticFastPath ? 1 : 0)
       << "|budget=" << maxExecutions
       << "|presolve=" << static_cast<int>(presolve) << '|'
       << canonicalKey;
    return os.str();
}

bool
VerdictCache::memoryLookup(const std::string &key, CachedVerdict &out)
{
    auto it = index.find(key);
    if (it == index.end())
        return false;
    lru.splice(lru.begin(), lru, it->second);
    out = it->second->second;
    return true;
}

std::size_t
VerdictCache::memoryInsert(const std::string &key,
                           const CachedVerdict &verdict)
{
    if (cfg.capacity == 0)
        return 0;
    auto it = index.find(key);
    if (it != index.end()) {
        it->second->second = verdict;
        lru.splice(lru.begin(), lru, it->second);
        return 0;
    }
    lru.emplace_front(key, verdict);
    index[key] = lru.begin();
    std::size_t evictions = 0;
    while (lru.size() > cfg.capacity) {
        index.erase(lru.back().first);
        lru.pop_back();
        evictions++;
    }
    return evictions;
}

std::string
VerdictCache::diskPath(const std::string &key) const
{
    return cfg.diskDir + "/" + sha256Hex(key) + ".json";
}

bool
VerdictCache::diskLoad(const std::string &key, CachedVerdict &out) const
{
    if (cfg.diskDir.empty())
        return false;
    std::ifstream in(diskPath(key));
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return decodeVerdictEntry(buffer.str(), key, out);
}

void
VerdictCache::diskStore(const std::string &key,
                        const CachedVerdict &verdict) const
{
    if (cfg.diskDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.diskDir, ec);
    if (ec)
        return; // Unwritable store degrades to memory-only.

    // Write-then-rename so a concurrent reader (another daemon sharing
    // the store) never sees a torn entry.
    const std::string finalPath = diskPath(key);
    const std::string tempPath =
        finalPath + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream outFile(tempPath, std::ios::trunc);
        if (!outFile)
            return;
        outFile << encodeVerdictEntry(key, verdict) << '\n';
        if (!outFile)
            return;
    }
    std::filesystem::rename(tempPath, finalPath, ec);
    if (ec)
        std::filesystem::remove(tempPath, ec);
}

CachedVerdict
VerdictCache::lookupOrCompute(
    const std::string &key,
    const std::function<CachedVerdict()> &compute, bool *wasHit)
{
    if (wasHit)
        *wasHit = false;
    {
        std::unique_lock lock(mutex);
        for (;;) {
            CachedVerdict cached;
            if (memoryLookup(key, cached)) {
                obs::count("engine.cache.hit");
                if (wasHit)
                    *wasHit = true;
                return cached;
            }
            if (!pending.contains(key))
                break;
            // A twin is computing this key right now: wait for it,
            // then re-check. (If it failed, the entry stays absent and
            // this requester takes over.)
            pendingDone.wait(lock);
        }
        pending.insert(key);
    }

    // Disk probe and compute both run outside the lock; the pending
    // marker keeps duplicate requesters parked meanwhile.
    CachedVerdict fromDisk;
    if (diskLoad(key, fromDisk)) {
        std::size_t evictions;
        {
            std::lock_guard lock(mutex);
            evictions = memoryInsert(key, fromDisk);
            pending.erase(key);
        }
        pendingDone.notify_all();
        obs::count("engine.cache.hit");
        obs::count("engine.cache.disk_hit");
        if (wasHit)
            *wasHit = true;
        if (evictions > 0)
            obs::count("engine.cache.evict", evictions);
        return fromDisk;
    }

    CachedVerdict computed;
    try {
        computed = compute();
    } catch (...) {
        {
            std::lock_guard lock(mutex);
            pending.erase(key);
        }
        pendingDone.notify_all();
        throw;
    }

    std::size_t evictions;
    {
        std::lock_guard lock(mutex);
        evictions = memoryInsert(key, computed);
        pending.erase(key);
    }
    pendingDone.notify_all();
    diskStore(key, computed);
    obs::count("engine.cache.miss");
    if (!cfg.diskDir.empty())
        obs::count("engine.cache.disk_store");
    if (evictions > 0)
        obs::count("engine.cache.evict", evictions);
    return computed;
}

std::size_t
VerdictCache::size() const
{
    std::lock_guard lock(mutex);
    return lru.size();
}

void
VerdictCache::clear()
{
    std::lock_guard lock(mutex);
    lru.clear();
    index.clear();
}

} // namespace mixedproxy::engine
