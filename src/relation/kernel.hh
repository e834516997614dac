/**
 * @file
 * Branch-free word-level kernels for the dense bit-matrix relation layer.
 *
 * Every hot relational operation (union, intersection, difference,
 * composition, closure, delta maintenance) reduces to a handful of
 * row-wise word operations; this header centralizes them so Relation,
 * EventSet and the checker's incremental layers share one implementation.
 * All word-span functions are inline, operate on raw 64-bit word spans,
 * allocate nothing, and avoid per-bit branching beyond set-bit
 * iteration.
 *
 * The tail of the header holds the matrix-level algorithms over a
 * row-major n x n bit-matrix: the delta-closure maintenance op
 * (closureInsert), the semi-naive frontier closure, and the row shift
 * that renumbers a sliding window (shiftRight).
 */

#ifndef MIXEDPROXY_RELATION_KERNEL_HH
#define MIXEDPROXY_RELATION_KERNEL_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "word_store.hh"

namespace mixedproxy::relation::kernel {

constexpr std::size_t kBitsPerWord = 64;

/** Words needed to hold @p n bits. */
inline std::size_t
wordsFor(std::size_t n)
{
    return (n + kBitsPerWord - 1) / kBitsPerWord;
}

/** dst |= src, word-wise. */
inline void
orInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] |= src[i];
}

/** dst &= src, word-wise. */
inline void
andInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] &= src[i];
}

/** dst &= ~src, word-wise. */
inline void
andNotInto(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    for (std::size_t i = 0; i < words; i++)
        dst[i] &= ~src[i];
}

/** dst |= src; true if any bit of dst was newly set. */
inline bool
orIntoGrew(std::uint64_t *dst, const std::uint64_t *src, std::size_t words)
{
    std::uint64_t grew = 0;
    for (std::size_t i = 0; i < words; i++) {
        std::uint64_t add = src[i] & ~dst[i];
        dst[i] |= add;
        grew |= add;
    }
    return grew != 0;
}

/** True if any bit in the span is set. */
inline bool
anyBit(const std::uint64_t *p, std::size_t words)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words; i++)
        acc |= p[i];
    return acc != 0;
}

/** True if a & b share any set bit. */
inline bool
intersects(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t words)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words; i++)
        acc |= a[i] & b[i];
    return acc != 0;
}

/** True if bit @p i is set. */
inline bool
testBit(const std::uint64_t *p, std::size_t i)
{
    return (p[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

/** Set bit @p i. */
inline void
setBit(std::uint64_t *p, std::size_t i)
{
    p[i / kBitsPerWord] |= std::uint64_t{1} << (i % kBitsPerWord);
}

/** Clear bit @p i. */
inline void
clearBit(std::uint64_t *p, std::size_t i)
{
    p[i / kBitsPerWord] &= ~(std::uint64_t{1} << (i % kBitsPerWord));
}

/** Number of set bits in the span. */
inline std::size_t
popcount(const std::uint64_t *p, std::size_t words)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < words; i++)
        count += static_cast<std::size_t>(std::popcount(p[i]));
    return count;
}

/** Invoke @p fn with the index of every set bit, ascending. */
template <typename Fn>
inline void
forEachSetBit(const std::uint64_t *p, std::size_t words, Fn &&fn)
{
    for (std::size_t wi = 0; wi < words; wi++) {
        std::uint64_t w = p[wi];
        while (w != 0) {
            int bit = std::countr_zero(w);
            w &= w - 1;
            fn(wi * kBitsPerWord + static_cast<std::size_t>(bit));
        }
    }
}

/**
 * dst = src >> bits, reading the @p words-word span as one integer:
 * bit i of dst is bit i + bits of src, and the vacated high bits are
 * zero. dst may alias src (every word is read before it is written).
 */
inline void
shiftRight(std::uint64_t *dst, const std::uint64_t *src, std::size_t words,
           std::size_t bits)
{
    const std::size_t skip = bits / kBitsPerWord;
    const std::size_t shift = bits % kBitsPerWord;
    for (std::size_t i = 0; i < words; i++) {
        const std::size_t s = i + skip;
        std::uint64_t w = s < words ? src[s] >> shift : 0;
        if (shift != 0 && s + 1 < words)
            w |= src[s + 1] << (kBitsPerWord - shift);
        dst[i] = w;
    }
}

/**
 * Delta closure maintenance on an n-row matrix of @p words-word rows:
 * add the pair (a, b) to an already transitively closed relation and
 * restore closure by broadcasting reach(b) = {b} ∪ succ(b) into every
 * row that reaches a (and a itself).
 */
inline void
closureInsert(std::uint64_t *rows, std::size_t n, std::size_t words,
              std::size_t a, std::size_t b)
{
    WordStore breach(words);
    const std::uint64_t *brow = rows + b * words;
    std::copy(brow, brow + words, breach.data());
    setBit(breach.data(), b);
    for (std::size_t x = 0; x < n; x++) {
        std::uint64_t *xrow = rows + x * words;
        if (x == a || testBit(xrow, a))
            orInto(xrow, breach.data(), words);
    }
}

/**
 * Close an n-row matrix of @p words-word rows transitively, in place,
 * by semi-naive delta-frontier propagation: each vertex carries the
 * bits newly added to its successor row since it was last propagated;
 * a delta is pushed word-wise into the rows of the vertex's direct
 * predecessors, and only vertices whose rows grew re-enter the
 * worklist.
 */
inline void
frontierClosure(std::uint64_t *rows, std::size_t n, std::size_t words)
{
    if (n == 0)
        return;

    // Transposed adjacency: preds row of x lists x's direct
    // predecessors.
    WordStore preds(n * words);
    for (std::size_t a = 0; a < n; a++) {
        forEachSetBit(rows + a * words, words, [&](std::size_t b) {
            setBit(preds.data() + b * words, a);
        });
    }

    WordStore pending(n * words); // unpropagated deltas
    std::copy(rows, rows + n * words, pending.data());
    std::vector<char> queued(n, 0);
    std::vector<std::size_t> worklist;
    worklist.reserve(n);
    for (std::size_t x = 0; x < n; x++) {
        if (anyBit(pending.data() + x * words, words)) {
            queued[x] = 1;
            worklist.push_back(x);
        }
    }

    WordStore delta(words);
    while (!worklist.empty()) {
        const std::size_t x = worklist.back();
        worklist.pop_back();
        queued[x] = 0;
        std::uint64_t *pend = pending.data() + x * words;
        std::copy(pend, pend + words, delta.data());
        std::fill(pend, pend + words, 0);
        forEachSetBit(preds.data() + x * words, words, [&](std::size_t p) {
            // row(p) |= delta; newly set bits become p's delta.
            std::uint64_t *prow = rows + p * words;
            std::uint64_t *ppend = pending.data() + p * words;
            std::uint64_t grew = 0;
            for (std::size_t wi = 0; wi < words; wi++) {
                std::uint64_t add = delta[wi] & ~prow[wi];
                prow[wi] |= add;
                ppend[wi] |= add;
                grew |= add;
            }
            if (grew != 0 && !queued[p]) {
                queued[p] = 1;
                worklist.push_back(p);
            }
        });
    }
}

} // namespace mixedproxy::relation::kernel

#endif // MIXEDPROXY_RELATION_KERNEL_HH
