/**
 * @file
 * Canonical DFG form and content hash.
 *
 * The serve daemon's result cache is keyed by *graph content*, not by
 * the accident of how a kernel was written down: two requests whose DFGs
 * are isomorphic — same operations, same dependency structure, any node
 * numbering, any node names, any comment/whitespace layout — must
 * produce the same key, or the million-user hot path degrades from a
 * lookup back into a search.
 *
 * canonicalize() derives a deterministic canonical node order from graph
 * structure alone (never from insertion order):
 *
 *  1. Color refinement: every node starts with a color derived from its
 *     opcode, then rounds of Weisfeiler–Lehman-style refinement fold the
 *     sorted multiset of (direction, iteration distance, neighbor color)
 *     signatures into each node's color until the partition stabilizes.
 *     Two nodes keep the same color only if no structural property the
 *     refinement can see distinguishes them.
 *  2. Individualization: while some color class still holds several
 *     nodes (structurally symmetric candidates), the smallest such class
 *     is split by trying each member as the distinguished one, refining
 *     again, and keeping whichever choice yields the lexicographically
 *     smallest canonical text. The minimum over all members is
 *     permutation-invariant even though any single traversal order is
 *     not. Automorphism groups of real kernel DFGs are tiny, so this
 *     branch-and-min almost never explores more than a handful of
 *     leaves. A budget of refinement work (node plus incident-edge
 *     visits, far above what any real kernel spends) bounds the
 *     pathological case, such as a load feeding hundreds of stores: a
 *     search that would overspend it is abandoned, and the ties left
 *     after step 1 are broken by original node id. That fallback form
 *     is deterministic and re-canonicalizes to itself, but it is not
 *     permutation-invariant.
 *
 * The canonical text is the dfg/serialize text format over renumbered
 * nodes with a fixed graph name and no node-name tags, edges sorted by
 * (src, dst, iterDistance) — so it round-trips through dfg::fromText and
 * re-canonicalizes to itself. The hash is FNV-1a over that text.
 */

#ifndef LISA_DFG_CANONICAL_HH
#define LISA_DFG_CANONICAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/dfg.hh"

namespace lisa::dfg {

/** Canonical form of one DFG plus the translation tables back to it. */
struct CanonicalDfg
{
    /** Canonical serialize-format text (round-trips via dfg::fromText). */
    std::string text;
    /** FNV-1a 64-bit hash of `text`. */
    uint64_t hash = 0;
    /** canonical position -> original node id. */
    std::vector<NodeId> nodeOrder;
    /** original node id -> canonical position. */
    std::vector<NodeId> toCanonical;
    /** canonical edge index -> original edge id. */
    std::vector<EdgeId> edgeOrder;
    /** original edge id -> canonical edge index. Parallel edges with an
     *  identical (src, dst, iterDistance) triple are interchangeable;
     *  they are matched in ascending original id order. */
    std::vector<EdgeId> edgeToCanonical;
};

/**
 * Compute the canonical form of @p dfg. Deterministic, and invariant
 * under node/edge permutation, node renaming, and graph renaming
 * (tests/test_canonical.cc pins the property suite).
 */
CanonicalDfg canonicalize(const Dfg &dfg);

/** Just the content hash (convenience over canonicalize().hash). */
uint64_t canonicalHash(const Dfg &dfg);

} // namespace lisa::dfg

#endif // LISA_DFG_CANONICAL_HH
