#include "dfg/canonical.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

#include "support/fnv.hh"

namespace lisa::dfg {
namespace {

using support::Fnv1a;
using support::kFnvPrime;

/** kFnvPrime^6 (mod 2^64). */
constexpr uint64_t kFnvPrime6 =
    kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

/**
 * Refinement work (node visits plus incident-edge visits) one
 * canonicalize() call may spend on its search. Real kernels spend far
 * less: the 12 PolyBench kernels at most 3.7k, the unrolled-by-4 suite
 * (but syr2k) at most 30k, random DAGs of up to 512 nodes at most ~110k.
 * A symmetric fan such as one load feeding 511 stores would otherwise
 * branch through thousands of fixpoints.
 */
constexpr long kWorkBudget = 1L << 18;

/** Fnv1a::u64(@p v) folded into state @p h. Refined colors are ranks
 *  below the node count, so their six high bytes are zero, and folding
 *  a zero byte is a bare multiply: xor with 0 is the identity. */
uint64_t
foldU64(uint64_t h, uint64_t v)
{
    if (v < 0x10000) {
        h = (h ^ (v & 0xff)) * kFnvPrime;
        h = (h ^ (v >> 8)) * kFnvPrime;
        return h * kFnvPrime6;
    }
    Fnv1a f{h};
    f.u64(v);
    return f.h;
}

/** Append the decimal digits of @p v to @p out (the bytes printf's %d
 *  family writes). */
template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/**
 * Individualization-refinement search for the lexicographically smallest
 * canonical text, with every buffer allocated once per call.
 *
 * Color refinement: each node's new color folds its current color with
 * the *sorted* multiset of signatures of its incident edges, where a
 * signature is FNV over (direction, iterDistance, neighbor color).
 * Sorting the multiset makes the result independent of edge insertion
 * order; each round rank-compresses the hashes back to small dense
 * colors. The (direction, iterDistance) prefix of every signature is
 * folded once per call into the incidence table.
 *
 * Individualization: while a color class holds several nodes, each
 * member in turn is split off and refined, and the smallest leaf text
 * wins. When the whole search tree would cost more than kWorkBudget, the
 * search is abandoned and the root fixpoint's ties are broken by
 * original node id instead. The tree's total work is a function of the
 * graph's structure alone, so whether a graph falls back does not depend
 * on its numbering. The fallback is deterministic and a fixpoint (the
 * canonical text re-canonicalizes to itself: its node ids already follow
 * the root coloring), but not permutation-invariant, which only costs a
 * cache miss, never a wrong result.
 */
class CanonSearch
{
  public:
    explicit CanonSearch(const Dfg &graph)
        : dfg(graph), n(graph.numNodes())
    {
        incStart.reserve(n + 1);
        incStart.push_back(0);
        incidents.reserve(2 * dfg.numEdges());
        for (size_t v = 0; v < n; ++v) {
            const auto id = static_cast<NodeId>(v);
            for (EdgeId eid : dfg.outEdges(id))
                addIncident(0x01, dfg.edge(eid).iterDistance,
                            dfg.edge(eid).dst);
            for (EdgeId eid : dfg.inEdges(id))
                addIncident(0x02, dfg.edge(eid).iterDistance,
                            dfg.edge(eid).src);
            incStart.push_back(incidents.size());
        }
        opNames.reserve(n);
        for (const Node &node : dfg.nodes())
            opNames.push_back(opName(node.op));
        sigs.resize(incidents.size());
        ranked.resize(n);
    }

    /** Search from the opcode coloring; fills `best` and `bestColor`. */
    void
    run()
    {
        // Seed colors from opcodes only; everything else comes from
        // structure.
        levels.emplace_back(n);
        for (size_t v = 0; v < n; ++v)
            levels[0][v] = support::fnv1a(opNames[v]);
        std::vector<uint64_t> seeds(levels[0]);
        std::sort(seeds.begin(), seeds.end());
        const auto classes = static_cast<size_t>(
            std::unique(seeds.begin(), seeds.end()) - seeds.begin());
        search(0, classes);
        if (work < 0) {
            // Over budget: levels[0] still holds the root fixpoint.
            best.clear();
            breakAllTies(levels[0]);
            leaf(levels[0]);
        }
    }

    std::string best;                // lexicographically smallest text
    std::vector<uint64_t> bestColor; // coloring that produced `best`

  private:
    /** One incident edge of a node: the FNV state after folding its
     *  (direction, iterDistance), and the node at its other end. */
    struct Incident
    {
        uint64_t prefix;
        NodeId neighbor;
    };

    void
    addIncident(uint64_t direction, int iter_distance, NodeId neighbor)
    {
        Fnv1a f;
        f.u64(direction);
        f.i32(iter_distance);
        incidents.push_back({f.h, neighbor});
    }

    /**
     * One refinement round over @p color, which has @p classes distinct
     * values on entry and holds the round's rank-compressed colors (with
     * @p classes updated) on return. Each node's signatures sit in its
     * own slice of `sigs`, parallel to `incidents`.
     * @return true when the partition got strictly finer.
     */
    bool
    refineOnce(std::vector<uint64_t> &color, size_t &classes)
    {
        work -= static_cast<long>(n + incidents.size());
        for (size_t i = 0; i < incidents.size(); ++i) {
            const Incident &inc = incidents[i];
            sigs[i] = foldU64(inc.prefix,
                              color[static_cast<size_t>(inc.neighbor)]);
        }
        for (size_t v = 0; v < n; ++v) {
            uint64_t *first = sigs.data() + incStart[v];
            uint64_t *last = sigs.data() + incStart[v + 1];
            std::sort(first, last);
            uint64_t h = foldU64(support::kFnvOffsetBasis, color[v]);
            for (const uint64_t *sig = first; sig != last; ++sig)
                h = foldU64(h, *sig);
            ranked[v] = {h, static_cast<NodeId>(v)};
        }

        // Rank-compress: replace each hash with its rank among the
        // distinct hash values. Ranks depend only on the value *set*, so
        // the compressed coloring is permutation-invariant.
        std::sort(ranked.begin(), ranked.end());
        uint64_t rank = 0;
        for (size_t i = 0; i < n; ++i) {
            if (i > 0 && ranked[i].first != ranked[i - 1].first)
                ++rank;
            color[static_cast<size_t>(ranked[i].second)] = rank;
        }
        const size_t before = classes;
        classes = n == 0 ? 0 : static_cast<size_t>(rank) + 1;
        return classes > before;
    }

    /**
     * Smallest color value that labels more than one node, or UINT64_MAX
     * if the partition is discrete. @p color holds ranks below
     * @p classes. Choosing by color *value* (not by any node id) keeps
     * the branch target permutation-invariant.
     */
    uint64_t
    firstNonSingletonColor(const std::vector<uint64_t> &color,
                           size_t classes)
    {
        if (classes == n)
            return UINT64_MAX;
        counts.assign(classes, 0);
        for (uint64_t c : color)
            ++counts[c];
        for (size_t c = 0; c < classes; ++c)
            if (counts[c] > 1)
                return c;
        return UINT64_MAX;
    }

    /** Refine levels[depth] to its fixpoint, then take it as a leaf or
     *  branch on its first non-singleton class. Unwinds as soon as the
     *  work budget is overspent. */
    void
    search(size_t depth, size_t classes)
    {
        while (refineOnce(levels[depth], classes)) {
        }
        if (work < 0)
            return;
        const uint64_t cls = firstNonSingletonColor(levels[depth], classes);
        if (cls == UINT64_MAX) {
            leaf(levels[depth]);
            return;
        }
        // Individualize each member of the chosen class in turn. Taking
        // the min over all members makes the outcome independent of the
        // order the members are visited in, hence of node numbering.
        if (levels.size() == depth + 1)
            levels.emplace_back();
        for (size_t v = 0; v < n; ++v) {
            if (levels[depth][v] != cls)
                continue;
            levels[depth + 1] = levels[depth];
            // Split v off its class with a fresh color value (ranks are
            // below n); the class had other members, so one class more.
            levels[depth + 1][v] = static_cast<uint64_t>(n) + 1;
            search(depth + 1, classes + 1);
            if (work < 0)
                return;
        }
    }

    /** Order nodes by (color, original id) and assign dense positions. */
    void
    breakAllTies(std::vector<uint64_t> &color)
    {
        order.resize(n);
        for (size_t v = 0; v < n; ++v)
            order[v] = static_cast<NodeId>(v);
        std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
            return std::pair(color[static_cast<size_t>(a)], a) <
                   std::pair(color[static_cast<size_t>(b)], b);
        });
        for (size_t pos = 0; pos < n; ++pos)
            color[static_cast<size_t>(order[pos])] = pos;
    }

    /** Render the canonical text of a *discrete* @p color (color[v] is
     *  the canonical position of original node v) and keep it if it is
     *  the smallest so far. */
    void
    leaf(const std::vector<uint64_t> &color)
    {
        order.resize(n); // canonical position -> original id
        for (size_t v = 0; v < n; ++v)
            order[color[v]] = static_cast<NodeId>(v);

        text.assign("dfg canonical\n");
        for (size_t pos = 0; pos < n; ++pos) {
            text += "node ";
            appendInt(text, pos);
            text += ' ';
            text += opNames[static_cast<size_t>(order[pos])];
            text += '\n';
        }

        // Edges sorted by (canonical src, canonical dst, iterDistance).
        rows.clear();
        for (const Edge &e : dfg.edges())
            rows.push_back({static_cast<int64_t>(color[e.src]),
                            static_cast<int64_t>(color[e.dst]),
                            e.iterDistance});
        std::sort(rows.begin(), rows.end());
        for (const auto &r : rows) {
            text += "edge ";
            appendInt(text, r[0]);
            text += ' ';
            appendInt(text, r[1]);
            if (r[2] != 0) {
                text += ' ';
                appendInt(text, r[2]);
            }
            text += '\n';
        }

        if (best.empty() || text < best) {
            best.swap(text);
            bestColor = color;
        }
    }

    const Dfg &dfg;
    const size_t n;
    long work = kWorkBudget;
    /** Incident edges of node v: incidents[incStart[v], incStart[v+1]). */
    std::vector<size_t> incStart;
    std::vector<Incident> incidents;
    std::vector<std::string_view> opNames;
    /** The coloring at each search depth. */
    std::vector<std::vector<uint64_t>> levels;
    // Round and leaf buffers, reused across the whole search.
    std::vector<uint64_t> sigs;
    /** (refined hash, node) pairs, sorted to rank-compress a round. */
    std::vector<std::pair<uint64_t, NodeId>> ranked;
    std::vector<size_t> counts;
    std::vector<NodeId> order;
    std::vector<std::array<int64_t, 3>> rows;
    std::string text;
};

} // namespace

CanonicalDfg
canonicalize(const Dfg &dfg)
{
    const size_t n = dfg.numNodes();
    CanonSearch search(dfg);
    search.run();

    CanonicalDfg out;
    out.text = std::move(search.best);
    out.hash = support::fnv1a(out.text);

    out.nodeOrder.assign(n, kInvalidNode);
    out.toCanonical.assign(n, kInvalidNode);
    for (size_t v = 0; v < n; ++v) {
        const auto pos = static_cast<NodeId>(search.bestColor[v]);
        out.toCanonical[v] = pos;
        out.nodeOrder[static_cast<size_t>(pos)] = static_cast<NodeId>(v);
    }

    // Edge translation. Canonical edge order is the sorted
    // (canonSrc, canonDst, iterDistance) order used by the renderer;
    // parallel edges with identical triples are matched ascending by
    // original id (they are automorphic images of each other, so any
    // pairing yields a valid translated mapping).
    const size_t m = dfg.numEdges();
    std::vector<std::pair<std::array<int64_t, 3>, EdgeId>> rows;
    rows.reserve(m);
    for (const Edge &e : dfg.edges())
        rows.push_back({{static_cast<int64_t>(out.toCanonical[e.src]),
                         static_cast<int64_t>(out.toCanonical[e.dst]),
                         e.iterDistance},
                        e.id});
    std::sort(rows.begin(), rows.end());
    out.edgeOrder.assign(m, -1);
    out.edgeToCanonical.assign(m, -1);
    for (size_t pos = 0; pos < m; ++pos) {
        out.edgeOrder[pos] = rows[pos].second;
        out.edgeToCanonical[rows[pos].second] = static_cast<EdgeId>(pos);
    }
    return out;
}

uint64_t
canonicalHash(const Dfg &dfg)
{
    return canonicalize(dfg).hash;
}

} // namespace lisa::dfg
