/**
 * @file
 * Structural analyses over a DFG.
 *
 * Computes everything the Attributes Generator (Section IV-A of the paper),
 * the label initializer, and the mappers need: ASAP/ALAP levels, topological
 * order, ancestor/descendant sets, all-pairs shortest/longest directed path
 * lengths over the intra-iteration subgraph, same-level node pairs, and the
 * recurrence-constrained minimum II.
 *
 * All analyses treat edge latency as one cycle and consider only
 * intra-iteration edges unless stated otherwise. Graphs are small (tens of
 * nodes), so O(V*E) all-pairs passes are deliberate and cheap; the
 * all-pairs tables are flat n*n arrays.
 */

#ifndef LISA_DFG_ANALYSIS_HH
#define LISA_DFG_ANALYSIS_HH

#include <vector>

#include "dfg/dfg.hh"

namespace lisa::dfg {

/** A pair of same-ASAP, non-dependent nodes sharing an ancestor or
 *  descendant (the endpoints of a "dummy edge", Fig 7 of the paper). */
struct SameLevelPair
{
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;

    /** Closest common ancestor (minimal distance sum), or kInvalidNode. */
    NodeId ancestor = kInvalidNode;
    int ancDistA = -1; ///< shortest dir. distance ancestor -> a
    int ancDistB = -1; ///< shortest dir. distance ancestor -> b

    /** Closest common descendant, or kInvalidNode. */
    NodeId descendant = kInvalidNode;
    int descDistA = -1; ///< shortest dir. distance a -> descendant
    int descDistB = -1; ///< shortest dir. distance b -> descendant

    bool hasAncestor() const { return ancestor != kInvalidNode; }
    bool hasDescendant() const { return descendant != kInvalidNode; }
};

/**
 * One Kahn pass over the intra-iteration subgraph: fills @p asap with each
 * node's ASAP level and @p topo with a topological order, and returns the
 * critical path length (levels of the longest dependency chain, >= 1).
 * panic()s when the intra-iteration subgraph has a cycle. Analysis and
 * Mapping's schedule horizon both take the critical path from here.
 */
int asapLevels(const Dfg &dfg, std::vector<int> &asap,
               std::vector<NodeId> &topo);

/** Critical path length of @p dfg alone, in O(nodes + edges). */
int criticalPathLength(const Dfg &dfg);

/**
 * Immutable bundle of analyses for one DFG. Construct once per graph and
 * query; the referenced DFG must outlive the Analysis.
 */
class Analysis
{
  public:
    explicit Analysis(const Dfg &dfg);

    const Dfg &dfg() const { return *graph; }

    /** ASAP level (longest dependency path from any source). */
    int asap(NodeId v) const { return asapLevel[v]; }

    /** ALAP level under the schedule length criticalPathLength(). */
    int alap(NodeId v) const { return alapLevel[v]; }

    /** Length (in levels) of the longest dependency chain; >= 1. */
    int criticalPathLength() const { return critPath; }

    /** Nodes in a topological order of the intra-iteration subgraph. */
    const std::vector<NodeId> &topoOrder() const { return topo; }

    /** Number of (transitive) ancestors of @p v. */
    int ancestorCount(NodeId v) const { return ancCount[v]; }

    /** Number of (transitive) descendants of @p v. */
    int descendantCount(NodeId v) const { return descCount[v]; }

    /** @return true when @p a is a strict ancestor of @p v. */
    bool isAncestor(NodeId a, NodeId v) const;

    /**
     * Shortest directed path length from @p u to @p v along intra-iteration
     * edges, or -1 when unreachable. dist(v, v) == 0.
     */
    int shortestDist(NodeId u, NodeId v) const;

    /** Longest directed path length u -> v, or -1 when unreachable. */
    int longestDist(NodeId u, NodeId v) const;

    /** Count of nodes lying on some directed path u -> v (exclusive). */
    int nodesOnPath(NodeId u, NodeId v) const;

    /** Count of nodes whose ASAP is strictly between lo and hi. */
    int nodesBetweenLevels(int lo, int hi) const;

    /** Count of nodes whose ASAP equals @p level. */
    int nodesAtLevel(int level) const;

    /** All same-level pairs with a common ancestor or descendant. */
    const std::vector<SameLevelPair> &sameLevelPairs() const { return pairs; }

    /**
     * Recurrence-constrained minimum II: max over loop-carried edges
     * (u -> v, distance d) of ceil((longest v->u path latency + 1) / d).
     * 1 when the DFG has no recurrence edges.
     */
    int recMii() const { return recMiiValue; }

  private:
    void computeLevels();
    void computeReachability();
    void computeSameLevelPairs();
    void computeRecMii();

    const Dfg *graph;
    size_t nodeCount = 0;
    std::vector<int> asapLevel;
    std::vector<int> alapLevel;
    std::vector<NodeId> topo;
    std::vector<int> ancCount;
    std::vector<int> descCount;
    /** dist[u * n + v]: shortest directed path length, -1 unreachable. */
    std::vector<int> dist;
    /** longest[u * n + v]: longest directed path length, -1 unreachable. */
    std::vector<int> longest;
    std::vector<int> levelPopulation;
    std::vector<SameLevelPair> pairs;
    int critPath = 1;
    int recMiiValue = 1;
};

} // namespace lisa::dfg

#endif // LISA_DFG_ANALYSIS_HH
