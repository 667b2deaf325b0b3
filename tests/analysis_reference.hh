/**
 * @file
 * Reference DFG analysis: the nested-vector, queue-per-source
 * implementation the production dfg::Analysis (src/dfg/analysis.cc) must
 * agree with, accessor for accessor.
 *
 * It keeps one std::vector per row of the all-pairs tables, runs a
 * std::queue BFS per source, and searches every node for the closest
 * common ancestor and descendant of each same-level pair. It lives
 * outside the lisa library so production code cannot call it;
 * tests/test_analysis_diff.cc compares the two on every in-tree suite
 * and on random graphs.
 */

#ifndef LISA_TESTS_ANALYSIS_REFERENCE_HH
#define LISA_TESTS_ANALYSIS_REFERENCE_HH

#include <vector>

#include "dfg/analysis.hh"

namespace lisa::dfg {

/** Same accessors and contract as dfg::Analysis. */
class AnalysisReference
{
  public:
    explicit AnalysisReference(const Dfg &dfg);

    int asap(NodeId v) const { return asapLevel[v]; }
    int alap(NodeId v) const { return alapLevel[v]; }
    int criticalPathLength() const { return critPath; }
    const std::vector<NodeId> &topoOrder() const { return topo; }
    int ancestorCount(NodeId v) const { return ancCount[v]; }
    int descendantCount(NodeId v) const { return descCount[v]; }
    bool isAncestor(NodeId a, NodeId v) const;
    int shortestDist(NodeId u, NodeId v) const;
    int longestDist(NodeId u, NodeId v) const;
    int nodesOnPath(NodeId u, NodeId v) const;
    int nodesBetweenLevels(int lo, int hi) const;
    int nodesAtLevel(int level) const;
    const std::vector<SameLevelPair> &sameLevelPairs() const { return pairs; }
    int recMii() const { return recMiiValue; }

  private:
    void computeLevels();
    void computeReachability();
    void computeSameLevelPairs();
    void computeRecMii();

    const Dfg *graph;
    std::vector<int> asapLevel;
    std::vector<int> alapLevel;
    std::vector<NodeId> topo;
    std::vector<int> ancCount;
    std::vector<int> descCount;
    std::vector<std::vector<int>> dist;
    std::vector<std::vector<int>> longest;
    std::vector<int> levelPopulation;
    std::vector<SameLevelPair> pairs;
    int critPath = 1;
    int recMiiValue = 1;
};

} // namespace lisa::dfg

#endif // LISA_TESTS_ANALYSIS_REFERENCE_HH
