#include "analysis_reference.hh"

#include <algorithm>
#include <queue>

#include "support/logging.hh"

namespace lisa::dfg {

AnalysisReference::AnalysisReference(const Dfg &dfg) : graph(&dfg)
{
    computeLevels();
    computeReachability();
    computeSameLevelPairs();
    computeRecMii();
}

void
AnalysisReference::computeLevels()
{
    const size_t n = graph->numNodes();
    asapLevel.assign(n, 0);
    alapLevel.assign(n, 0);
    topo.clear();
    topo.reserve(n);

    // Kahn topological order on the intra-iteration subgraph; the graph was
    // validated acyclic, so every node drains.
    std::vector<int> indeg(n, 0);
    for (const Edge &e : graph->edges())
        if (e.iterDistance == 0)
            ++indeg[e.dst];
    std::queue<NodeId> ready;
    for (size_t v = 0; v < n; ++v)
        if (indeg[v] == 0)
            ready.push(static_cast<NodeId>(v));
    while (!ready.empty()) {
        NodeId v = ready.front();
        ready.pop();
        topo.push_back(v);
        for (EdgeId e : graph->outEdges(v)) {
            const Edge &ed = graph->edge(e);
            if (ed.iterDistance != 0)
                continue;
            asapLevel[ed.dst] = std::max(asapLevel[ed.dst], asapLevel[v] + 1);
            if (--indeg[ed.dst] == 0)
                ready.push(ed.dst);
        }
    }
    if (topo.size() != n)
        panic("AnalysisReference: DFG not acyclic");

    critPath = 1;
    for (size_t v = 0; v < n; ++v)
        critPath = std::max(critPath, asapLevel[v] + 1);

    // ALAP: latest level such that all descendants still fit.
    for (size_t v = 0; v < n; ++v)
        alapLevel[v] = critPath - 1;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        NodeId v = *it;
        for (EdgeId e : graph->outEdges(v)) {
            const Edge &ed = graph->edge(e);
            if (ed.iterDistance == 0)
                alapLevel[v] = std::min(alapLevel[v], alapLevel[ed.dst] - 1);
        }
    }

    levelPopulation.assign(critPath, 0);
    for (size_t v = 0; v < n; ++v)
        ++levelPopulation[asapLevel[v]];
}

void
AnalysisReference::computeReachability()
{
    const size_t n = graph->numNodes();
    dist.assign(n, std::vector<int>(n, -1));
    longest.assign(n, std::vector<int>(n, -1));
    ancCount.assign(n, 0);
    descCount.assign(n, 0);

    // BFS from every source for shortest distances (unit latencies).
    for (size_t s = 0; s < n; ++s) {
        auto &d = dist[s];
        d[s] = 0;
        std::queue<NodeId> q;
        q.push(static_cast<NodeId>(s));
        while (!q.empty()) {
            NodeId v = q.front();
            q.pop();
            for (EdgeId e : graph->outEdges(v)) {
                const Edge &ed = graph->edge(e);
                if (ed.iterDistance != 0 || d[ed.dst] >= 0)
                    continue;
                d[ed.dst] = d[v] + 1;
                q.push(ed.dst);
            }
        }
    }

    // Longest path from every source via DP over topological order.
    for (size_t s = 0; s < n; ++s) {
        auto &lp = longest[s];
        lp[s] = 0;
        for (NodeId v : topo) {
            if (lp[v] < 0)
                continue;
            for (EdgeId e : graph->outEdges(v)) {
                const Edge &ed = graph->edge(e);
                if (ed.iterDistance == 0)
                    lp[ed.dst] = std::max(lp[ed.dst], lp[v] + 1);
            }
        }
    }

    for (size_t u = 0; u < n; ++u) {
        for (size_t v = 0; v < n; ++v) {
            if (u != v && dist[u][v] > 0) {
                ++descCount[u];
                ++ancCount[v];
            }
        }
    }
}

bool
AnalysisReference::isAncestor(NodeId a, NodeId v) const
{
    return a != v && dist[a][v] > 0;
}

int
AnalysisReference::shortestDist(NodeId u, NodeId v) const
{
    return dist[u][v];
}

int
AnalysisReference::longestDist(NodeId u, NodeId v) const
{
    return longest[u][v];
}

int
AnalysisReference::nodesOnPath(NodeId u, NodeId v) const
{
    if (dist[u][v] < 0)
        return 0;
    int count = 0;
    const size_t n = graph->numNodes();
    for (size_t w = 0; w < n; ++w) {
        if (static_cast<NodeId>(w) == u || static_cast<NodeId>(w) == v)
            continue;
        if (dist[u][w] > 0 && dist[w][v] > 0)
            ++count;
    }
    return count;
}

int
AnalysisReference::nodesBetweenLevels(int lo, int hi) const
{
    if (lo > hi)
        std::swap(lo, hi);
    int count = 0;
    for (int level = lo + 1; level < hi; ++level)
        if (level >= 0 && level < critPath)
            count += levelPopulation[level];
    return count;
}

int
AnalysisReference::nodesAtLevel(int level) const
{
    if (level < 0 || level >= critPath)
        return 0;
    return levelPopulation[level];
}

void
AnalysisReference::computeSameLevelPairs()
{
    pairs.clear();
    const size_t n = graph->numNodes();
    for (size_t a = 0; a < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) {
            NodeId u = static_cast<NodeId>(a);
            NodeId v = static_cast<NodeId>(b);
            if (asapLevel[u] != asapLevel[v])
                continue;
            // Same-ASAP nodes can never depend on each other, so no
            // adjacency check is needed.
            SameLevelPair pair;
            pair.a = u;
            pair.b = v;

            int best_anc = -1;
            for (size_t w = 0; w < n; ++w) {
                NodeId c = static_cast<NodeId>(w);
                if (dist[c][u] > 0 && dist[c][v] > 0) {
                    int sum = dist[c][u] + dist[c][v];
                    if (best_anc < 0 || sum < best_anc) {
                        best_anc = sum;
                        pair.ancestor = c;
                        pair.ancDistA = dist[c][u];
                        pair.ancDistB = dist[c][v];
                    }
                }
            }
            int best_desc = -1;
            for (size_t w = 0; w < n; ++w) {
                NodeId c = static_cast<NodeId>(w);
                if (dist[u][c] > 0 && dist[v][c] > 0) {
                    int sum = dist[u][c] + dist[v][c];
                    if (best_desc < 0 || sum < best_desc) {
                        best_desc = sum;
                        pair.descendant = c;
                        pair.descDistA = dist[u][c];
                        pair.descDistB = dist[v][c];
                    }
                }
            }
            if (pair.hasAncestor() || pair.hasDescendant())
                pairs.push_back(pair);
        }
    }
}

void
AnalysisReference::computeRecMii()
{
    recMiiValue = 1;
    for (const Edge &e : graph->edges()) {
        if (e.iterDistance == 0)
            continue;
        // Cycle latency: longest intra path dst -> src, plus one cycle for
        // the recurrence edge itself.
        int body = (e.dst == e.src) ? 0 : longest[e.dst][e.src];
        if (body < 0)
            body = 0; // recurrence edge alone forms the cycle
        int latency = body + 1;
        int mii = (latency + e.iterDistance - 1) / e.iterDistance;
        recMiiValue = std::max(recMiiValue, mii);
    }
}

} // namespace lisa::dfg
