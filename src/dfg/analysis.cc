#include "dfg/analysis.hh"

#include <algorithm>

#include "support/logging.hh"

namespace lisa::dfg {

int
asapLevels(const Dfg &dfg, std::vector<int> &asap, std::vector<NodeId> &topo)
{
    const size_t n = dfg.numNodes();
    asap.assign(n, 0);
    topo.clear();
    topo.reserve(n);

    // Kahn topological order on the intra-iteration subgraph, with topo
    // itself as the FIFO queue; the graph was validated acyclic, so every
    // node drains.
    std::vector<int> indeg(n, 0);
    for (const Edge &e : dfg.edges())
        if (e.iterDistance == 0)
            ++indeg[e.dst];
    for (size_t v = 0; v < n; ++v)
        if (indeg[v] == 0)
            topo.push_back(static_cast<NodeId>(v));
    for (size_t head = 0; head < topo.size(); ++head) {
        const NodeId v = topo[head];
        for (EdgeId e : dfg.outEdges(v)) {
            const Edge &ed = dfg.edge(e);
            if (ed.iterDistance != 0)
                continue;
            asap[ed.dst] = std::max(asap[ed.dst], asap[v] + 1);
            if (--indeg[ed.dst] == 0)
                topo.push_back(ed.dst);
        }
    }
    if (topo.size() != n)
        panic("Analysis: DFG not acyclic; validate() should have caught it");

    int crit_path = 1;
    for (size_t v = 0; v < n; ++v)
        crit_path = std::max(crit_path, asap[v] + 1);
    return crit_path;
}

int
criticalPathLength(const Dfg &dfg)
{
    std::vector<int> asap;
    std::vector<NodeId> topo;
    return asapLevels(dfg, asap, topo);
}

Analysis::Analysis(const Dfg &dfg) : graph(&dfg), nodeCount(dfg.numNodes())
{
    computeLevels();
    computeReachability();
    computeSameLevelPairs();
    computeRecMii();
}

void
Analysis::computeLevels()
{
    const size_t n = nodeCount;
    critPath = asapLevels(*graph, asapLevel, topo);

    // ALAP: latest level such that all descendants still fit.
    alapLevel.assign(n, critPath - 1);
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
Analysis::computeReachability()
{
    const size_t n = nodeCount;
    dist.assign(n * n, -1);
    longest.assign(n * n, -1);
    ancCount.assign(n, 0);
    descCount.assign(n, 0);

    // Intra-iteration successors as one flat adjacency array, in
    // outEdges order, so every pass below walks contiguous ids.
    std::vector<size_t> succ_begin(n + 1, 0);
    std::vector<NodeId> succ;
    succ.reserve(graph->numEdges());
    for (size_t v = 0; v < n; ++v) {
        for (EdgeId e : graph->outEdges(static_cast<NodeId>(v))) {
            const Edge &ed = graph->edge(e);
            if (ed.iterDistance == 0)
                succ.push_back(ed.dst);
        }
        succ_begin[v + 1] = succ.size();
    }

    // BFS from every source for shortest distances (unit latencies), on
    // one reused queue buffer.
    std::vector<NodeId> queue(n);
    for (size_t s = 0; s < n; ++s) {
        int *d = &dist[s * n];
        d[s] = 0;
        queue[0] = static_cast<NodeId>(s);
        size_t tail = 1;
        for (size_t head = 0; head < tail; ++head) {
            const NodeId v = queue[head];
            for (size_t i = succ_begin[v]; i < succ_begin[v + 1]; ++i) {
                const NodeId w = succ[i];
                if (d[w] >= 0)
                    continue;
                d[w] = d[v] + 1;
                queue[tail++] = w;
            }
        }
    }

    // Longest path from every source via DP over topological order. Only
    // nodes after the source in that order can be reached from it.
    for (size_t pos = 0; pos < n; ++pos) {
        const NodeId s = topo[pos];
        int *lp = &longest[static_cast<size_t>(s) * n];
        lp[s] = 0;
        for (size_t k = pos; k < n; ++k) {
            const NodeId v = topo[k];
            if (lp[v] < 0)
                continue;
            for (size_t i = succ_begin[v]; i < succ_begin[v + 1]; ++i)
                lp[succ[i]] = std::max(lp[succ[i]], lp[v] + 1);
        }
    }

    for (size_t u = 0; u < n; ++u) {
        for (size_t v = 0; v < n; ++v) {
            if (dist[u * n + v] > 0) {
                ++descCount[u];
                ++ancCount[v];
            }
        }
    }
}

bool
Analysis::isAncestor(NodeId a, NodeId v) const
{
    return a != v && shortestDist(a, v) > 0;
}

int
Analysis::shortestDist(NodeId u, NodeId v) const
{
    return dist[static_cast<size_t>(u) * nodeCount + static_cast<size_t>(v)];
}

int
Analysis::longestDist(NodeId u, NodeId v) const
{
    return longest[static_cast<size_t>(u) * nodeCount +
                   static_cast<size_t>(v)];
}

int
Analysis::nodesOnPath(NodeId u, NodeId v) const
{
    if (shortestDist(u, v) < 0)
        return 0;
    int count = 0;
    for (size_t w = 0; w < nodeCount; ++w) {
        const auto c = static_cast<NodeId>(w);
        if (c == u || c == v)
            continue;
        if (shortestDist(u, c) > 0 && shortestDist(c, v) > 0)
            ++count;
    }
    return count;
}

int
Analysis::nodesBetweenLevels(int lo, int hi) const
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
Analysis::nodesAtLevel(int level) const
{
    if (level < 0 || level >= critPath)
        return 0;
    return levelPopulation[level];
}

void
Analysis::computeSameLevelPairs()
{
    pairs.clear();
    const size_t n = nodeCount;

    // Flat lists, each in ascending id order: the strict ancestors and
    // descendants of every node, and the nodes of every ASAP level.
    std::vector<size_t> anc_begin(n + 1, 0), desc_begin(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
        anc_begin[v + 1] = anc_begin[v] + static_cast<size_t>(ancCount[v]);
        desc_begin[v + 1] =
            desc_begin[v] + static_cast<size_t>(descCount[v]);
    }
    std::vector<NodeId> anc(anc_begin[n]), desc(desc_begin[n]);
    {
        std::vector<size_t> anc_fill(anc_begin.begin(), anc_begin.end() - 1);
        size_t desc_fill = 0;
        for (size_t u = 0; u < n; ++u) {
            for (size_t v = 0; v < n; ++v) {
                if (dist[u * n + v] <= 0)
                    continue;
                anc[anc_fill[v]++] = static_cast<NodeId>(u);
                desc[desc_fill++] = static_cast<NodeId>(v);
            }
        }
    }
    std::vector<size_t> level_begin(levelPopulation.size() + 1, 0);
    for (size_t l = 0; l < levelPopulation.size(); ++l)
        level_begin[l + 1] =
            level_begin[l] + static_cast<size_t>(levelPopulation[l]);
    std::vector<NodeId> by_level(n);
    {
        std::vector<size_t> fill(level_begin.begin(), level_begin.end() - 1);
        for (size_t v = 0; v < n; ++v)
            by_level[fill[static_cast<size_t>(asapLevel[v])]++] =
                static_cast<NodeId>(v);
    }

    // The closest common ancestor (descendant) is the candidate with the
    // smallest distance sum, the lowest id among equal sums. Candidates
    // come from the shorter of the two ascending lists, so the first
    // strict improvement is that lowest id.
    for (size_t a = 0; a < n; ++a) {
        const auto level = static_cast<size_t>(asapLevel[a]);
        for (size_t k = level_begin[level]; k < level_begin[level + 1]; ++k) {
            const NodeId u = static_cast<NodeId>(a);
            const NodeId v = by_level[k];
            if (v <= u)
                continue;
            // Same-ASAP nodes can never depend on each other, so no
            // adjacency check is needed.
            SameLevelPair pair;
            pair.a = u;
            pair.b = v;

            const bool u_fewer_anc = ancCount[u] <= ancCount[v];
            const NodeId anc_of = u_fewer_anc ? u : v;
            const NodeId anc_other = u_fewer_anc ? v : u;
            int best_anc = -1;
            for (size_t i = anc_begin[anc_of]; i < anc_begin[anc_of + 1];
                 ++i) {
                const NodeId c = anc[i];
                if (shortestDist(c, anc_other) <= 0)
                    continue;
                const int sum = shortestDist(c, u) + shortestDist(c, v);
                if (best_anc < 0 || sum < best_anc) {
                    best_anc = sum;
                    pair.ancestor = c;
                    pair.ancDistA = shortestDist(c, u);
                    pair.ancDistB = shortestDist(c, v);
                }
            }

            const bool u_fewer_desc = descCount[u] <= descCount[v];
            const NodeId desc_of = u_fewer_desc ? u : v;
            const NodeId desc_other = u_fewer_desc ? v : u;
            int best_desc = -1;
            for (size_t i = desc_begin[desc_of]; i < desc_begin[desc_of + 1];
                 ++i) {
                const NodeId c = desc[i];
                if (shortestDist(desc_other, c) <= 0)
                    continue;
                const int sum = shortestDist(u, c) + shortestDist(v, c);
                if (best_desc < 0 || sum < best_desc) {
                    best_desc = sum;
                    pair.descendant = c;
                    pair.descDistA = shortestDist(u, c);
                    pair.descDistB = shortestDist(v, c);
                }
            }
            if (pair.hasAncestor() || pair.hasDescendant())
                pairs.push_back(pair);
        }
    }
}

void
Analysis::computeRecMii()
{
    recMiiValue = 1;
    for (const Edge &e : graph->edges()) {
        if (e.iterDistance == 0)
            continue;
        // Cycle latency: longest intra path dst -> src, plus one cycle for
        // the recurrence edge itself.
        int body = (e.dst == e.src) ? 0 : longestDist(e.dst, e.src);
        if (body < 0)
            body = 0; // recurrence edge alone forms the cycle
        int latency = body + 1;
        int mii = (latency + e.iterDistance - 1) / e.iterDistance;
        recMiiValue = std::max(recMiiValue, mii);
    }
}

} // namespace lisa::dfg
