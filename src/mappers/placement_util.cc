#include "mappers/placement_util.hh"

#include <algorithm>
#include <cmath>

namespace lisa::map {

TimeWindow
feasibleWindow(const Mapping &mapping, const dfg::Analysis &analysis,
               dfg::NodeId v)
{
    if (!mapping.mrrg().accel().temporalMapping())
        return TimeWindow{0, 0};

    const auto &dfg = mapping.dfg();
    const int ii = mapping.mrrg().ii();
    TimeWindow w{analysis.asap(v), mapping.horizon() - 1};

    for (dfg::EdgeId e : dfg.inEdges(v)) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.src) || edge.src == v)
            continue;
        int bound = mapping.placement(edge.src).time + 1 -
                    edge.iterDistance * ii;
        w.lo = std::max(w.lo, bound);
    }
    for (dfg::EdgeId e : dfg.outEdges(v)) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.dst) || edge.dst == v)
            continue;
        int bound = mapping.placement(edge.dst).time - 1 +
                    edge.iterDistance * ii;
        w.hi = std::min(w.hi, bound);
    }
    w.lo = std::max(w.lo, 0);
    w.hi = std::min(w.hi, mapping.horizon() - 1);
    return w;
}

void
incidentEdges(const dfg::Dfg &dfg, dfg::NodeId v,
              std::vector<dfg::EdgeId> &out)
{
    out.clear();
    for (dfg::EdgeId e : dfg.inEdges(v))
        out.push_back(e);
    for (dfg::EdgeId e : dfg.outEdges(v)) {
        // Self-loops appear in both lists; keep one copy.
        if (dfg.edge(e).src != dfg.edge(e).dst)
            out.push_back(e);
    }
}

void
sortByRoutingPriority(const Mapping &mapping, std::vector<dfg::EdgeId> &edges)
{
    std::stable_sort(edges.begin(), edges.end(),
                     [&](dfg::EdgeId a, dfg::EdgeId b) {
                         return mapping.requiredLength(a) >
                                mapping.requiredLength(b);
                     });
}

MoveVerdict
routeMove(Mapping &mapping, std::vector<dfg::EdgeId> &order,
          const MoveTest &test, RouterWorkspace &ws, Rng &rng,
          MapperStats &stats)
{
    const auto &dfg = mapping.dfg();
    const CostParams &params = test.costParams;

    // Pre-pass: drop the edges that cannot route. Tier 0 reads only the
    // endpoint placements, which routing does not change.
    size_t live = 0;
    for (dfg::EdgeId e : order) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst))
            continue;
        if (provablyUnroutable(mapping, e, ws)) {
            ++stats.routeCallsSkipped;
            continue;
        }
        order[live++] = e;
    }
    order.resize(live);

    // Cost terms are small integers times the weights, so delta and the
    // bound are exact in doubles and bound <= final delta holds exactly.
    const bool bounded =
        params.routeResourceWeight >= 0.0 && params.overuseWeight >= 0.0;
    const size_t num_nodes = dfg.numNodes();
    const size_t num_edges = dfg.numEdges();
    double u = 0.0;
    bool drawn = false;

    for (size_t next = 0; next < live; ++next) {
        const size_t left = live - next;
        // Under validCommits a move that may still end valid commits
        // whatever its delta, so only a move that cannot is doomed.
        const bool may_end_valid =
            test.validCommits && mapping.numPlaced() == num_nodes &&
            mapping.totalOveruse() == 0 &&
            mapping.numRouted() + left == num_edges;
        if (bounded && !may_end_valid) {
            const double bound = mappingCostDelta(mapping, params) -
                                 params.unroutedWeight *
                                     static_cast<double>(left);
            if (bound > 0.0) {
                if (!drawn) {
                    u = rng.uniform();
                    drawn = true;
                }
                if (!(u < std::exp(-bound / test.temp))) {
                    ++stats.movesEarlyRejected;
                    stats.routeCallsSkipped += left;
                    return MoveVerdict{false, 0.0};
                }
            }
        }
        const dfg::EdgeId e = order[next];
        if (const RouteResult *res = routeEdge(mapping, e, RouterCosts{}, ws))
            mapping.setRoute(e, res->path);
    }

    const double delta = mappingCostDelta(mapping, params);
    if (delta <= 0.0 || (test.validCommits && mapping.valid()))
        return MoveVerdict{true, delta};
    if (!drawn)
        u = rng.uniform();
    return MoveVerdict{u < std::exp(-delta / test.temp), delta};
}

} // namespace lisa::map
