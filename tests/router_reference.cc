#include "router_reference.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"

namespace lisa::map {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Cost of occupying @p res with instance @p key, or kInf when blocked.
 * Reusing a resource that already carries the same instance (fanout) is
 * free; carrying a different instance costs the congestion penalty.
 * Re-derives the base cost from the resource kind on every call.
 */
double
stepCost(const Mapping &mapping, int res, int64_t key,
         const RouterCosts &costs)
{
    if (mapping.holdsInstance(res, key))
        return 0.0;
    const arch::Resource &r = mapping.mrrg().resource(res);
    double base =
        (r.kind == arch::ResourceKind::Fu) ? kFuRouteCost : kRegRouteCost;
    if (mapping.numInstancesOn(res) > 0) {
        if (!costs.allowOveruse)
            return kInf;
        base += kOverusePenalty;
    }
    return base;
}

/** Existing holders of value @p u: producer FU at step 0 plus every
 *  position of already-routed out-edges of @p u, filled into @p seeds. */
void
collectSeeds(const Mapping &mapping, dfg::NodeId u,
             std::vector<RouteSeed> &seeds)
{
    const auto &dfg = mapping.dfg();
    const Placement &pu = mapping.placement(u);
    seeds.clear();
    // lint:allow-growth (amortized workspace buffer)
    seeds.push_back(RouteSeed{mapping.mrrg().fuId(pu.pe, pu.time), 0, -1});
    for (dfg::EdgeId e : dfg.outEdges(u)) {
        if (!mapping.isRouted(e))
            continue;
        const auto &path = mapping.route(e);
        for (size_t i = 0; i < path.size(); ++i) {
            // lint:allow-growth (amortized workspace buffer)
            seeds.push_back(RouteSeed{path[i], static_cast<int>(i) + 1, e});
        }
    }
}

/** Prepend the first @p steps hops of @p parentEdge's route (the shared
 *  fanout prefix) so the stored path is complete from the producer. */
void
prependSharedPrefix(const Mapping &mapping, dfg::EdgeId parentEdge,
                    int steps, std::vector<int> &path)
{
    if (parentEdge < 0 || steps <= 0)
        return;
    const auto &prefix = mapping.route(parentEdge);
    // lint:allow-growth (amortized workspace buffer)
    path.insert(path.begin(), prefix.begin(), prefix.begin() + steps);
}

/**
 * Exact-length layered DP for temporal architectures. The optimized
 * kernel (routeTemporal in router.cc) must return bit-identical paths and
 * costs.
 */
const RouteResult *
routeTemporalReference(const Mapping &mapping, dfg::EdgeId e,
                       const RouterCosts &costs, RouterWorkspace &ws)
{
    const auto &mrrg = mapping.mrrg();
    const dfg::Edge &edge = mapping.dfg().edge(e);
    const Placement &src = mapping.placement(edge.src);
    const Placement &dst = mapping.placement(edge.dst);
    const int len = mapping.requiredLength(e);
    if (len < 0)
        return nullptr;

    const int per_layer = mrrg.perLayerCount();
    const int ii = mrrg.ii();

    // DP cell (s, idx) = cheapest way to have the value on resource idx of
    // layer (src.time + s) mod II after s moves. Parent -2 marks seeds;
    // the seed's edge id supplies the shared fanout prefix.
    ws.beginTemporal(len + 1, per_layer);

    collectSeeds(mapping, edge.src, ws.seeds);
    for (const RouteSeed &seed : ws.seeds) {
        if (seed.step > len)
            continue;
        // A holder only seeds the step whose layer it sits on (route
        // positions of the same producer always satisfy this).
        if (mrrg.layerOfResource(seed.res) != (src.time + seed.step) % ii)
            continue;
        int idx = mrrg.indexInLayer(seed.res);
        if (ws.dpCostAt(seed.step, idx) > 0.0)
            ws.dpSeed(seed.step, idx, seed.parent);
    }

    for (int s = 0; s < len; ++s) {
        const int layer_base = ((src.time + s) % ii) * per_layer;
        const int64_t key =
            mapping.instanceKey(edge.src, AbsTime{src.time + s + 1});
        for (int idx = 0; idx < per_layer; ++idx) {
            const double here = ws.dpCostAt(s, idx);
            if (here == kInf)
                continue;
            const int res = layer_base + idx;
            for (int next : mrrg.moveTargets(res)) {
                double c = stepCost(mapping, next, key, costs);
                if (c == kInf)
                    continue;
                int nidx = mrrg.indexInLayer(next);
                if (ws.dpImprove(s + 1, nidx, here + c, idx))
                    ++ws.counters.relaxations;
            }
        }
    }

    // Final holder must be able to feed the consumer op.
    const int final_layer = (src.time + len) % ii;
    double best = kInf;
    int best_idx = -1;
    for (int res : mrrg.feeders(dst.pe, dst.time)) {
        if (mrrg.layerOfResource(res) != final_layer)
            continue;
        int idx = mrrg.indexInLayer(res);
        if (ws.dpCostAt(len, idx) < best) {
            best = ws.dpCostAt(len, idx);
            best_idx = idx;
        }
    }
    if (best_idx < 0)
        return nullptr;

    RouteResult &result = ws.result;
    result.path.clear();
    result.cost = best;
    int s = len;
    int idx = best_idx;
    while (s > 0 && ws.dpParentAt(s, idx) != -2) {
        // lint:allow-growth (amortized workspace buffer)
        result.path.push_back(((src.time + s) % ii) * per_layer + idx);
        idx = ws.dpParentAt(s, idx);
        --s;
    }
    std::reverse(result.path.begin(), result.path.end());
    if (s > 0) {
        // Branched off an existing route mid-way.
        prependSharedPrefix(mapping, ws.dpSeedEdgeAt(s, idx), s,
                            result.path);
    }
    if (static_cast<int>(result.path.size()) != len)
        panic("routeTemporalReference: reconstructed path length ",
              result.path.size(), " != required ", len);
    return &result;
}

/**
 * Variable-length Dijkstra for spatial-only architectures. The optimized
 * A* kernel (routeSpatial in router.cc) returns cost-identical routes;
 * tie-breaking among equal-cost paths may differ.
 */
const RouteResult *
routeSpatialReference(const Mapping &mapping, dfg::EdgeId e,
                      const RouterCosts &costs, RouterWorkspace &ws)
{
    const auto &mrrg = mapping.mrrg();
    const dfg::Edge &edge = mapping.dfg().edge(e);
    const Placement &dst = mapping.placement(edge.dst);
    const int64_t key = mapping.instanceKey(edge.src, AbsTime{0});

    ws.beginSpatial(mrrg.numResources());

    collectSeeds(mapping, edge.src, ws.seeds);
    for (const RouteSeed &seed : ws.seeds) {
        if (ws.costOf(seed.res) > 0.0) {
            ws.seedSpatial(seed.res, seed.step, seed.parent);
            ws.pushHeap(0.0, seed.res);
        }
    }

    for (int g : mrrg.feeders(dst.pe, dst.time))
        ws.markGoal(g);

    int found = -1;
    while (!ws.heapEmpty()) {
        auto [c, res] = ws.popHeap();
        ++ws.counters.pqPops;
        if (c > ws.costOf(res))
            continue;
        if (ws.isGoal(res)) {
            found = res;
            break;
        }
        for (int next : mrrg.moveTargets(res)) {
            double sc = stepCost(mapping, next, key, costs);
            if (sc == kInf)
                continue;
            if (ws.improve(next, c + sc, res)) {
                ++ws.counters.relaxations;
                ws.pushHeap(c + sc, next);
            }
        }
    }
    if (found < 0)
        return nullptr;

    RouteResult &result = ws.result;
    result.path.clear();
    result.cost = ws.costOf(found);
    int res = found;
    while (ws.parentOf(res) != -2) {
        // lint:allow-growth (amortized workspace buffer)
        result.path.push_back(res);
        res = ws.parentOf(res);
    }
    std::reverse(result.path.begin(), result.path.end());
    // Prepend the shared fanout prefix when the search started mid-route.
    prependSharedPrefix(mapping, ws.seedEdgeOf(res), ws.seedStepOf(res),
                        result.path);
    return &result;
}

} // namespace

const RouteResult *
routeEdgeReference(const Mapping &mapping, dfg::EdgeId e,
                   const RouterCosts &costs, RouterWorkspace &ws)
{
    const dfg::Edge &edge = mapping.dfg().edge(e);
    if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst))
        panic("routeEdgeReference: edge ", e, " has unplaced endpoints");
    if (mapping.isRouted(e))
        panic("routeEdgeReference: edge ", e, " already routed");

    ++ws.counters.routeEdgeCalls;
    const RouteResult *out;
    if (mapping.mrrg().accel().temporalMapping()) {
        out = routeTemporalReference(mapping, e, costs, ws);
    } else if (edge.src == edge.dst) {
        // Spatial accumulator feedback stays inside the PE: no resources.
        ws.result.path.clear();
        ws.result.cost = 0.0;
        out = &ws.result;
    } else {
        out = routeSpatialReference(mapping, e, costs, ws);
    }
    if (!out)
        ++ws.counters.routeFailures;
    return out;
}

} // namespace lisa::map
