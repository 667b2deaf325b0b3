#include "mapping/router.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "mapping/router_workspace.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

namespace lisa::map {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Cost of occupying @p res with instance @p key, or kInf when blocked.
 * Reusing a resource that already carries the same instance (fanout) is
 * free; carrying a different instance costs the congestion penalty on top
 * of the oracle's precomputed per-resource base cost.
 */
inline double
stepCost(const Mapping &mapping, int res, int64_t key,
             const RouterCosts &costs, std::span<const double> base)
{
    if (mapping.holdsInstance(res, key))
        return 0.0;
    double c = base[static_cast<size_t>(res)];
    if (mapping.numInstancesOn(res) > 0) {
        if (!costs.allowOveruse)
            return kInf;
        c += kOverusePenalty;
    }
    return c;
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
 * Exact-length layered DP, goal-directed via the static-distance oracle.
 *
 * Three additions over the plain layered DP (the reference kernel in
 * tests/router_reference.cc), none of which can change the result
 * (tests/test_router_equiv.cc asserts path identity):
 *
 *  - Early structural fail: if no seed can reach the destination's feeder
 *    set within its remaining step budget (reverse-BFS min-hop table),
 *    the edge is unroutable at this length — return before the DP runs.
 *    routeEdge's tier 0 rejects these calls before dispatch, so on that
 *    path the check passes at the producer seed; it stays as the
 *    kernel's own guard.
 *  - DP cell prune: a cell whose min-hop distance exceeds the remaining
 *    steps cannot lie on any feasible path. Any move predecessor of a
 *    surviving cell survives too (minHops is 1-Lipschitz along move
 *    edges), so pruned cells only ever relax pruned cells and every
 *    surviving cell keeps the reference kernel's exact value and parent.
 *  - stepCost memo: within one DP step the instance key is fixed, so each
 *    target's occupancy test runs once per step instead of once per
 *    incoming move edge.
 *
 * The step loop walks the MRRG's in-layer move CSR over stamp-free cost
 * rows (see router_workspace.hh), so a move-edge visit costs a memo
 * check, one add and one compare against the target's cost.
 */
const RouteResult *
routeTemporal(const Mapping &mapping, dfg::EdgeId e, const RouterCosts &costs,
              RouterWorkspace &ws)
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

    ws.oracle.bind(mapping.mrrgPtr(), ws.archContext, ws.counters);
    const auto hops = ws.oracle.minHopsTo(dst.pe, dst.time, ws.counters);
    const auto base = ws.oracle.baseCosts();

    collectSeeds(mapping, edge.src, ws.seeds);

    bool feasible = false;
    for (const RouteSeed &seed : ws.seeds) {
        if (seed.step > len)
            continue;
        if (mrrg.layerOfResource(seed.res) != (src.time + seed.step) % ii)
            continue;
        const int32_t h = hops[static_cast<size_t>(seed.res)];
        if (h >= 0 && h <= len - seed.step) {
            feasible = true;
            break;
        }
    }
    if (!feasible) {
        ++ws.counters.heuristicPrunes;
        return nullptr;
    }

    const RouterWorkspace::DpRows rows = ws.beginTemporal(len + 1, per_layer);

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

    // The step loop keeps every piece of workspace state it touches in
    // locals (row pointers, memo tick, counters): stores through the row
    // and memo pointers cannot alias them, so nothing is reloaded per
    // edge visit. Counters reach ws.counters once per call.
    uint64_t tick = ws.reserveMemoTicks(len);
    uint64_t pops = 0;
    uint64_t relaxed = 0;
    uint64_t skipped = 0;
    for (int s = 0; s < len; ++s, ++tick) {
        const int layer_base = ((src.time + s) % ii) * per_layer;
        const int next_base = ((src.time + s + 1) % ii) * per_layer;
        const int64_t key =
            mapping.instanceKey(edge.src, AbsTime{src.time + s + 1});
        const int remaining = len - s;
        const double *here_row =
            rows.cost + static_cast<size_t>(s) * per_layer;
        const size_t next_off = static_cast<size_t>(s + 1) * per_layer;
        double *next_cost = rows.cost + next_off;
        int *next_parent = rows.parent + next_off;
        dfg::EdgeId *next_seed = rows.seedEdge + next_off;
        for (int idx = 0; idx < per_layer; ++idx) {
            const double here = here_row[idx];
            if (here == kInf)
                continue;
            const int32_t h = hops[static_cast<size_t>(layer_base + idx)];
            if (h < 0 || h > remaining) {
                ++skipped;
                continue;
            }
            ++pops; // DP cell expanded (frontier pop)
            for (int nidx : mrrg.layerMoves(idx)) {
                double c;
                if (rows.memoStamp[nidx] == tick) {
                    c = rows.memoCost[nidx];
                } else {
                    c = stepCost(mapping, next_base + nidx, key, costs,
                                 base);
                    rows.memoStamp[nidx] = tick;
                    rows.memoCost[nidx] = c;
                }
                if (c == kInf)
                    continue;
                const double nc = here + c;
                if (nc < next_cost[nidx]) {
                    next_cost[nidx] = nc;
                    next_parent[nidx] = idx;
                    next_seed[nidx] = -1;
                    ++relaxed;
                }
            }
        }
    }
    ws.counters.pqPops += pops;
    ws.counters.relaxations += relaxed;
    ws.counters.dpCellsSkipped += skipped;

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
        panic("routeTemporal: reconstructed path length ",
              result.path.size(), " != required ", len);
    return &result;
}

/**
 * Goal-directed A* for spatial-only architectures.
 *
 * The heap is keyed on f = g + h with h the oracle's static-cost lower
 * bound to the destination's feeder set (see distance_oracle.hh for the
 * admissibility argument); statically-unreachable targets are pruned
 * before they are pushed. The heuristic is admissible but not consistent
 * (seed resources of the routed value cost 0 below their static price),
 * so the search keeps the lazy-deletion discipline — improved labels are
 * re-pushed and stale entries skipped on pop — under which A* with an
 * admissible heuristic still terminates with the optimal cost at the
 * first goal pop. Route costs match the reference Dijkstra exactly;
 * equal-cost ties may resolve to a different (equally valid) path.
 */
const RouteResult *
routeSpatial(const Mapping &mapping, dfg::EdgeId e, const RouterCosts &costs,
             RouterWorkspace &ws)
{
    const auto &mrrg = mapping.mrrg();
    const dfg::Edge &edge = mapping.dfg().edge(e);
    const Placement &dst = mapping.placement(edge.dst);
    const int64_t key = mapping.instanceKey(edge.src, AbsTime{0});

    ws.oracle.bind(mapping.mrrgPtr(), ws.archContext, ws.counters);
    const auto h = ws.oracle.minCostTo(dst.pe, ws.counters);
    const auto base = ws.oracle.baseCosts();

    ws.beginSpatial(mrrg.numResources());
    ws.beginStepMemo(); // one memo window: the key is fixed for the call

    collectSeeds(mapping, edge.src, ws.seeds);
    for (const RouteSeed &seed : ws.seeds) {
        if (ws.costOf(seed.res) > 0.0) {
            if (h[static_cast<size_t>(seed.res)] == kInf) {
                ++ws.counters.heuristicPrunes;
                continue;
            }
            ws.seedSpatial(seed.res, seed.step, seed.parent);
            ws.pushHeap(h[static_cast<size_t>(seed.res)], seed.res);
        }
    }

    for (int g : mrrg.feeders(dst.pe, dst.time))
        ws.markGoal(g);

    int found = -1;
    while (!ws.heapEmpty()) {
        auto [f, res] = ws.popHeap();
        ++ws.counters.pqPops;
        if (f > ws.costOf(res) + h[static_cast<size_t>(res)])
            continue; // stale: the label improved after this push
        if (ws.isGoal(res)) {
            found = res;
            break;
        }
        const double g = ws.costOf(res);
        for (int next : mrrg.moveTargets(res)) {
            const double hn = h[static_cast<size_t>(next)];
            if (hn == kInf) {
                ++ws.counters.heuristicPrunes;
                continue;
            }
            double sc;
            if (!ws.memoGet(next, sc)) {
                sc = stepCost(mapping, next, key, costs, base);
                ws.memoPut(next, sc);
            }
            if (sc == kInf)
                continue;
            const double ng = g + sc;
            if (ws.improve(next, ng, res)) {
                ++ws.counters.relaxations;
                ws.pushHeap(ng + hn, next);
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

/**
 * The metered search-kernel dispatch of routeEdge: stopwatch, call and
 * failure counting, growth accounting, kernel selection. Kept separate so
 * the learned tier can shadow-route a vetoed edge through the identical
 * accounting path.
 */
const RouteResult *
dispatchRoute(const Mapping &mapping, dfg::EdgeId e, const dfg::Edge &edge,
              const RouterCosts &costs, RouterWorkspace &ws)
{
    Stopwatch timer;
    ++ws.counters.routeEdgeCalls;
    const size_t seed_cap = ws.seeds.capacity();
    const size_t path_cap = ws.result.path.capacity();

    const RouteResult *out;
    if (mapping.mrrg().accel().temporalMapping()) {
        out = routeTemporal(mapping, e, costs, ws);
    } else if (edge.src == edge.dst) {
        // On spatial-only arrays an accumulator feedback loop lives inside
        // the PE (a MAC unit): routing it through a neighbour would add
        // latency and break the II=1 feedback. No routing resources are
        // needed.
        ws.result.path.clear();
        ws.result.cost = 0.0;
        out = &ws.result;
    } else {
        out = routeSpatial(mapping, e, costs, ws);
    }

    if (!out)
        ++ws.counters.routeFailures;
    if (ws.seeds.capacity() != seed_cap)
        ws.noteGrowth();
    if (ws.result.path.capacity() != path_cap)
        ws.noteGrowth();
    ws.counters.routeSeconds += timer.seconds();
    return out;
}

/**
 * The learned tier on an armed workspace (routability_filter.hh), for a
 * contested temporal call tier 0 admitted. A collecting workspace routes
 * and logs the call; otherwise a score below the threshold vetoes it
 * without a search, and every kShadowStride-th veto is shadow-routed to
 * estimate the false-reject rate. The veto stands either way.
 */
const RouteResult *
routeContested(const Mapping &mapping, dfg::EdgeId e, const dfg::Edge &edge,
               const RouterCosts &costs, RouterWorkspace &ws)
{
    LearnedAdmission &learned = ws.learned;
    std::array<double, RoutabilityModel::kFeatureCount> f;
    fillRoutabilityFeatures(mapping, e, costs, ws, f.data());
    ++ws.counters.filterQueries;
    if (learned.collectFor != nullptr) {
        const RouteResult *out = dispatchRoute(mapping, e, edge, costs, ws);
        logRoutabilitySample(*learned.collectFor, f.data(), out != nullptr);
        return out;
    }
    if (learned.model->score(f.data()) >= learned.model->threshold)
        return dispatchRoute(mapping, e, edge, costs, ws);
    ++ws.counters.filterRejects;
    if (learned.vetoes++ % LearnedAdmission::kShadowStride == 0) {
        ++ws.counters.filterShadowRoutes;
        if (dispatchRoute(mapping, e, edge, costs, ws) != nullptr)
            ++ws.counters.filterFalseRejects;
    }
    return nullptr;
}

} // namespace

bool
provablyUnroutable(const Mapping &mapping, dfg::EdgeId e,
                   RouterWorkspace &ws)
{
    const auto &mrrg = mapping.mrrg();
    if (!mrrg.accel().temporalMapping())
        return false;
    const int len = mapping.requiredLength(e);
    if (len < 0)
        return true;
    const dfg::Edge &edge = mapping.dfg().edge(e);
    const Placement &src = mapping.placement(edge.src);
    const Placement &dst = mapping.placement(edge.dst);
    ws.oracle.bind(mapping.mrrgPtr(), ws.archContext, ws.counters);
    const auto hops = ws.oracle.minHopsTo(dst.pe, dst.time, ws.counters);
    const int fu = mrrg.fuId(src.pe, src.time);
    const int32_t h = hops[static_cast<size_t>(fu)];
    return h < 0 || h > len;
}

const RouteResult *
routeEdge(const Mapping &mapping, dfg::EdgeId e, const RouterCosts &costs,
          RouterWorkspace &ws)
{
    const dfg::Edge &edge = mapping.dfg().edge(e);
    if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst))
        panic("routeEdge: edge ", e, " has unplaced endpoints");
    if (mapping.isRouted(e))
        panic("routeEdge: edge ", e, " already routed");

    if (mapping.mrrg().accel().temporalMapping()) {
        // Tier 0: the structural rule, exact for every caller.
        if (provablyUnroutable(mapping, e, ws)) {
            ++ws.counters.filterQueries;
            ++ws.counters.filterRejects;
            return nullptr;
        }
        if (!costs.allowOveruse && ws.learned.armed())
            return routeContested(mapping, e, edge, costs, ws);
    }
    return dispatchRoute(mapping, e, edge, costs, ws);
}

int
routeAll(Mapping &mapping, const RouterCosts &costs, RouterWorkspace &ws,
         const std::vector<dfg::EdgeId> &order)
{
    const auto &dfg = mapping.dfg();
    std::vector<dfg::EdgeId> edges = order;
    if (edges.empty()) {
        for (dfg::EdgeId e = 0;
             e < static_cast<dfg::EdgeId>(dfg.numEdges()); ++e) {
            // lint:allow-growth (per-call edge order, outside DP loop)
            edges.push_back(e);
        }
    }
    int failures = 0;
    for (dfg::EdgeId e : edges) {
        if (mapping.isRouted(e))
            continue;
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst)) {
            ++failures;
            continue;
        }
        const RouteResult *result = routeEdge(mapping, e, costs, ws);
        if (result) {
            mapping.setRoute(e, result->path);
        } else {
            ++failures;
        }
    }
    return failures;
}

} // namespace lisa::map
