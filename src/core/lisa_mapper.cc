#include "core/lisa_mapper.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "mappers/placement_util.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "verify/verify.hh"

namespace lisa::core {

namespace {

/** Sigma schedule factor: sigma = max{1, kAlpha*T - Acc}. */
constexpr double kAlpha = 0.05;
/** Random nodes unmapped per iteration on top of conflict nodes. */
constexpr int kExtraUnmaps = 2;
/** Cap on conflict-driven unmaps per iteration. */
constexpr int kMaxConflictUnmaps = 6;
/** Placement-cost weight of label 3 (spatial distance). */
constexpr double kSpatialWeight = 1.0;
/** Penalty per value already occupying a candidate FU. */
constexpr double kOccupiedPenalty = 25.0;
/** @{ Metropolis acceptance schedule of the unmap/remap movements. */
constexpr double kInitialTemp = 25.0;
constexpr double kMinTemp = 0.4;
constexpr double kCoolRate = 0.985;
/** @} */

} // namespace

LisaMapper::LisaMapper(Labels labels, LisaConfig config)
    : lbls(std::move(labels)), cfg(config)
{
}

std::string
LisaMapper::name() const
{
    return cfg.labelsOnlyForInit ? "LISA-partial" : "LISA";
}

std::vector<dfg::NodeId>
LisaMapper::selectUnmapSet(const map::Mapping &mapping, Rng &rng) const
{
    const auto &dfg = mapping.dfg();
    // `chosen` answers membership only; `order` preserves insertion order
    // so the returned unmap set never depends on hash-bucket layout
    // (unordered iteration order is banned by tools/check_determinism.py:
    // it varies across standard libraries and would silently break
    // (seed, threads) reproducibility of the movement loop).
    std::unordered_set<dfg::NodeId> chosen;
    std::vector<dfg::NodeId> order;
    auto take = [&chosen, &order](dfg::NodeId v) {
        if (chosen.insert(v).second)
            order.push_back(v);
    };

    // Nodes touching failures: endpoints of un-routed edges and producers
    // involved in overused resources.
    std::vector<dfg::NodeId> conflicts;
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (!mapping.isRouted(e)) {
            conflicts.push_back(dfg.edge(e).src);
            conflicts.push_back(dfg.edge(e).dst);
        }
    }
    for (int res = 0; res < mapping.mrrg().numResources(); ++res) {
        if (mapping.resourceOveruse(res) > 0) {
            for (dfg::NodeId v : mapping.valuesOn(res))
                conflicts.push_back(v);
        }
    }
    rng.shuffle(conflicts);
    for (dfg::NodeId v : conflicts) {
        if (static_cast<int>(chosen.size()) >= kMaxConflictUnmaps)
            break;
        take(v);
    }

    for (int i = 0; i < kExtraUnmaps; ++i)
        take(static_cast<dfg::NodeId>(rng.index(dfg.numNodes())));
    if (order.empty())
        take(static_cast<dfg::NodeId>(rng.index(dfg.numNodes())));

    return order;
}

bool
LisaMapper::placeNodeByLabels(const map::MapContext &ctx,
                              map::Mapping &mapping, dfg::NodeId v,
                              double sigma, bool use_labels) const
{
    const auto &accel = mapping.mrrg().accel();
    const auto &dfg = ctx.dfg;
    const bool temporal = accel.temporalMapping();
    const int ii = mapping.mrrg().ii();

    const auto &capable = accel.opCapablePes(dfg.node(v).op);
    if (capable.empty())
        return false;

    // Candidate schedule times.
    std::vector<int> times;
    if (!temporal) {
        times.push_back(0);
    } else {
        map::TimeWindow w = feasibleWindow(mapping, ctx.analysis, v);
        if (!w.valid()) {
            // Dependencies cannot all be satisfied; fall back to an
            // ASAP-anchored window and let the router penalties drive the
            // next unmap selection toward the conflict.
            w.lo = std::min(ctx.analysis.asap(v), mapping.horizon() - 1);
            w.hi = w.lo;
        }
        const int hi = std::min(w.hi, w.lo + ii + 2);
        for (int t = w.lo; t <= hi; ++t)
            times.push_back(t);
    }

    // Same-level partners of v with their pair index.
    const auto &pairs = ctx.analysis.sameLevelPairs();
    std::vector<std::pair<size_t, dfg::NodeId>> partners;
    for (size_t i = 0; i < pairs.size(); ++i) {
        if (pairs[i].a == v)
            partners.emplace_back(i, pairs[i].b);
        else if (pairs[i].b == v)
            partners.emplace_back(i, pairs[i].a);
    }

    struct Candidate
    {
        int pe;
        int time;
        double cost;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(capable.size() * times.size());

    for (int pe : capable) {
        for (int t : times) {
            double cost;
            if (!use_labels) {
                cost = ctx.rng.uniform(); // random ranking (partial mode)
            } else {
                cost = 0.0;
                // Labels 3 and 4: distance mismatch to placed neighbours.
                for (dfg::EdgeId e : dfg.inEdges(v)) {
                    const dfg::Edge &edge = dfg.edge(e);
                    if (edge.src == v || !mapping.isPlaced(edge.src))
                        continue;
                    const auto &pu = mapping.placement(edge.src);
                    cost += kSpatialWeight *
                            std::abs(accel.spatialDistance(pu.pe, pe) -
                                     lbls.spatialDist[e]);
                    if (temporal) {
                        double td = t + edge.iterDistance * ii - pu.time;
                        cost += cfg.temporalWeight *
                                std::abs(td - lbls.temporalDist[e]);
                    }
                }
                for (dfg::EdgeId e : dfg.outEdges(v)) {
                    const dfg::Edge &edge = dfg.edge(e);
                    if (edge.dst == v || !mapping.isPlaced(edge.dst))
                        continue;
                    const auto &pw = mapping.placement(edge.dst);
                    cost += kSpatialWeight *
                            std::abs(accel.spatialDistance(pe, pw.pe) -
                                     lbls.spatialDist[e]);
                    if (temporal) {
                        double td = pw.time + edge.iterDistance * ii - t;
                        cost += cfg.temporalWeight *
                                std::abs(td - lbls.temporalDist[e]);
                    }
                }
                // Label 2: same-level association.
                for (auto [idx, other] : partners) {
                    if (!mapping.isPlaced(other))
                        continue;
                    int d = accel.spatialDistance(
                        mapping.placement(other).pe, pe);
                    cost += cfg.associationWeight *
                            std::abs(d - lbls.association[idx]);
                }
                // Penalise already-occupied FUs.
                cost += kOccupiedPenalty *
                        mapping.numInstancesOn(
                            mapping.mrrg().fuId(PeId{pe}, AbsTime{t}));
            }
            candidates.push_back(Candidate{pe, t, cost});
        }
    }

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });

    // Normal-distribution selection over the ranking (Algorithm 1, lines
    // 7-8): lower-cost candidates are more likely, sigma controls spread.
    size_t idx = static_cast<size_t>(
        std::floor(std::abs(ctx.rng.normal(0.0, sigma))));
    idx = std::min(idx, candidates.size() - 1);

    mapping.placeNode(v, PeId{candidates[idx].pe},
                      AbsTime{candidates[idx].time});
    return true;
}

void
LisaMapper::routeByPriority(map::Mapping &mapping,
                            map::RouterWorkspace &ws) const
{
    const auto &dfg = mapping.dfg();
    std::vector<dfg::EdgeId> order;
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (!mapping.isRouted(e))
            order.push_back(e);
    }
    // Edges predicted to need more routing resources are routed first
    // (Algorithm 1, line 9).
    std::stable_sort(order.begin(), order.end(),
                     [&](dfg::EdgeId a, dfg::EdgeId b) {
                         return lbls.temporalDist[a] > lbls.temporalDist[b];
                     });
    map::routeAll(mapping, map::RouterCosts{}, ws, order);
}

std::optional<map::Mapping>
LisaMapper::attemptStream(const map::MapContext &ctx)
{
    Stopwatch timer;
    map::Mapping mapping(ctx.dfg, ctx.mrrg);
    map::RouterWorkspace ws;
    ws.archContext = ctx.archCtx;
    map::MapperStats stats;

    long attempts = 0;
    long accepted = 0;
    double temp = kInitialTemp;

    // Merge this stream's counters into the context sink on every exit
    // path (the movement loop has several).
    auto finish = [&](std::optional<map::Mapping> result) {
        stats.router = ws.counters;
        stats.mapSeconds = timer.seconds();
        if (ctx.stats)
            ctx.stats->merge(stats);
        return result;
    };

    // Initial mapping: place everything in schedule-order, then route by
    // label-4 priority (Algorithm 1 with all nodes unmapped).
    auto initial_mapping = [&]() -> bool {
        Stopwatch init_timer;
        ctx.countAttempt();
        ++stats.restarts;
        mapping.clear();
        std::vector<dfg::NodeId> order;
        for (size_t v = 0; v < ctx.dfg.numNodes(); ++v)
            order.push_back(static_cast<dfg::NodeId>(v));
        std::stable_sort(order.begin(), order.end(),
                         [&](dfg::NodeId a, dfg::NodeId b) {
                             return lbls.scheduleOrder[a] <
                                    lbls.scheduleOrder[b];
                         });
        bool ok = true;
        for (dfg::NodeId v : order) {
            if (!placeNodeByLabels(ctx, mapping, v, 1.0, true)) {
                ok = false; // some op unsupported: unmappable
                break;
            }
        }
        if (ok)
            routeByPriority(mapping, ws);
        stats.initSeconds += init_timer.seconds();
        return ok;
    };

    if (!initial_mapping())
        return finish(std::nullopt);
    if (mapping.valid()) {
        if (verify::validationEnabled())
            verify::checkOrDie(mapping, {}, "LisaMapper acceptance");
        return finish(std::move(mapping));
    }
    long since_improvement = 0;
    std::vector<dfg::EdgeId> affected; // rip-up set, refilled per move

    Stopwatch move_timer;
    while (timer.seconds() < ctx.timeBudget && !ctx.cancelled()) {
        // Periodic restart when the movement loop stops making progress.
        if (since_improvement > 400) {
            if (!initial_mapping()) {
                stats.moveSeconds += move_timer.seconds();
                return finish(std::nullopt);
            }
            if (mapping.valid()) {
                if (verify::validationEnabled()) {
                    verify::checkOrDie(mapping, {},
                                       "LisaMapper restart acceptance");
                }
                stats.moveSeconds += move_timer.seconds();
                return finish(std::move(mapping));
            }
            since_improvement = 0;
            attempts = 0;
            accepted = 0;
            temp = kInitialTemp;
        }

        // Unmap one node (Algorithm 1, line 2): strongly biased toward
        // nodes involved in routing failures and resource conflicts.
        dfg::NodeId v;
        if (ctx.rng.chance(0.8)) {
            auto conflicts = selectUnmapSet(mapping, ctx.rng);
            v = ctx.rng.pick(conflicts);
        } else {
            v = static_cast<dfg::NodeId>(ctx.rng.index(ctx.dfg.numNodes()));
        }

        // One unmap/replace/re-route movement inside a transaction: the
        // mapping records the deltas, so reject is a rollback and the
        // Metropolis test reads the incremental cost delta.
        map::incidentEdges(ctx.dfg, v, affected);
        mapping.beginTransaction();
        for (dfg::EdgeId e : affected)
            mapping.clearRoute(e);
        mapping.unplaceNode(v);

        const double sigma =
            std::max(1.0, kAlpha * static_cast<double>(attempts) -
                              static_cast<double>(accepted));
        const bool use_labels = !cfg.labelsOnlyForInit;
        placeNodeByLabels(ctx, mapping, v, sigma, use_labels);

        // Re-route the affected edges, most demanding first (line 9).
        std::stable_sort(affected.begin(), affected.end(),
                         [&](dfg::EdgeId a, dfg::EdgeId b) {
                             return lbls.temporalDist[a] >
                                    lbls.temporalDist[b];
                         });
        // A move that ends valid commits at once; any other move takes
        // the Metropolis test. routeMove rejects early only a move that
        // can no longer end valid.
        const map::MoveTest test{temp, true};
        const map::MoveVerdict verdict =
            map::routeMove(mapping, affected, test, ws, ctx.rng, stats);
        if (verdict.accept && mapping.valid()) {
            mapping.commitTransaction();
            if (verify::validationEnabled())
                verify::checkOrDie(mapping, {}, "LisaMapper acceptance");
            ++stats.movesCommitted;
            stats.moveSeconds += move_timer.seconds();
            return finish(std::move(mapping));
        }

        ++attempts;
        if (verdict.accept) {
            mapping.commitTransaction();
            if (verify::validationEnabled()) {
                verify::checkOrDie(mapping, {.requireComplete = false},
                                   "LisaMapper commit");
            }
            ++stats.movesCommitted;
            if (verdict.delta < 0) {
                ++accepted;
                since_improvement = 0;
            } else {
                ++since_improvement;
            }
        } else {
            ++since_improvement;
            mapping.rollbackTransaction();
            ++stats.movesRolledBack;
        }

        temp *= kCoolRate;
        if (temp < kMinTemp)
            temp = kMinTemp;
    }
    stats.moveSeconds += move_timer.seconds();
    return finish(std::nullopt);
}

std::optional<map::Mapping>
LisaMapper::tryMap(const map::MapContext &ctx)
{
    if (!lbls.matches(ctx.dfg, ctx.analysis))
        panic("LisaMapper: labels do not match the DFG");
    return map::runAttemptPortfolio(
        ctx,
        [this](const map::MapContext &sub) { return attemptStream(sub); });
}

} // namespace lisa::core
