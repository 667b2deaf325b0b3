#include "mappers/exact_mapper.hh"

#include <algorithm>
#include <atomic>
#include <memory>

#include "arch/arch_context.hh"
#include "mapping/router_workspace.hh"
#include "mappers/placement_util.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "verify/verify.hh"

namespace lisa::map {

namespace {

/** Schedule times tried per node: [window.lo, window.lo + II + slack]. */
constexpr int kExtraSlack = 2;
/** Every route is strict: no overuse is ever accepted. */
constexpr RouterCosts kStrictRouting{.allowOveruse = false};

/** Depth-first enumeration state. */
struct Dfs
{
    const MapContext &ctx;
    Mapping &mapping;
    const std::vector<dfg::NodeId> &order;
    Stopwatch timer{};
    bool timedOut = false;
    RouterWorkspace ws{};
    /** Placement trials taken (each placeNode tried counts one); the
     *  bench att/s denominator for ILP* rows. Published to the shared
     *  MapContext counter once per tryMap, not per trial. */
    long placements = 0;
    /** Rip-up set of routeIncidentStrict, refilled per call. */
    std::vector<dfg::EdgeId> pending{};

    bool place(size_t depth);
    bool routeIncidentStrict(dfg::NodeId v,
                             std::vector<dfg::EdgeId> &routed_here);
};

bool
Dfs::routeIncidentStrict(dfg::NodeId v, std::vector<dfg::EdgeId> &routed_here)
{
    const auto &dfg = mapping.dfg();
    incidentEdges(dfg, v, pending);

    // Longest routes first: they are the most constrained.
    if (mapping.mrrg().accel().temporalMapping()) {
        std::stable_sort(pending.begin(), pending.end(),
                         [&](dfg::EdgeId a, dfg::EdgeId b) {
                             const auto &ea = dfg.edge(a);
                             const auto &eb = dfg.edge(b);
                             auto ready = [&](const dfg::Edge &ed) {
                                 return mapping.isPlaced(ed.src) &&
                                        mapping.isPlaced(ed.dst);
                             };
                             if (!ready(ea) || !ready(eb))
                                 return false;
                             return mapping.requiredLength(a) >
                                    mapping.requiredLength(b);
                         });
    }

    for (dfg::EdgeId e : pending) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst))
            continue;
        if (mapping.isRouted(e))
            continue;
        const RouteResult *res = routeEdge(mapping, e, kStrictRouting, ws);
        if (!res) {
            for (dfg::EdgeId r : routed_here)
                mapping.clearRoute(r);
            routed_here.clear();
            return false;
        }
        mapping.setRoute(e, res->path);
        routed_here.push_back(e);
    }
    return true;
}

bool
Dfs::place(size_t depth)
{
    if (depth == order.size())
        return true;
    if (timer.seconds() > ctx.timeBudget || ctx.cancelled()) {
        timedOut = true;
        return false;
    }

    const dfg::NodeId v = order[depth];
    const auto &accel = mapping.mrrg().accel();
    const int ii = mapping.mrrg().ii();
    const auto &capable = accel.opCapablePes(ctx.dfg.node(v).op);
    if (capable.empty())
        return false;

    TimeWindow w = feasibleWindow(mapping, ctx.analysis, v);
    if (!w.valid())
        return false;
    const int hi = accel.temporalMapping()
                       ? std::min(w.hi, w.lo + ii + kExtraSlack)
                       : 0;

    for (int time = w.lo; time <= hi; ++time) {
        for (int pe : capable) {
            // The FU slot must be exclusively ours (no overuse is ever
            // accepted in the exact search).
            if (mapping.numInstancesOn(
                    mapping.mrrg().fuId(PeId{pe}, AbsTime{time})) > 0)
                continue;
            ++placements;
            mapping.placeNode(v, PeId{pe}, AbsTime{time});
            std::vector<dfg::EdgeId> routed_here;
            if (routeIncidentStrict(v, routed_here)) {
                if (place(depth + 1))
                    return true;
                for (dfg::EdgeId e : routed_here)
                    mapping.clearRoute(e);
            }
            mapping.unplaceNode(v);
            if (timedOut)
                return false;
        }
    }
    return false;
}

} // namespace

std::optional<Mapping>
ExactMapper::tryMap(const MapContext &ctx)
{
    Mapping mapping(ctx.dfg, ctx.mrrg);
    Dfs dfs{.ctx = ctx,
            .mapping = mapping,
            .order = ctx.analysis.topoOrder()};
    dfs.ws.archContext = ctx.archCtx;
    // The learned tier is this search's alone: it is the only caller
    // whose hard-capacity routes the model adjudicates. Learned vetoes
    // speed the enumeration up but are fallible, and this mapper's
    // failure verdicts feed II selection. Fail-closed protocol: take
    // vetoes on the first pass, and if the enumeration completes
    // empty-handed while any fired, rerun it without the model (tier-0
    // rejects only, provably router-identical) on the remaining time
    // budget — a completed "unmappable" verdict is then always backed by
    // an exact enumeration, never by a prediction. A timeout failure is
    // inconclusive with or without the model; warn once so a
    // false-rejecting user-trained model is not silently absorbed.
    std::shared_ptr<const RoutabilityModel> model;
    if (ctx.archCtx != nullptr)
        model = ctx.archCtx->routabilityModel();
    dfs.ws.learned.model = model.get();
    if (ctx.archCtx != nullptr && routabilityCollecting())
        dfs.ws.learned.collectFor = ctx.archCtx;
    bool found = dfs.place(0) && mapping.valid();
    if (!found && dfs.ws.learned.vetoes > 0) {
        if (!dfs.timedOut && !ctx.cancelled()) {
            // A failed pass is not always an empty mapping: place() can
            // succeed with a residual invalid() state (e.g. overuse the
            // FU-slot check does not cover), so start the rerun from a
            // fresh mapping rather than on top of the wreckage.
            mapping = Mapping(ctx.dfg, ctx.mrrg);
            dfs.ws.learned.model = nullptr;
            found = dfs.place(0) && mapping.valid();
        } else if (dfs.timedOut) {
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true))
                warn("ILP*: a time-limited exact search failed after "
                     "learned routability vetoes; if achieved IIs look "
                     "worse than expected, rerun without the "
                     "routability model");
        }
    }
    ctx.countAttempts(dfs.placements);
    if (ctx.stats) {
        MapperStats stats;
        stats.router = dfs.ws.counters;
        stats.mapSeconds = dfs.timer.seconds();
        ctx.stats->merge(stats);
    }
    if (found) {
        if (verify::validationEnabled())
            verify::checkOrDie(mapping, {}, "ExactMapper acceptance");
        return mapping;
    }
    return std::nullopt;
}

} // namespace lisa::map
