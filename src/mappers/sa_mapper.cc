#include "mappers/sa_mapper.hh"

#include <algorithm>
#include <numeric>

#include "mappers/placement_util.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "verify/verify.hh"

namespace lisa::map {

namespace {

/** @{ The annealing schedule: kMovesPerTemp movements per temperature
 *  (50 in the paper), geometric cooling from kInitialTemp by kCoolRate
 *  down to kMinTemp, and a restart after kStallLimit consecutive
 *  zero-acceptance temperatures. */
constexpr int kMovesPerTemp = 50;
constexpr double kInitialTemp = 60.0;
constexpr double kMinTemp = 0.25;
constexpr double kCoolRate = 0.92;
constexpr int kStallLimit = 4;
/** @} */

} // namespace

SaMapper::SaMapper(SaConfig config) : cfg(config) {}

std::string
SaMapper::name() const
{
    if (cfg.movementMultiplier > 1)
        return "SA-M";
    if (cfg.routingPriority)
        return "SA+prio";
    return "SA";
}

void
SaMapper::randomInit(const MapContext &ctx, Mapping &mapping,
                     RouterWorkspace &ws)
{
    mapping.clear();
    const auto &accel = mapping.mrrg().accel();
    const int ii = mapping.mrrg().ii();
    for (dfg::NodeId v : ctx.analysis.topoOrder()) {
        const auto &capable = accel.opCapablePes(ctx.dfg.node(v).op);
        if (capable.empty())
            return; // leaves the mapping partial; cost will reflect it
        int pe = ctx.rng.pick(capable);
        int time = 0;
        if (accel.temporalMapping()) {
            TimeWindow w = feasibleWindow(mapping, ctx.analysis, v);
            if (w.valid()) {
                int hi = std::min(w.hi, w.lo + ii + 2);
                time = ctx.rng.uniformInt(w.lo, hi);
            } else {
                time = std::min(ctx.analysis.asap(v), mapping.horizon() - 1);
            }
        }
        mapping.placeNode(v, PeId{pe}, AbsTime{time});
    }
    routeInOrder(mapping, ws);
}

void
SaMapper::routeInOrder(Mapping &mapping, RouterWorkspace &ws)
{
    std::vector<dfg::EdgeId> order(mapping.dfg().numEdges());
    std::iota(order.begin(), order.end(), dfg::EdgeId{0});
    if (cfg.routingPriority && mapping.mrrg().accel().temporalMapping() &&
        mapping.numPlaced() == mapping.dfg().numNodes()) {
        sortByRoutingPriority(mapping, order);
    }
    routeAll(mapping, RouterCosts{}, ws, order);
}

bool
SaMapper::annealOnce(const MapContext &ctx, Mapping &mapping, double budget,
                     RouterWorkspace &ws, MapperStats &stats)
{
    Stopwatch timer;
    const auto &accel = mapping.mrrg().accel();
    const int ii = mapping.mrrg().ii();

    {
        Stopwatch init_timer;
        randomInit(ctx, mapping, ws);
        stats.initSeconds += init_timer.seconds();
    }
    if (mapping.numPlaced() != ctx.dfg.numNodes())
        return false;
    if (mapping.valid())
        return true;

    double temp = kInitialTemp;
    int stalled = 0;
    const int moves = kMovesPerTemp * cfg.movementMultiplier;
    const size_t num_nodes = ctx.dfg.numNodes();

    // Rip-up set, refilled per move and sorted into routing order.
    std::vector<dfg::EdgeId> affected;

    Stopwatch move_timer;
    bool ok = [&]() -> bool {
        while (temp > kMinTemp) {
            int accepted = 0;
            for (int m = 0; m < moves; ++m) {
                if ((m & 15) == 0 &&
                    (ctx.cancelled() || timer.seconds() > budget))
                    return mapping.valid();

                dfg::NodeId v =
                    static_cast<dfg::NodeId>(ctx.rng.index(num_nodes));
                const auto &capable = accel.opCapablePes(ctx.dfg.node(v).op);
                if (capable.empty())
                    continue;

                const int old_time = mapping.placement(v).time;
                incidentEdges(ctx.dfg, v, affected);

                // Speculative move: the transaction records every
                // placement and route delta, so reject is a rollback
                // instead of a hand-rolled snapshot/undo, and the accept
                // test reads the incremental cost delta instead of
                // recomputing from scratch.
                mapping.beginTransaction();
                for (dfg::EdgeId e : affected)
                    mapping.clearRoute(e);
                mapping.unplaceNode(v);

                int pe = ctx.rng.pick(capable);
                int time = old_time;
                if (accel.temporalMapping()) {
                    TimeWindow w = feasibleWindow(mapping, ctx.analysis, v);
                    if (w.valid() && ctx.rng.chance(0.7)) {
                        int hi = std::min(w.hi, w.lo + ii + 2);
                        time = ctx.rng.uniformInt(w.lo, hi);
                    } else {
                        time =
                            std::clamp(old_time + ctx.rng.uniformInt(-2, 2),
                                       0, mapping.horizon() - 1);
                    }
                }
                mapping.placeNode(v, PeId{pe}, AbsTime{time});

                if (cfg.routingPriority && accel.temporalMapping())
                    sortByRoutingPriority(mapping, affected);
                const MoveTest test{temp};
                const bool accept =
                    routeMove(mapping, affected, test, ws, ctx.rng, stats)
                        .accept;
                if (accept) {
                    mapping.commitTransaction();
                    if (verify::validationEnabled()) {
                        verify::checkOrDie(mapping, {.requireComplete = false},
                                           "SaMapper commit");
                    }
                    ++stats.movesCommitted;
                    ++accepted;
                    if (mapping.valid())
                        return true;
                } else {
                    mapping.rollbackTransaction();
                    ++stats.movesRolledBack;
                }
            }
            stalled = (accepted == 0) ? stalled + 1 : 0;
            if (stalled >= kStallLimit)
                break; // frozen: restart with a fresh random start
            temp *= kCoolRate;
        }
        return mapping.valid();
    }();
    stats.moveSeconds += move_timer.seconds();
    return ok;
}

std::optional<Mapping>
SaMapper::attemptStream(const MapContext &ctx)
{
    Stopwatch total;
    RouterWorkspace ws;
    ws.archContext = ctx.archCtx;
    MapperStats stats;
    std::optional<Mapping> out;
    while (total.seconds() < ctx.timeBudget && !ctx.cancelled()) {
        ctx.countAttempt();
        ++stats.restarts;
        Mapping mapping(ctx.dfg, ctx.mrrg);
        if (annealOnce(ctx, mapping, ctx.timeBudget - total.seconds(), ws,
                       stats) &&
            mapping.valid()) {
            if (verify::validationEnabled())
                verify::checkOrDie(mapping, {}, "SaMapper acceptance");
            out = std::move(mapping);
            break;
        }
    }
    stats.router = ws.counters;
    stats.mapSeconds = total.seconds();
    if (ctx.stats)
        ctx.stats->merge(stats);
    return out;
}

std::optional<Mapping>
SaMapper::tryMap(const MapContext &ctx)
{
    return runAttemptPortfolio(ctx, [this](const MapContext &sub) {
        return attemptStream(sub);
    });
}

} // namespace lisa::map
