/**
 * @file
 * Placement helpers shared by the annealing mappers and the exact mapper:
 * feasible schedule-time windows derived from already-placed neighbours,
 * rip-up sets, and the routing + Metropolis test of one annealing move.
 */

#ifndef LISA_MAPPERS_PLACEMENT_UTIL_HH
#define LISA_MAPPERS_PLACEMENT_UTIL_HH

#include <vector>

#include "dfg/analysis.hh"
#include "mappers/mapper_stats.hh"
#include "mapping/cost.hh"
#include "mapping/mapping.hh"
#include "mapping/router.hh"
#include "support/random.hh"

namespace lisa::map {

/** Inclusive feasible time range for a node. */
struct TimeWindow
{
    int lo = 0;
    int hi = 0;

    bool valid() const { return lo <= hi; }
};

/**
 * Feasible schedule times for @p v given the placements of its neighbours:
 * every placed predecessor u via an edge of distance d forces
 * T(v) >= T(u) + 1 - d*II, and every placed successor w forces
 * T(v) <= T(w) - 1 + d*II. Unconstrained bounds default to
 * [asap(v), horizon).
 *
 * Spatial-only architectures always return [0, 0].
 */
TimeWindow feasibleWindow(const Mapping &mapping,
                          const dfg::Analysis &analysis, dfg::NodeId v);

/**
 * Fill @p out with all edges incident to @p v (in-edges, then out-edges),
 * with self-loops kept once. This is the rip-up set of a relocate-one-node
 * move; the move loops pass a reused buffer so a move allocates nothing
 * once the buffer has grown to the largest node degree.
 */
void incidentEdges(const dfg::Dfg &dfg, dfg::NodeId v,
                   std::vector<dfg::EdgeId> &out);

/**
 * Stable-sort edges longest-required-route first (the Fig 12 routing
 * priority). All endpoints must be placed.
 */
void sortByRoutingPriority(const Mapping &mapping,
                           std::vector<dfg::EdgeId> &edges);

/** The Metropolis test of one annealing move. Moves route in search
 *  mode (RouterCosts{}), overuse priced in. */
struct MoveTest
{
    double temp = 1.0;
    /** LISA's rule: a move that ends valid() commits whatever its cost
     *  delta, so it may be rejected early only once it cannot end valid. */
    bool validCommits = false;
    /** Route resource and overuse weights must be non-negative for the
     *  early reject to apply (the defaults are). */
    CostParams costParams{};
};

/** What routeMove decided about one move. */
struct MoveVerdict
{
    /** Commit the transaction; false means roll it back. */
    bool accept = false;
    /** Final cost delta of the move; 0 after an early reject. */
    double delta = 0.0;
};

/**
 * Route the rip-up set @p order of a speculative move, in that order,
 * and run its Metropolis test: accept iff delta <= 0 or
 * u < exp(-delta / temp), with u = rng.uniform() drawn only when
 * delta > 0. The moved node is placed and the transaction is open; the
 * caller commits or rolls back. Every verdict, route and RNG draw is
 * identical to routing every edge and testing afterwards, but the move
 * stops as soon as the verdict is certain:
 *
 *  - Edges with an unplaced endpoint are never routed. Edges that
 *    provablyUnroutable() marks dead are never passed to routeEdge; they
 *    would produce no route, so skipping them changes no other route.
 *    @p order is compacted in place to the remaining live edges.
 *  - Routing one edge lowers the cost by at most unroutedWeight (resources
 *    and overuse only grow), so with `live` edges still to route,
 *    bound = delta - unroutedWeight * live <= the final delta. Once
 *    bound > 0 the final test will draw u, so u is drawn then, and
 *    !(u < exp(-bound / temp)) rejects the move without routing the
 *    rest. The final test reuses that u.
 *
 * Counts movesEarlyRejected and routeCallsSkipped into @p stats.
 */
MoveVerdict routeMove(Mapping &mapping, std::vector<dfg::EdgeId> &order,
                      const MoveTest &test, RouterWorkspace &ws, Rng &rng,
                      MapperStats &stats);

} // namespace lisa::map

#endif // LISA_MAPPERS_PLACEMENT_UTIL_HH
