/**
 * @file
 * Edge router over the MRRG.
 *
 * Temporal architectures route with an exact-length layered shortest-path
 * search (the schedule fixes the route latency, so each step advances one
 * II layer); spatial-only architectures use Dijkstra with free length.
 * Resources already carrying the same value are free to reuse, which yields
 * fanout routing trees; resources carrying other values either block the
 * route (strict mode) or cost a congestion penalty (search mode).
 */

#ifndef LISA_MAPPING_ROUTER_HH
#define LISA_MAPPING_ROUTER_HH

#include <vector>

#include "mapping/mapping.hh"

namespace lisa::map {

class RouterWorkspace;

/** @{ Route prices. Every route pays the entry cost of each resource it
 *  newly occupies; search mode adds the penalty per value already on it. */
inline constexpr double kFuRouteCost = 1.0;    ///< FU as route-through
inline constexpr double kRegRouteCost = 0.7;   ///< register, one cycle
inline constexpr double kOverusePenalty = 8.0; ///< per taken resource
/** @} */

/** Router mode: the annealers search with overuse priced in; the exact
 *  mapper routes strictly. */
struct RouterCosts
{
    bool allowOveruse = true; ///< false = blocked instead of penalised
};

/**
 * Result of routing one edge.
 *
 * Paths are always complete: they start at the producer's first hop even
 * when the router branched off an existing route of the same value
 * (fanout). Shared hops are reference-counted by the Mapping, so ripping
 * up one branch never strands its siblings, and hop i always occupies the
 * value instance at absolute time T(src) + i + 1.
 */
struct RouteResult
{
    std::vector<int> path; ///< intermediate resources, in step order
    double cost = 0.0;     ///< summed *new* resource costs incl. penalties
};

/**
 * The tier-0 structural rule: true when edge @p e cannot route at its
 * current placement whatever the occupancy. That is a negative required
 * length, or a producer FU whose oracle min-hop distance to the
 * destination's feeder set is -1 or larger than the length: every holder
 * of the value is downstream of the producer FU, so by the triangle
 * inequality over move hops no fanout seed can reach in budget either.
 * A pure function of the two endpoint placements; routeEdge checks it
 * first on every temporal call and returns nullptr whenever it holds.
 * Always false on spatial-only fabrics. Both endpoints must be placed;
 * binds @p ws's oracle.
 */
bool provablyUnroutable(const Mapping &mapping, dfg::EdgeId e,
                        RouterWorkspace &ws);

/**
 * Route edge @p e of @p mapping using @p ws for all scratch state. Both
 * endpoints must be placed and the edge un-routed. Zero heap allocations
 * once the workspace has grown to the (MRRG, DFG) high-water mark.
 * Returns nullptr when no route exists (tier 0 above, blocked resources
 * in strict mode, or disconnection) or when the learned tier of an armed
 * workspace vetoes the call (routability_filter.hh); otherwise a pointer
 * into the workspace, valid until the next routeEdge call on @p ws.
 */
const RouteResult *routeEdge(const Mapping &mapping, dfg::EdgeId e,
                             const RouterCosts &costs, RouterWorkspace &ws);

/**
 * Route all currently un-routed edges whose endpoints are placed, in the
 * given order (or edge-id order when @p order is empty).
 * @return number of edges that could not be routed.
 */
int routeAll(Mapping &mapping, const RouterCosts &costs, RouterWorkspace &ws,
             const std::vector<dfg::EdgeId> &order = {});

} // namespace lisa::map

#endif // LISA_MAPPING_ROUTER_HH
