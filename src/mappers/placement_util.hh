/**
 * @file
 * Placement helpers shared by the annealing mappers and the exact mapper:
 * feasible schedule-time windows derived from already-placed neighbours.
 */

#ifndef LISA_MAPPERS_PLACEMENT_UTIL_HH
#define LISA_MAPPERS_PLACEMENT_UTIL_HH

#include "dfg/analysis.hh"
#include "mapping/mapping.hh"

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

} // namespace lisa::map

#endif // LISA_MAPPERS_PLACEMENT_UTIL_HH
