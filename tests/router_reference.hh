/**
 * @file
 * Reference edge router: the plain, undirected search the optimized
 * kernels in src/mapping/router.cc must agree with.
 *
 * Temporal fabrics route with an exact-length layered DP over the MRRG;
 * spatial-only fabrics route with Dijkstra. Neither uses the static-
 * distance oracle, the step-cost memo or the routability filter, and the
 * implementation shares no code with the production kernels (it carries
 * its own copies of the fanout-seed and shared-prefix helpers), so a bug
 * in one side cannot hide in both. tests/test_router_equiv.cc routes in
 * lock-step through both routers; bench/router_bench times both.
 */

#ifndef LISA_TESTS_ROUTER_REFERENCE_HH
#define LISA_TESTS_ROUTER_REFERENCE_HH

#include "mapping/router.hh"
#include "mapping/router_workspace.hh"

namespace lisa::map {

/**
 * Route edge @p e with the reference kernels, using @p ws for scratch
 * state. Same contract as routeEdge: both endpoints placed, the edge
 * un-routed; nullptr when no route exists, otherwise a pointer into
 * @p ws valid until its next route call. Counts routeEdgeCalls,
 * routeFailures, pqPops and relaxations into ws.counters.
 */
const RouteResult *routeEdgeReference(const Mapping &mapping, dfg::EdgeId e,
                                      const RouterCosts &costs,
                                      RouterWorkspace &ws);

/** Either edge router, for code that runs one check against both:
 *  &routeEdge or &routeEdgeReference. */
using RouteFn = const RouteResult *(*)(const Mapping &, dfg::EdgeId,
                                       const RouterCosts &, RouterWorkspace &);

} // namespace lisa::map

#endif // LISA_TESTS_ROUTER_REFERENCE_HH
