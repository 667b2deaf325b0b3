/** @file Property test: the goal-directed router (A* + distance-oracle
 *  pruning) is cost-equivalent to the pre-oracle reference router
 *  (routeEdgeReference, tests/router_reference.cc).
 *
 *  Protocol: two identically-placed mappings are routed edge-by-edge, one
 *  through routeEdgeReference and one through routeEdge, each with its
 *  own workspace.
 *  Every edge must agree on success/failure and route cost. Temporal
 *  routes must match hop-for-hop (the DP prune only removes cells that
 *  can never reach the destination, so surviving cells keep their exact
 *  values and parents); spatial A* may break cost ties differently than
 *  the reference Dijkstra, so only the cost is compared there. After each
 *  edge the *reference* path is installed into both mappings so fanout
 *  seed sets stay identical for all later edges.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/generator.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "router_reference.hh"
#include "support/random.hh"

namespace {

using namespace lisa;
using namespace lisa::map;

/** Identical random placement into both mappings; spatial pins time 0. */
void
placeBoth(Mapping &a, Mapping &b, Rng &rng)
{
    const bool temporal = a.mrrg().accel().temporalMapping();
    const int pes = a.mrrg().accel().numPes();
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(a.dfg().numNodes());
         ++v) {
        const int pe = static_cast<int>(rng.index(static_cast<size_t>(pes)));
        const int time =
            temporal
                ? static_cast<int>(rng.index(static_cast<size_t>(a.horizon())))
                : 0;
        a.placeNode(v, PeId{pe}, AbsTime{time});
        b.placeNode(v, PeId{pe}, AbsTime{time});
    }
}

/** Route every edge of @p trials random DFGs through both routers and
 *  compare. */
void
expectOptimizedMatchesReference(std::shared_ptr<const arch::Mrrg> mrrg,
                                const RouterCosts &costs, uint64_t seed,
                                int trials, RouterWorkspace &wsRef,
                                RouterWorkspace &wsOpt)
{
    const bool temporal = mrrg->accel().temporalMapping();
    Rng gen(seed);
    dfg::GeneratorConfig cfg;
    cfg.minNodes = 8;
    cfg.maxNodes = 16;

    for (int trial = 0; trial < trials; ++trial) {
        dfg::Dfg g = dfg::generateRandomDfg(cfg, gen);
        Mapping mRef(g, mrrg);
        Mapping mOpt(g, mrrg);
        placeBoth(mRef, mOpt, gen);
        for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(g.numEdges());
             ++e) {
            const RouteResult *ref =
                routeEdgeReference(mRef, e, costs, wsRef);
            const RouteResult *opt = routeEdge(mOpt, e, costs, wsOpt);
            ASSERT_EQ(ref != nullptr, opt != nullptr)
                << "success disagreement: trial " << trial << " edge " << e
                << " seed " << seed;
            if (!ref)
                continue;
            if (temporal) {
                // The DP prune must be invisible: identical path and cost.
                EXPECT_EQ(ref->path, opt->path)
                    << "trial " << trial << " edge " << e << " seed " << seed;
                EXPECT_EQ(ref->cost, opt->cost)
                    << "trial " << trial << " edge " << e << " seed " << seed;
            } else {
                // A* may pick a different equal-cost path; summing the
                // same total along a different hop order can differ by
                // rounding, hence NEAR rather than EQ.
                EXPECT_NEAR(ref->cost, opt->cost, 1e-9)
                    << "trial " << trial << " edge " << e << " seed " << seed;
            }
            // Install the reference path into BOTH mappings so congestion
            // and fanout-reuse seeds stay identical for later edges.
            mRef.setRoute(e, ref->path);
            mOpt.setRoute(e, ref->path);
        }
    }
}

class RouterEquivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RouterEquivalence, TemporalCostAndPathIdentical)
{
    // One workspace pair reused across every II: exercises the oracle's
    // uid-based invalidation when the bound MRRG changes.
    RouterWorkspace wsRef;
    RouterWorkspace wsOpt;

    arch::CgraArch cgra(arch::baselineCgra(4, 4));
    for (int ii = 2; ii <= 4; ++ii) {
        auto mrrg = std::make_shared<const arch::Mrrg>(cgra, ii);
        expectOptimizedMatchesReference(mrrg, RouterCosts{},
                                        GetParam() * 10 + 1, 4, wsRef, wsOpt);
    }

    // Smaller grid under strict no-overuse costs: congestion makes many
    // routes fail, exercising failure agreement and the structural prune.
    arch::CgraArch tight(arch::baselineCgra(3, 3));
    auto mrrg = std::make_shared<const arch::Mrrg>(tight, 2);
    RouterCosts strict;
    strict.allowOveruse = false;
    expectOptimizedMatchesReference(mrrg, strict, GetParam() * 10 + 2, 4,
                                    wsRef, wsOpt);
}

TEST_P(RouterEquivalence, SpatialCostIdentical)
{
    RouterWorkspace wsRef;
    RouterWorkspace wsOpt;

    arch::SystolicArch sys(3, 5);
    auto mrrg = std::make_shared<const arch::Mrrg>(sys, 1);
    expectOptimizedMatchesReference(mrrg, RouterCosts{}, GetParam() * 10 + 3,
                                    6, wsRef, wsOpt);

    arch::SystolicArch wide(4, 4);
    auto mrrgWide = std::make_shared<const arch::Mrrg>(wide, 1);
    RouterCosts strict;
    strict.allowOveruse = false;
    expectOptimizedMatchesReference(mrrgWide, strict, GetParam() * 10 + 4, 6,
                                    wsRef, wsOpt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // namespace
