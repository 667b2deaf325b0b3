/** @file Unit tests for the MRRG router (temporal exact-length DP and
 *  spatial A* search), including the mappers' rip-up-and-reroute step. */

#include <gtest/gtest.h>

#include <memory>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/builder.hh"
#include "dfg/generator.hh"
#include "mappers/placement_util.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "support/random.hh"
#include "router_reference.hh"
#include "verify/verify.hh"

namespace {

using namespace lisa;
using namespace lisa::map;
using dfg::OpCode;

dfg::Dfg
chain2()
{
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    return b.build();
}

/** The mappers' rip-up step: clear every edge incident to @p v (as listed
 *  by incidentEdges), then re-route each in order. @return number of
 *  edges that failed to route. */
int
ripUpAndReroute(Mapping &m, dfg::NodeId v, RouteFn route,
                RouterWorkspace &ws)
{
    std::vector<dfg::EdgeId> affected;
    incidentEdges(m.dfg(), v, affected);
    for (dfg::EdgeId e : affected)
        m.clearRoute(e);
    int failures = 0;
    for (dfg::EdgeId e : affected) {
        if (const RouteResult *r = route(m, e, RouterCosts{}, ws))
            m.setRoute(e, r->path);
        else
            ++failures;
    }
    return failures;
}

TEST(Router, DirectFeedNeedsNoResources)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1}); // adjacent, one cycle later
    const RouteResult *r = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->path.empty());
    EXPECT_EQ(r->cost, 0.0);
}

TEST(Router, OneHopThroughRouteThrough)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 4);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});  // (0,0)
    m.placeNode(1, PeId{2}, AbsTime{2});  // two hops east, two cycles later
    ASSERT_EQ(m.requiredLength(0), 1);
    const RouteResult *r = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    ASSERT_EQ(r->path.size(), 1u);
    const auto &res = mrrg->resource(r->path[0]);
    EXPECT_EQ(res.time, 1);
    // Holder must be adjacent-or-equal to both endpoints' PEs.
    EXPECT_LE(c.spatialDistance(0, res.pe), 1);
    EXPECT_LE(c.spatialDistance(res.pe, 2), 1);
}

TEST(Router, RegisterHoldWhenConsumerIsLate)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 8);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{4}); // same PE, 4 cycles later: hold 3 cycles
    ASSERT_EQ(m.requiredLength(0), 3);
    const RouteResult *r = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->path.size(), 3u);
    // Registers are cheaper than route-throughs, so the router holds.
    for (int res : r->path)
        EXPECT_EQ(mrrg->resource(res).kind, arch::ResourceKind::Reg);
}

TEST(Router, NegativeLengthFails)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{3});
    m.placeNode(1, PeId{1}, AbsTime{1}); // consumer before producer
    EXPECT_EQ(routeEdge(m, 0, RouterCosts{}, ws), nullptr);
}

TEST(Router, StrictModeBlocksOccupied)
{
    arch::CgraArch c(arch::baselineCgra(1, 3)); // a 1x3 corridor
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);

    dfg::DfgBuilder b("t");
    auto x = b.load("x");
    auto y = b.op(OpCode::Add, {x});
    auto z = b.op(OpCode::Add, {y});
    (void)z;
    dfg::Dfg g = b.build();

    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(2, PeId{1}, AbsTime{1}); // occupies the corridor's middle FU at layer 1
    m.placeNode(1, PeId{2}, AbsTime{2}); // 0 -> 1 must route through the middle at layer 1

    RouterCosts strict;
    strict.allowOveruse = false;
    const RouteResult *r = routeEdge(m, 0, strict, ws);
    // Only way from PE0 to PE2's feeders in exactly 1 step is FU(1,1)
    // (occupied) or REG(0,*,1) (a register of PE0, which feeds nothing
    // adjacent to PE2)... registers of PE0 cannot feed PE2, so: blocked.
    EXPECT_EQ(r, nullptr);

    RouterCosts lenient;
    const RouteResult *r2 = routeEdge(m, 0, lenient, ws);
    ASSERT_NE(r2, nullptr);
    EXPECT_GT(r2->cost, kOverusePenalty);
}

TEST(Router, FanoutReusesExistingRoute)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 8);

    dfg::DfgBuilder b("fan");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    b.op(OpCode::Mul, {x});
    dfg::Dfg g = b.build();

    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3});
    m.placeNode(2, PeId{0}, AbsTime{3});
    const RouteResult *r1 = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r1, nullptr);
    EXPECT_EQ(r1->path.size(), 2u);
    m.setRoute(0, r1->path);
    // The second consumer reads the same held value: zero extra cost, and
    // the stored path is complete (shared hops are reference-counted).
    const RouteResult *r2 = routeEdge(m, 1, RouterCosts{}, ws);
    ASSERT_NE(r2, nullptr);
    EXPECT_EQ(r2->cost, 0.0);
    EXPECT_EQ(r2->path, m.route(0));
    // Ripping up one branch keeps the shared hops alive for the sibling.
    m.setRoute(1, r2->path);
    m.clearRoute(0);
    for (int res : r2->path)
        EXPECT_EQ(m.numInstancesOn(res), 1);
}

/** Temporal multi-fanout reroute: the branch taken off an existing route
 *  must come back as a complete producer-rooted path (prependSharedPrefix),
 *  in both the optimized and the reference kernels. */
void
expectFanoutBranchCompleteTemporal(RouteFn route)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 8);
    RouterWorkspace ws;

    dfg::DfgBuilder b("fan");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    b.op(OpCode::Mul, {x});
    dfg::Dfg g = b.build();

    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3}); // held in PE0's registers
    m.placeNode(2, PeId{2}, AbsTime{3}); // branches off the hold to go east
    for (dfg::EdgeId e = 0; e < 2; ++e) {
        const RouteResult *r = route(m, e, RouterCosts{}, ws);
        ASSERT_NE(r, nullptr) << "edge " << e;
        m.setRoute(e, r->path);
    }
    // Reusing the held value is strictly cheaper than any fresh hop, so
    // the branch must share the producer-rooted first hop with edge 0.
    ASSERT_EQ(m.route(1).size(), 2u);
    EXPECT_EQ(m.route(1)[0], m.route(0)[0]);
    EXPECT_EQ(m.numInstancesOn(m.route(0)[0]), 1);

    // Reroute the fanout consumer: the fresh branch must again be a
    // complete path, and the whole mapping must survive verification.
    EXPECT_EQ(ripUpAndReroute(m, 2, route, ws), 0);
    ASSERT_EQ(m.route(1).size(), 2u);
    EXPECT_EQ(m.route(1)[0], m.route(0)[0]);
    verify::VerifyReport rep =
        verify::verifyMapping(g, *mrrg, m, verify::VerifyOptions{});
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(Router, FanoutBranchPathCompleteTemporal)
{
    expectFanoutBranchCompleteTemporal(&routeEdge);
}

TEST(Router, FanoutBranchPathCompleteTemporalReference)
{
    expectFanoutBranchCompleteTemporal(&routeEdgeReference);
}

/** Spatial analogue: the shorter fanout branch is a strict prefix of the
 *  longer forwarding chain and still producer-rooted after a reroute. */
void
expectFanoutBranchCompleteSpatial(RouteFn route)
{
    arch::SystolicArch s(3, 5);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    RouterWorkspace ws;

    dfg::DfgBuilder b("fan");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();

    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0}); // load, (0,0)
    m.placeNode(1, PeId{3}, AbsTime{0}); // (0,3): two forwarding hops
    m.placeNode(2, PeId{6}, AbsTime{0}); // (1,1): fed by the first hop (0,1)
    for (dfg::EdgeId e = 0; e < 2; ++e) {
        const RouteResult *r = route(m, e, RouterCosts{}, ws);
        ASSERT_NE(r, nullptr) << "edge " << e;
        m.setRoute(e, r->path);
    }
    ASSERT_EQ(m.route(0).size(), 2u);
    ASSERT_EQ(m.route(1).size(), 1u);
    EXPECT_EQ(m.route(1)[0], m.route(0)[0]);

    EXPECT_EQ(ripUpAndReroute(m, 2, route, ws), 0);
    ASSERT_EQ(m.route(1).size(), 1u);
    EXPECT_EQ(m.route(1)[0], m.route(0)[0]);
    verify::VerifyReport rep =
        verify::verifyMapping(g, *mrrg, m, verify::VerifyOptions{});
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(Router, FanoutBranchPathCompleteSpatial)
{
    expectFanoutBranchCompleteSpatial(&routeEdge);
}

TEST(Router, FanoutBranchPathCompleteSpatialReference)
{
    expectFanoutBranchCompleteSpatial(&routeEdgeReference);
}

TEST(Router, SelfRecurrenceAtIiOne)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    dfg::DfgBuilder b("acc");
    auto x = b.load("x");
    auto acc = b.op(OpCode::Add, {x});
    b.recurrence(acc, acc);
    dfg::Dfg g = b.build();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    // The self edge (distance 1, II 1) has length 0: own output read back.
    const RouteResult *r = routeEdge(m, 1, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->path.empty());
}

TEST(Router, SpatialDijkstraFindsForwardingChain)
{
    arch::SystolicArch s(3, 5);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    // Load in column 0, consumer in column 3: two forwarding PEs needed.
    m.placeNode(0, PeId{0}, AbsTime{0});      // (0,0)
    m.placeNode(1, PeId{3}, AbsTime{0});      // (0,3)
    const RouteResult *r = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->path.size(), 2u);
}

TEST(Router, SpatialAdjacentDirectFeed)
{
    arch::SystolicArch s(3, 5);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{0}); // east neighbour
    const RouteResult *r = routeEdge(m, 0, RouterCosts{}, ws);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->path.empty());
}

TEST(Router, ProvablyUnroutableImpliesFailure)
{
    // Over random placements on the fig9 CGRAs, with overuse allowed and
    // strict: whenever the tier-0 rule holds, the reference router (which
    // has no tier 0 of its own) fails too. routeEdge answers tier 0
    // itself, so comparing against it would prove nothing. Routed edges
    // are installed so later calls also see fanout seeds and congestion.
    const arch::CgraArch fabrics[] = {
        arch::CgraArch(arch::baselineCgra(4, 4)),
        arch::CgraArch(arch::baselineCgra(3, 3)),
        arch::CgraArch(arch::lessRoutingCgra()),
        arch::CgraArch(arch::lessMemoryCgra())};
    Rng rng(5);
    dfg::GeneratorConfig gen;
    gen.minNodes = 8;
    gen.maxNodes = 16;
    int provable = 0;
    int routed = 0;
    for (const arch::CgraArch &accel : fabrics) {
        arch::ArchContext ctx(accel);
        for (bool allow_overuse : {true, false}) {
            RouterCosts costs;
            costs.allowOveruse = allow_overuse;
            RouterWorkspace ws;
            ws.archContext = &ctx;
            for (int ii = 1; ii <= 3; ++ii) {
                const dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
                Mapping m(g, ctx.mrrgFor(ii));
                for (dfg::NodeId v = 0;
                     v < static_cast<dfg::NodeId>(g.numNodes()); ++v) {
                    m.placeNode(
                        v,
                        PeId{static_cast<int>(rng.index(
                            static_cast<size_t>(accel.numPes())))},
                        AbsTime{static_cast<int>(rng.index(
                            static_cast<size_t>(m.horizon())))});
                }
                for (dfg::EdgeId e = 0;
                     e < static_cast<dfg::EdgeId>(g.numEdges()); ++e) {
                    const bool dead = provablyUnroutable(m, e, ws);
                    const RouteResult *r =
                        routeEdgeReference(m, e, costs, ws);
                    if (dead) {
                        ++provable;
                        EXPECT_EQ(r, nullptr) << "edge " << e;
                    }
                    if (r) {
                        ++routed;
                        m.setRoute(e, r->path);
                    }
                }
            }
        }
    }
    EXPECT_GT(provable, 100);
    EXPECT_GT(routed, 100);
}

TEST(RouteAll, ReportsFailures)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{3});
    m.placeNode(1, PeId{1}, AbsTime{1}); // infeasible order
    EXPECT_EQ(routeAll(m, RouterCosts{}, ws), 1);
    EXPECT_EQ(m.numRouted(), 0u);
}

TEST(IncidentEdges, RipUpAndReroute)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 4);
    dfg::Dfg g = chain2();
    Mapping m(g, mrrg);
    RouterWorkspace ws;
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    EXPECT_EQ(routeAll(m, RouterCosts{}, ws), 0);
    EXPECT_EQ(ripUpAndReroute(m, 1, &routeEdge, ws), 0);
    EXPECT_TRUE(m.isRouted(0));
}

/** Accumulator on node 1: load -> add (edge 0) plus the add's feedback
 *  self-loop (edge 1). */
dfg::Dfg
selfLoopKernel()
{
    dfg::DfgBuilder b("mac");
    auto x = b.load("x");
    auto acc = b.op(OpCode::Add, {x});
    b.recurrence(acc, acc); // edge 1: accumulator feedback self-loop
    return b.build();
}

/** A self-loop appears in both inEdges and outEdges of its node, so a
 *  rip-up set built from their raw concatenation lists it twice, and the
 *  second routeEdge panics ("already routed") right after the first
 *  installed its empty route. incidentEdges must list it once, and the
 *  mappers' rip-up plus re-route must leave a verified mapping. */
void
expectSelfLoopRoutedOnce(const dfg::Dfg &g, Mapping &m)
{
    std::vector<dfg::EdgeId> affected{7}; // stale content is replaced
    incidentEdges(g, 1, affected);
    EXPECT_EQ(affected, (std::vector<dfg::EdgeId>{0, 1}));

    RouterWorkspace ws;
    ASSERT_EQ(routeAll(m, RouterCosts{}, ws), 0);
    EXPECT_EQ(ripUpAndReroute(m, 1, &routeEdge, ws), 0);
    EXPECT_TRUE(m.isRouted(0));
    // The feedback reads the add's own output: routed, no resources.
    EXPECT_TRUE(m.isRouted(1));
    EXPECT_TRUE(m.route(1).empty());
    verify::VerifyReport rep =
        verify::verifyMapping(g, m.mrrg(), m, verify::VerifyOptions{});
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(IncidentEdges, SelfLoopRoutedOnceSpatial)
{
    // On a spatial array the feedback stays inside the PE (a MAC unit).
    arch::SystolicArch s(3, 5);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    dfg::Dfg g = selfLoopKernel();
    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{0});
    expectSelfLoopRoutedOnce(g, m);
}

TEST(IncidentEdges, SelfLoopRoutedOnceTemporal)
{
    // On a temporal CGRA the II-1 self-recurrence has length 0.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    dfg::Dfg g = selfLoopKernel();
    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    expectSelfLoopRoutedOnce(g, m);
}

} // namespace
