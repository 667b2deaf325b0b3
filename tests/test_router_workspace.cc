/** @file Tests for the reusable router workspace: zero allocations in
 *  steady state, bit-identical results to a fresh workspace per call, and
 *  MapperStats merge algebra. */

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/generator.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "mappers/mapper_stats.hh"
#include "support/random.hh"

namespace {

using namespace lisa;
using namespace lisa::map;

/** Random placement of every node; spatial archs pin time to 0. */
void
placeRandom(Mapping &m, Rng &rng)
{
    const bool temporal = m.mrrg().accel().temporalMapping();
    const int pes = m.mrrg().accel().numPes();
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(m.dfg().numNodes());
         ++v) {
        int pe = static_cast<int>(rng.index(static_cast<size_t>(pes)));
        int time = temporal
                       ? static_cast<int>(rng.index(
                             static_cast<size_t>(m.horizon())))
                       : 0;
        m.placeNode(v, PeId{pe}, AbsTime{time});
    }
}

/** One route-everything round over a deterministic random placement. */
void
routeRound(const dfg::Dfg &g, std::shared_ptr<const arch::Mrrg> mrrg,
           uint64_t seed, RouterWorkspace &ws)
{
    Mapping m(g, mrrg);
    Rng rng(seed);
    placeRandom(m, rng);
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(g.numEdges());
         ++e) {
        const RouteResult *r = routeEdge(m, e, RouterCosts{}, ws);
        if (r)
            m.setRoute(e, r->path);
    }
}

void
expectZeroAllocSteadyState(const arch::Accelerator &accel, int ii)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(accel, ii);
    Rng gen(11);
    dfg::GeneratorConfig cfg;
    cfg.minNodes = 8;
    cfg.maxNodes = 12;
    dfg::Dfg g = dfg::generateRandomDfg(cfg, gen);

    RouterWorkspace ws;
    // Warm-up: the workspace grows to the high-water mark of this
    // (MRRG, DFG) pair over several distinct placements.
    for (uint64_t seed = 1; seed <= 6; ++seed)
        routeRound(g, mrrg, seed, ws);

    const size_t bytes = ws.capacityBytes();
    const uint64_t allocs = ws.allocationCount();
    EXPECT_GT(bytes, 0u);
    EXPECT_GT(allocs, 0u);

    // Steady state: identical rounds must never touch the heap again.
    for (int repeat = 0; repeat < 5; ++repeat) {
        for (uint64_t seed = 1; seed <= 6; ++seed)
            routeRound(g, mrrg, seed, ws);
        EXPECT_EQ(ws.capacityBytes(), bytes);
        EXPECT_EQ(ws.allocationCount(), allocs);
    }
}

TEST(RouterWorkspace, ZeroAllocSteadyStateTemporal)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    expectZeroAllocSteadyState(c, 2);
}

TEST(RouterWorkspace, ZeroAllocSteadyStateSpatial)
{
    arch::SystolicArch s(3, 5);
    expectZeroAllocSteadyState(s, 1);
}

/** Route every edge twice — fresh workspace and reused workspace — and
 *  require bit-identical results, across randomized DFGs/placements. */
void
expectReusedMatchesFresh(const arch::Accelerator &accel, int ii,
                         uint64_t seed)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(accel, ii);
    Rng gen(seed);
    dfg::GeneratorConfig cfg;
    cfg.minNodes = 8;
    cfg.maxNodes = 14;
    RouterWorkspace ws; // deliberately reused across every DFG and edge

    for (int trial = 0; trial < 10; ++trial) {
        dfg::Dfg g = dfg::generateRandomDfg(cfg, gen);
        Mapping m(g, mrrg);
        placeRandom(m, gen);
        for (dfg::EdgeId e = 0;
             e < static_cast<dfg::EdgeId>(g.numEdges()); ++e) {
            RouterWorkspace freshWs; // allocates its buffers from scratch
            const RouteResult *fresh =
                routeEdge(m, e, RouterCosts{}, freshWs);
            const RouteResult *reused = routeEdge(m, e, RouterCosts{}, ws);
            ASSERT_EQ(fresh != nullptr, reused != nullptr)
                << "trial " << trial << " edge " << e;
            if (!fresh)
                continue;
            EXPECT_EQ(fresh->path, reused->path)
                << "trial " << trial << " edge " << e;
            EXPECT_EQ(fresh->cost, reused->cost)
                << "trial " << trial << " edge " << e;
            // Install the route so later edges exercise fanout seeding.
            m.setRoute(e, fresh->path);
        }
    }
}

TEST(RouterWorkspace, MatchesAllocatingRouterTemporal)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    expectReusedMatchesFresh(c, 2, 101);
    expectReusedMatchesFresh(c, 3, 202);
}

TEST(RouterWorkspace, MatchesAllocatingRouterSpatial)
{
    arch::SystolicArch s(3, 5);
    expectReusedMatchesFresh(s, 1, 303);
}

TEST(MapperStats, MergeIsAssociative)
{
    // Dyadic-rational seconds keep double addition bit-exact, so the
    // associativity check can use full equality.
    auto make = [](uint64_t base, double secs) {
        MapperStats s;
        s.router.routeEdgeCalls = base;
        s.router.routeFailures = base / 2;
        s.router.pqPops = base * 3;
        s.router.relaxations = base * 7;
        s.router.heuristicPrunes = base * 11;
        s.router.dpCellsSkipped = base * 13;
        s.router.oracleBuilds = base % 7;
        s.router.oracleHits = base * 17;
        s.router.routeSeconds = secs;
        s.movesCommitted = base + 1;
        s.movesRolledBack = base + 2;
        s.movesEarlyRejected = base + 1;
        s.routeCallsSkipped = base * 19;
        s.restarts = base % 5;
        s.initSeconds = secs * 0.5;
        s.moveSeconds = secs * 2.0;
        s.mapSeconds = secs * 4.0;
        return s;
    };
    const MapperStats a = make(10, 0.25);
    const MapperStats b = make(999, 1.5);
    const MapperStats c = make(3, 8.75);

    MapperStats ab = a;
    ab.merge(b);
    MapperStats ab_c = ab;
    ab_c.merge(c);

    MapperStats bc = b;
    bc.merge(c);
    MapperStats a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(ab_c, a_bc);

    // Merging a default-constructed stats object is the identity.
    MapperStats id = a;
    id.merge(MapperStats{});
    EXPECT_EQ(id, a);
}

TEST(MapperStats, JsonHasEveryCounter)
{
    MapperStats s;
    s.router.routeEdgeCalls = 42;
    s.restarts = 7;
    s.movesEarlyRejected = 5;
    s.routeCallsSkipped = 23;
    const std::string j = s.toJson();
    EXPECT_NE(j.find("\"routeEdgeCalls\":42"), std::string::npos);
    EXPECT_NE(j.find("\"restarts\":7"), std::string::npos);
    EXPECT_NE(j.find("\"pqPops\":0"), std::string::npos);
    EXPECT_NE(j.find("\"heuristicPrunes\":0"), std::string::npos);
    EXPECT_NE(j.find("\"dpCellsSkipped\":0"), std::string::npos);
    EXPECT_NE(j.find("\"oracleBuilds\":0"), std::string::npos);
    EXPECT_NE(j.find("\"oracleHits\":0"), std::string::npos);
    EXPECT_NE(j.find("\"movesEarlyRejected\":5"), std::string::npos);
    EXPECT_NE(j.find("\"routeCallsSkipped\":23"), std::string::npos);
    EXPECT_NE(j.find("\"mapSeconds\":0"), std::string::npos);
}

} // namespace
