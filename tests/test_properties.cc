/** @file Property-based tests: invariants that must hold for every
 *  (random DFG, architecture, mapper) combination. */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "core/label_extract.hh"
#include "core/lisa_mapper.hh"
#include "dfg/analysis.hh"
#include "dfg/generator.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/cost.hh"
#include "mapping/ii_search.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"

namespace {

using namespace lisa;

/** Check every structural invariant of a claimed-valid mapping. */
void
checkMappingInvariants(const map::Mapping &m)
{
    const auto &dfg = m.dfg();
    const auto &mrrg = m.mrrg();
    ASSERT_TRUE(m.valid());

    // 1. No resource carries two distinct value instances.
    for (int res = 0; res < mrrg.numResources(); ++res)
        EXPECT_LE(m.numInstancesOn(res), 1);

    // 2. Each edge's route has exactly the schedule-implied length and its
    //    final hop can feed the consumer.
    for (size_t e = 0; e < dfg.numEdges(); ++e) {
        auto eid = static_cast<dfg::EdgeId>(e);
        const dfg::Edge &edge = dfg.edge(eid);
        const auto &path = m.route(eid);
        if (mrrg.accel().temporalMapping()) {
            int len = m.requiredLength(eid);
            ASSERT_GE(len, 0);
            // Paths are complete from the producer (fanout hops shared
            // via refcounts), so the length is exact.
            EXPECT_EQ(path.size(), static_cast<size_t>(len));
        }
        // Some feeder of the consumer holds the value instance at the
        // right absolute time (the producer's FU, this route's last hop,
        // or a shared fanout holder).
        const auto &dst = m.placement(edge.dst);
        const auto &src = m.placement(edge.src);
        int arrival = mrrg.accel().temporalMapping()
                          ? src.time + m.requiredLength(eid)
                          : 0;
        int64_t key = m.instanceKey(edge.src, AbsTime{arrival});
        bool fed = false;
        for (int holder : mrrg.feeders(dst.pe, dst.time))
            if (m.holdsInstance(holder, key))
                fed = true;
        EXPECT_TRUE(fed) << "edge " << e
                         << ": no feeder holds the value instance";

        // 3. The path starts at the producer and every hop follows a
        //    legal move edge.
        if (!path.empty()) {
            int producer = mrrg.fuId(m.placement(edge.src).pe, m.placement(edge.src).time);
            const auto t0 = mrrg.moveTargets(producer);
            EXPECT_NE(std::find(t0.begin(), t0.end(), path[0]), t0.end())
                << "first hop unreachable from producer";
            for (size_t i = 1; i < path.size(); ++i) {
                const auto targets = mrrg.moveTargets(path[i - 1]);
                EXPECT_NE(
                    std::find(targets.begin(), targets.end(), path[i]),
                    targets.end())
                    << "route hop is not a legal move";
            }
        }
    }

    // 4. Ops sit on PEs that support them.
    for (size_t v = 0; v < dfg.numNodes(); ++v) {
        auto vid = static_cast<dfg::NodeId>(v);
        EXPECT_TRUE(
            mrrg.accel().supportsOp(m.placement(vid).pe, dfg.node(vid).op));
    }
}

class MapperProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MapperProperty, SaMappingsSatisfyAllInvariants)
{
    Rng rng(GetParam());
    dfg::GeneratorConfig gen;
    gen.minNodes = 8;
    gen.maxNodes = 16;
    arch::CgraArch c(arch::baselineCgra(4, 4));
    for (int i = 0; i < 3; ++i) {
        dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
        map::SaMapper sa;
        map::SearchOptions opts;
        opts.perIiBudget = 0.5;
        opts.totalBudget = 3.0;
        opts.seed = GetParam() + i;
        arch::ArchContext ctx(c);
        auto r = map::searchMinIi(sa, g, ctx, opts);
        if (r.success)
            checkMappingInvariants(*r.mapping);
    }
}

TEST_P(MapperProperty, LisaMappingsSatisfyAllInvariants)
{
    Rng rng(GetParam() * 31 + 7);
    dfg::GeneratorConfig gen;
    gen.minNodes = 8;
    gen.maxNodes = 16;
    arch::CgraArch c(arch::baselineCgra(4, 4));
    for (int i = 0; i < 3; ++i) {
        dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
        dfg::Analysis an(g);
        core::LisaMapper lm(core::initialLabels(g, an));
        map::SearchOptions opts;
        opts.perIiBudget = 0.5;
        opts.totalBudget = 3.0;
        opts.seed = GetParam() + i;
        arch::ArchContext ctx(c);
        auto r = map::searchMinIi(lm, g, ctx, opts);
        if (r.success) {
            checkMappingInvariants(*r.mapping);
            // Extracted labels are finite and sane on any valid mapping.
            core::Labels lbl = core::extractLabels(*r.mapping, an);
            for (double t : lbl.temporalDist)
                EXPECT_GE(t, 1.0);
            for (double s : lbl.spatialDist) {
                EXPECT_GE(s, 0.0);
                EXPECT_LE(s, 6.0); // 4x4 Manhattan diameter
            }
        }
    }
}

TEST_P(MapperProperty, CostIsZeroOveruseMonotone)
{
    // A valid mapping's cost equals pure route cost; adding overuse via a
    // contrived second mapping must always cost more.
    Rng rng(GetParam());
    dfg::GeneratorConfig gen;
    gen.minNodes = 8;
    gen.maxNodes = 12;
    dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
    arch::CgraArch c(arch::baselineCgra(4, 4));
    map::SaMapper sa;
    map::SearchOptions opts;
    opts.perIiBudget = 0.5;
    opts.totalBudget = 3.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(sa, g, ctx, opts);
    if (!r.success)
        return;
    map::CostParams params;
    double valid_cost = map::mappingCost(*r.mapping, params);
    EXPECT_DOUBLE_EQ(valid_cost,
                     params.routeResourceWeight *
                         r.mapping->totalRouteResources());
}

/** Full externally visible state of a Mapping, for rollback checks. */
struct MappingState
{
    std::vector<map::Placement> place;
    std::vector<std::vector<int>> routes;
    std::vector<bool> routedFlag; // routes may legitimately be empty
    std::vector<int> instances;   // per-resource distinct instance count
    map::CostSnapshot snap;
};

MappingState
captureState(const map::Mapping &m)
{
    MappingState s;
    for (size_t v = 0; v < m.dfg().numNodes(); ++v)
        s.place.push_back(m.placement(static_cast<dfg::NodeId>(v)));
    for (size_t e = 0; e < m.dfg().numEdges(); ++e) {
        auto eid = static_cast<dfg::EdgeId>(e);
        s.routedFlag.push_back(m.isRouted(eid));
        s.routes.push_back(m.isRouted(eid) ? m.route(eid)
                                           : std::vector<int>{});
    }
    for (int r = 0; r < m.mrrg().numResources(); ++r)
        s.instances.push_back(m.numInstancesOn(r));
    s.snap = m.costSnapshot();
    return s;
}

void
expectSameState(const map::Mapping &m, const MappingState &s)
{
    for (size_t v = 0; v < m.dfg().numNodes(); ++v) {
        auto vid = static_cast<dfg::NodeId>(v);
        EXPECT_EQ(m.placement(vid).pe, s.place[v].pe) << "node " << v;
        EXPECT_EQ(m.placement(vid).time, s.place[v].time) << "node " << v;
    }
    for (size_t e = 0; e < m.dfg().numEdges(); ++e) {
        auto eid = static_cast<dfg::EdgeId>(e);
        EXPECT_EQ(m.isRouted(eid), s.routedFlag[e]) << "edge " << e;
        if (m.isRouted(eid)) {
            EXPECT_EQ(m.route(eid), s.routes[e]) << "edge " << e;
        }
    }
    for (int r = 0; r < m.mrrg().numResources(); ++r)
        EXPECT_EQ(m.numInstancesOn(r), s.instances[r]) << "resource " << r;
    EXPECT_EQ(m.numPlaced(), s.snap.placed);
    EXPECT_EQ(m.numRouted(), s.snap.routed);
    EXPECT_EQ(m.totalOveruse(), s.snap.overuse);
    EXPECT_EQ(m.totalRouteResources(), s.snap.routeResources);
}

/**
 * Rebuild the same placements and routes from scratch in a fresh Mapping
 * and demand that every incrementally maintained accumulator — and hence
 * mappingCost — agrees exactly with the recompute.
 */
void
checkAccumulatorsAgainstRebuild(const map::Mapping &m)
{
    map::Mapping fresh(m.dfg(), m.mrrgPtr());
    fresh.setHorizon(m.horizon());
    for (size_t v = 0; v < m.dfg().numNodes(); ++v) {
        auto vid = static_cast<dfg::NodeId>(v);
        if (m.isPlaced(vid))
            fresh.placeNode(vid, m.placement(vid).pe, m.placement(vid).time);
    }
    for (size_t e = 0; e < m.dfg().numEdges(); ++e) {
        auto eid = static_cast<dfg::EdgeId>(e);
        if (m.isRouted(eid))
            fresh.setRoute(eid, m.route(eid));
    }
    EXPECT_EQ(m.numPlaced(), fresh.numPlaced());
    EXPECT_EQ(m.numRouted(), fresh.numRouted());
    EXPECT_EQ(m.totalOveruse(), fresh.totalOveruse());
    EXPECT_EQ(m.totalRouteResources(), fresh.totalRouteResources());
    for (int r = 0; r < m.mrrg().numResources(); ++r) {
        EXPECT_EQ(m.numInstancesOn(r), fresh.numInstancesOn(r))
            << "resource " << r;
        EXPECT_EQ(m.resourceOveruse(r), fresh.resourceOveruse(r))
            << "resource " << r;
    }
    map::CostParams params;
    EXPECT_DOUBLE_EQ(map::mappingCost(m, params),
                     map::mappingCost(fresh, params));
}

/** Apply one random mutation, keeping the Mapping's preconditions. */
void
randomMappingOp(map::Mapping &m, const dfg::Analysis &an, Rng &rng)
{
    const auto &g = m.dfg();
    const int num_pes = m.mrrg().accel().numPes();
    auto pickFrom = [&](const auto &v) {
        return v[static_cast<size_t>(
            rng.uniformInt(0, static_cast<int>(v.size()) - 1))];
    };

    switch (rng.uniformInt(0, 3)) {
    case 0: { // place an unplaced node (overuse allowed)
        std::vector<dfg::NodeId> cands;
        for (size_t v = 0; v < g.numNodes(); ++v)
            if (!m.isPlaced(static_cast<dfg::NodeId>(v)))
                cands.push_back(static_cast<dfg::NodeId>(v));
        if (cands.empty())
            return;
        dfg::NodeId v = pickFrom(cands);
        m.placeNode(v, PeId{rng.uniformInt(0, num_pes - 1)}, AbsTime{an.asap(v) + rng.uniformInt(0, 2)});
        break;
    }
    case 1: { // unplace a node, ripping up its incident routes first
        std::vector<dfg::NodeId> cands;
        for (size_t v = 0; v < g.numNodes(); ++v)
            if (m.isPlaced(static_cast<dfg::NodeId>(v)))
                cands.push_back(static_cast<dfg::NodeId>(v));
        if (cands.empty())
            return;
        dfg::NodeId v = pickFrom(cands);
        for (size_t e = 0; e < g.numEdges(); ++e) {
            auto eid = static_cast<dfg::EdgeId>(e);
            if (m.isRouted(eid) &&
                (g.edge(eid).src == v || g.edge(eid).dst == v))
                m.clearRoute(eid);
        }
        m.unplaceNode(v);
        break;
    }
    case 2: { // route an un-routed edge whose endpoints are placed
        std::vector<dfg::EdgeId> cands;
        for (size_t e = 0; e < g.numEdges(); ++e) {
            auto eid = static_cast<dfg::EdgeId>(e);
            if (!m.isRouted(eid) && m.isPlaced(g.edge(eid).src) &&
                m.isPlaced(g.edge(eid).dst))
                cands.push_back(eid);
        }
        if (cands.empty())
            return;
        dfg::EdgeId e = pickFrom(cands);
        map::RouterWorkspace ws;
        if (const map::RouteResult *r =
                map::routeEdge(m, e, map::RouterCosts{}, ws))
            m.setRoute(e, r->path);
        break;
    }
    case 3: { // rip up a routed edge
        std::vector<dfg::EdgeId> cands;
        for (size_t e = 0; e < g.numEdges(); ++e)
            if (m.isRouted(static_cast<dfg::EdgeId>(e)))
                cands.push_back(static_cast<dfg::EdgeId>(e));
        if (cands.empty())
            return;
        m.clearRoute(pickFrom(cands));
        break;
    }
    }
}

TEST_P(MapperProperty, IncrementalAccumulatorsMatchFreshRecompute)
{
    // After ANY random sequence of place/unplace/route/rip-up and
    // transaction commit/rollback, the O(1) accumulators must equal a
    // from-scratch rebuild, and rollback must restore the exact pre-begin
    // state (the contract the annealers' accept/reject loops rely on).
    Rng rng(GetParam() * 131 + 17);
    dfg::GeneratorConfig gen;
    gen.minNodes = 8;
    gen.maxNodes = 14;
    dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
    dfg::Analysis an(g);
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping m(g, mrrg);
    map::CostParams params;

    for (int step = 0; step < 200; ++step) {
        if (rng.chance(0.3)) {
            MappingState saved = captureState(m);
            double cost_before = map::mappingCost(m, params);
            m.beginTransaction();
            ASSERT_TRUE(m.inTransaction());
            int k = rng.uniformInt(1, 4);
            for (int i = 0; i < k; ++i)
                randomMappingOp(m, an, rng);
            // The delta API must agree with full recomputation.
            EXPECT_NEAR(cost_before + map::mappingCostDelta(m, params),
                        map::mappingCost(m, params), 1e-9);
            if (rng.chance(0.5)) {
                m.commitTransaction();
            } else {
                m.rollbackTransaction();
                expectSameState(m, saved);
                EXPECT_DOUBLE_EQ(map::mappingCost(m, params), cost_before);
            }
            ASSERT_FALSE(m.inTransaction());
        } else {
            randomMappingOp(m, an, rng);
        }
        if (step % 20 == 19)
            checkAccumulatorsAgainstRebuild(m);
    }
    checkAccumulatorsAgainstRebuild(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperProperty,
                         ::testing::Values(3, 11, 29, 71));

} // namespace
