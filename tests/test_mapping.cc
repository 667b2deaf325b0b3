/** @file Unit tests for the Mapping state: placement, routing, occupancy
 *  and overuse bookkeeping with instance keys. */

#include <algorithm>

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "mapping/mapping.hh"

namespace {

using namespace lisa;
using namespace lisa::map;
using dfg::OpCode;

struct MappingTest : public ::testing::Test
{
    MappingTest()
    {
        dfg::DfgBuilder b("chain");
        auto x = b.load("x");
        auto y = b.op(OpCode::Add, {x});
        auto z = b.op(OpCode::Mul, {y});
        (void)z;
        graph = b.build();
        accel = std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
        mrrg = std::make_shared<const arch::Mrrg>(*accel, 2);
    }

    dfg::Dfg graph;
    std::unique_ptr<arch::CgraArch> accel;
    std::shared_ptr<const arch::Mrrg> mrrg;
};

TEST_F(MappingTest, PlaceAndUnplace)
{
    Mapping m(graph, mrrg);
    EXPECT_EQ(m.numPlaced(), 0u);
    m.placeNode(0, PeId{3}, AbsTime{0});
    EXPECT_TRUE(m.isPlaced(0));
    EXPECT_EQ(m.placement(0).pe, 3);
    EXPECT_EQ(m.placement(0).time, 0);
    EXPECT_EQ(m.numPlaced(), 1u);
    m.unplaceNode(0);
    EXPECT_FALSE(m.isPlaced(0));
    EXPECT_EQ(m.numPlaced(), 0u);
}

TEST_F(MappingTest, OpOccupiesFu)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{3}, AbsTime{0});
    EXPECT_EQ(m.numInstancesOn(mrrg->fuId(PeId{3}, AbsTime{0})), 1);
    EXPECT_EQ(m.totalOveruse(), 0);
}

TEST_F(MappingTest, TwoOpsOnSameFuIsOveruse)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{3}, AbsTime{0});
    m.placeNode(1, PeId{3}, AbsTime{2}); // time 2 mod II 2 == layer 0: same resource
    EXPECT_EQ(m.totalOveruse(), 1);
    m.unplaceNode(1);
    EXPECT_EQ(m.totalOveruse(), 0);
}

TEST_F(MappingTest, RouteOccupancyAndFanoutSharing)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{2}, AbsTime{2});
    // Route 0 -> 1 through FU(1, layer1).
    std::vector<int> path{mrrg->fuId(PeId{1}, AbsTime{1})};
    m.setRoute(0, path);
    EXPECT_TRUE(m.isRouted(0));
    EXPECT_EQ(m.totalRouteResources(), 1);
    EXPECT_EQ(m.totalOveruse(), 0);
    // A second route of the same producer at the same step shares freely.
    EXPECT_TRUE(m.holdsInstance(mrrg->fuId(PeId{1}, AbsTime{1}), m.instanceKey(0, AbsTime{1})));
    m.clearRoute(0);
    EXPECT_FALSE(m.isRouted(0));
    EXPECT_EQ(m.totalRouteResources(), 0);
    EXPECT_EQ(m.numInstancesOn(mrrg->fuId(PeId{1}, AbsTime{1})), 0);
}

TEST_F(MappingTest, SameValueDifferentIterationConflicts)
{
    // Holding one datum across more than one II window must conflict with
    // the next iteration's instance (modulo semantics).
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3}); // requires 2 intermediate holders (t=1, t=2)
    ASSERT_EQ(m.requiredLength(0), 2);
    // Hold in the same register at t=1 and t=2: layer 1 then layer 0.
    std::vector<int> path{mrrg->regId(PeId{0}, 0, AbsTime{1}), mrrg->regId(PeId{0}, 0, AbsTime{2})};
    m.setRoute(0, path);
    EXPECT_EQ(m.totalOveruse(), 0); // different layers: no conflict
    m.clearRoute(0);

    // Now a contrived route that revisits the same layer with a different
    // step (same producer, different absolute time) must count overuse.
    m.unplaceNode(1);
    m.placeNode(1, PeId{0}, AbsTime{5}); // length 4: t=1..4; t=1 and t=3 share layer 1
    ASSERT_EQ(m.requiredLength(0), 4);
    std::vector<int> longpath{mrrg->regId(PeId{0}, 0, AbsTime{1}), mrrg->regId(PeId{0}, 0, AbsTime{2}),
                              mrrg->regId(PeId{0}, 0, AbsTime{3}), mrrg->regId(PeId{0}, 0, AbsTime{4})};
    m.setRoute(0, longpath);
    EXPECT_EQ(m.totalOveruse(), 2); // (t1,t3) on layer1 and (t2,t4) on layer0
}

TEST_F(MappingTest, RequiredLengthFollowsTimes)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    EXPECT_EQ(m.requiredLength(0), 0);
    m.unplaceNode(1);
    m.placeNode(1, PeId{1}, AbsTime{4});
    EXPECT_EQ(m.requiredLength(0), 3);
    m.unplaceNode(1);
    m.placeNode(1, PeId{1}, AbsTime{0}); // before producer: infeasible
    EXPECT_LT(m.requiredLength(0), 0);
}

TEST_F(MappingTest, ValidNeedsEverything)
{
    Mapping m(graph, mrrg);
    EXPECT_FALSE(m.valid());
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    m.placeNode(2, PeId{2}, AbsTime{2});
    EXPECT_FALSE(m.valid()); // edges not routed
    m.setRoute(0, {});       // 0 at t0 feeds 1 at t1 directly
    m.setRoute(1, {});       // 1 at t1 feeds 2 at t2 directly
    EXPECT_TRUE(m.valid());
}

TEST_F(MappingTest, ClearResetsEverything)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    m.placeNode(2, PeId{2}, AbsTime{2});
    m.setRoute(0, {});
    m.setRoute(1, {mrrg->fuId(PeId{3}, AbsTime{0})});
    m.clear();
    EXPECT_EQ(m.numPlaced(), 0u);
    EXPECT_EQ(m.numRouted(), 0u);
    EXPECT_EQ(m.totalOveruse(), 0);
    EXPECT_EQ(m.totalRouteResources(), 0);
    for (int res = 0; res < mrrg->numResources(); ++res)
        EXPECT_EQ(m.numInstancesOn(res), 0);
}

TEST_F(MappingTest, UnplaceWithRoutedEdgePanics)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    m.setRoute(0, {});
    EXPECT_DEATH(m.unplaceNode(0), "routed");
}

TEST_F(MappingTest, ValuesOnDecodesProducers)
{
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    auto values = m.valuesOn(mrrg->fuId(PeId{0}, AbsTime{0}));
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values[0], 0);
}

TEST_F(MappingTest, StackedOccupancyAccessorsFollowRemoveAndRollback)
{
    // Three instances stacked on one FU, then the cached first one removed
    // while the other two remain, then the removal rolled back.
    Mapping m(graph, mrrg);
    const int res = mrrg->fuId(PeId{3}, AbsTime{0});
    const int64_t k0 = m.instanceKey(0, AbsTime{0});
    const int64_t k1 = m.instanceKey(1, AbsTime{2}); // layer 0 again
    const int64_t k2 = m.instanceKey(2, AbsTime{0});
    // Producer 0 at another time folding onto the same layer, and the
    // same FU at the other layer: never held.
    const int64_t k0_later = m.instanceKey(0, AbsTime{2});
    const int other = mrrg->fuId(PeId{3}, AbsTime{1});

    auto expect_held = [&](int count, bool h0, bool h1, bool h2) {
        EXPECT_EQ(m.numInstancesOn(res), count);
        EXPECT_EQ(m.resourceOveruse(res), std::max(0, count - 1));
        EXPECT_EQ(m.holdsInstance(res, k0), h0);
        EXPECT_EQ(m.holdsInstance(res, k1), h1);
        EXPECT_EQ(m.holdsInstance(res, k2), h2);
        EXPECT_FALSE(m.holdsInstance(res, k0_later));
        EXPECT_EQ(m.numInstancesOn(other), 0);
        for (int64_t k : {k0, k1, k2, k0_later})
            EXPECT_FALSE(m.holdsInstance(other, k));
    };

    expect_held(0, false, false, false);
    m.placeNode(0, PeId{3}, AbsTime{0});
    expect_held(1, true, false, false);
    m.placeNode(1, PeId{3}, AbsTime{2});
    expect_held(2, true, true, false);
    m.placeNode(2, PeId{3}, AbsTime{0});
    expect_held(3, true, true, true);
    EXPECT_EQ(m.totalOveruse(), 2);

    m.beginTransaction();
    m.unplaceNode(0); // the first instance: k1 becomes the cached one
    expect_held(2, false, true, true);
    EXPECT_EQ(m.totalOveruse(), 1);
    m.rollbackTransaction();
    expect_held(3, true, true, true);
    EXPECT_EQ(m.totalOveruse(), 2);

    // After the rollback k0 sits last; drain in list order.
    m.unplaceNode(1);
    expect_held(2, true, false, true);
    m.unplaceNode(2);
    expect_held(1, true, false, false);
    m.unplaceNode(0);
    expect_held(0, false, false, false);
    EXPECT_EQ(m.totalOveruse(), 0);
}

} // namespace
