/** @file Tests for label initialization, averaging, and extraction from
 *  concrete mappings. */

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "core/label_extract.hh"
#include "core/labels.hh"
#include "dfg/builder.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"

namespace {

using namespace lisa;
using namespace lisa::core;
using dfg::OpCode;

dfg::Dfg
diamond()
{
    dfg::DfgBuilder b("diamond");
    auto a = b.load("a");
    auto l = b.op(OpCode::Add, {a}, "l");
    auto r = b.op(OpCode::Mul, {a}, "r");
    b.op(OpCode::Add, {l, r}, "j");
    return b.build();
}

TEST(Labels, InitialValuesFollowPaper)
{
    dfg::Dfg g = diamond();
    dfg::Analysis an(g);
    Labels lbl = initialLabels(g, an);
    ASSERT_TRUE(lbl.matches(g, an));
    // Schedule order starts at ASAP.
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[0], 0);
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[1], 1);
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[3], 2);
    // Spatial 0, temporal 1.
    for (double v : lbl.spatialDist)
        EXPECT_DOUBLE_EQ(v, 0.0);
    for (double v : lbl.temporalDist)
        EXPECT_DOUBLE_EQ(v, 1.0);
    // (l, r): ancestor a and descendant j both at distance 1.
    ASSERT_EQ(lbl.association.size(), 1u);
    EXPECT_DOUBLE_EQ(lbl.association[0], 1.0);
}

TEST(Labels, AverageIsElementwise)
{
    dfg::Dfg g = diamond();
    dfg::Analysis an(g);
    Labels a = initialLabels(g, an);
    Labels b = initialLabels(g, an);
    for (double &v : b.temporalDist)
        v = 3.0;
    Labels avg = averageLabels({a, b});
    for (double v : avg.temporalDist)
        EXPECT_DOUBLE_EQ(v, 2.0);
    for (double v : avg.spatialDist)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Labels, AverageRejectsEmpty)
{
    EXPECT_DEATH(averageLabels({}), "empty");
}

TEST(LabelExtract, ValuesComeFromPlacement)
{
    dfg::Dfg g = diamond();
    dfg::Analysis an(g);
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 4);
    map::Mapping m(g, mrrg);
    // Hand placement: a(0,0), l(1,1), r(4,1), j(5,2) — all direct feeds.
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    m.placeNode(2, PeId{4}, AbsTime{1});
    m.placeNode(3, PeId{5}, AbsTime{2});
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);
    ASSERT_TRUE(m.valid());

    Labels lbl = extractLabels(m, an);
    ASSERT_TRUE(lbl.matches(g, an));
    // Times 0,1,1,2 over span 2 with critical path 3: order == time.
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[0], 0.0);
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[1], 1.0);
    EXPECT_DOUBLE_EQ(lbl.scheduleOrder[3], 2.0);
    // Edge a->l: Manhattan(pe0, pe1) = 1, temporal 1.
    EXPECT_DOUBLE_EQ(lbl.spatialDist[0], 1.0);
    EXPECT_DOUBLE_EQ(lbl.temporalDist[0], 1.0);
    // Edge a->r: pe0 -> pe4 = 1.
    EXPECT_DOUBLE_EQ(lbl.spatialDist[1], 1.0);
    // Association (l, r): Manhattan(pe1, pe4) = 2.
    EXPECT_DOUBLE_EQ(lbl.association[0], 2.0);
    EXPECT_EQ(routingCost(m), m.totalRouteResources());
}

TEST(LabelExtract, RecurrenceTemporalDistanceIncludesIi)
{
    dfg::DfgBuilder b("acc");
    auto x = b.load("x");
    auto acc = b.op(OpCode::Add, {x});
    b.recurrence(acc, acc);
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);
    ASSERT_TRUE(m.valid());
    Labels lbl = extractLabels(m, an);
    // Self edge: distance 1 * II 2 + (1 - 1) = 2 cycles.
    EXPECT_DOUBLE_EQ(lbl.temporalDist[1], 2.0);
}

TEST(LabelExtract, InvalidMappingPanics)
{
    dfg::Dfg g = diamond();
    dfg::Analysis an(g);
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping m(g, mrrg);
    EXPECT_DEATH(extractLabels(m, an), "valid");
}

} // namespace
