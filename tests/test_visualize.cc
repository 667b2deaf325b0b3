/** @file Tests for the ASCII mapping visualizer. */

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "sim/visualize.hh"

namespace {

using namespace lisa;
using dfg::OpCode;

map::Mapping
tinyMapping(const arch::CgraArch &accel)
{
    static dfg::Dfg graph = [] {
        dfg::DfgBuilder b("viz");
        auto x = b.load("x");
        auto y = b.op(OpCode::Add, {x});
        (void)y;
        return b.build();
    }();
    auto mrrg = std::make_shared<const arch::Mrrg>(accel, 2);
    map::Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3}); // register holds for two cycles
    map::RouterWorkspace ws;
    EXPECT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);
    EXPECT_TRUE(m.valid());
    return m;
}

TEST(Visualize, GridShowsLayersAndNodes)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    auto m = tinyMapping(accel);
    std::string text = sim::mappingGridToText(m);
    EXPECT_NE(text.find("-- cycle 0 --"), std::string::npos);
    EXPECT_NE(text.find("-- cycle 1 --"), std::string::npos);
    EXPECT_EQ(text.find("-- cycle 2 --"), std::string::npos);
    EXPECT_NE(text.find("n0"), std::string::npos);
    EXPECT_NE(text.find("n1"), std::string::npos);
    // The register holds appear as a +Nr suffix somewhere.
    EXPECT_NE(text.find("r"), std::string::npos);
}

TEST(Visualize, GridHasOneRowPerMeshRowPerLayer)
{
    arch::CgraArch accel(arch::baselineCgra(3, 3));
    auto m = tinyMapping(accel);
    std::string text = sim::mappingGridToText(m);
    int newlines = 0;
    for (char c : text)
        if (c == '\n')
            ++newlines;
    // 1 header + 2 layers x (1 banner + 3 rows).
    EXPECT_EQ(newlines, 1 + 2 * 4);
}

TEST(Visualize, UtilizationCountsAddUp)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    auto m = tinyMapping(accel);
    std::string summary = sim::utilizationSummary(m);
    // 2 compute ops, 0 route-throughs, 2*16-2 = 30 idle FU slots.
    EXPECT_NE(summary.find("2 compute"), std::string::npos);
    EXPECT_NE(summary.find("0 route"), std::string::npos);
    EXPECT_NE(summary.find("30 idle"), std::string::npos);
    EXPECT_NE(summary.find("32 total"), std::string::npos);
    EXPECT_NE(summary.find("2 register slots"), std::string::npos);
}

TEST(Visualize, InvalidMappingPanics)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("v");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    auto mrrg = std::make_shared<const arch::Mrrg>(accel, 2);
    map::Mapping m(g, mrrg);
    EXPECT_DEATH(sim::mappingGridToText(m), "valid");
}

} // namespace
