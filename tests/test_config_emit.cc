/** @file Tests for configuration extraction / emission. */

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "sim/config_emit.hh"

namespace {

using namespace lisa;
using dfg::OpCode;

struct ConfigTest : public ::testing::Test
{
    ConfigTest()
    {
        dfg::DfgBuilder b("cfg");
        auto x = b.load("x");
        auto y = b.op(OpCode::Add, {x});
        (void)y;
        graph = b.build();
        accel = std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
    }

    dfg::Dfg graph;
    std::unique_ptr<arch::CgraArch> accel;
};

TEST_F(ConfigTest, ComputeRolesRecorded)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(*accel, 2);
    map::Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);

    auto config = sim::extractConfiguration(m);
    ASSERT_EQ(config.size(), 2u);
    EXPECT_EQ(config[0][0].role, sim::PeConfig::Role::Compute);
    EXPECT_EQ(config[0][0].node, 0);
    EXPECT_EQ(config[1][1].role, sim::PeConfig::Role::Compute);
    EXPECT_EQ(config[1][1].node, 1);
    EXPECT_EQ(config[0][5].role, sim::PeConfig::Role::Nop);
}

TEST_F(ConfigTest, RouteAndRegisterRolesRecorded)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(*accel, 4);
    map::Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3}); // register hold for two cycles
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);

    auto config = sim::extractConfiguration(m);
    int register_slots = 0;
    for (const auto &layer : config)
        for (const auto &pe : layer)
            register_slots += static_cast<int>(pe.registerValues.size());
    EXPECT_EQ(register_slots, 2);
}

TEST_F(ConfigTest, TextListingMentionsEverything)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(*accel, 2);
    map::Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{1});
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);
    std::string text = sim::configurationToText(m);
    EXPECT_NE(text.find("II=2"), std::string::npos);
    EXPECT_NE(text.find("load"), std::string::npos);
    EXPECT_NE(text.find("add"), std::string::npos);
    EXPECT_NE(text.find("cycle 0"), std::string::npos);
}

TEST_F(ConfigTest, InvalidMappingPanics)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(*accel, 2);
    map::Mapping m(graph, mrrg);
    EXPECT_DEATH(sim::extractConfiguration(m), "valid");
}

} // namespace
