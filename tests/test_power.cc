/** @file Tests for the activity-based power model. */

#include <gtest/gtest.h>

#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "power/power_model.hh"

namespace {

using namespace lisa;
using dfg::OpCode;

/** A valid 2-node mapping on a 4x4 CGRA at the given II. */
map::Mapping
chainMapping(const dfg::Dfg &g, const arch::CgraArch &c, int ii,
             int consumer_time)
{
    auto mrrg = std::make_shared<const arch::Mrrg>(c, ii);
    map::Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{1}, AbsTime{consumer_time});
    map::RouterWorkspace ws;
    EXPECT_EQ(map::routeAll(m, map::RouterCosts{}, ws), 0);
    EXPECT_TRUE(m.valid());
    return m;
}

dfg::Dfg
chain2()
{
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    return b.build();
}

TEST(Power, CountsActivity)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = chain2();
    auto m = chainMapping(g, c, 2, 1);
    auto report = power::evaluatePower(m);
    EXPECT_EQ(report.computeSlots, 2);
    EXPECT_EQ(report.routeSlots + report.registerSlots, 0); // direct feed
    EXPECT_GT(report.totalPowerMw, 0.0);
    EXPECT_GT(report.mopsPerWatt, 0.0);
}

TEST(Power, RoutingIncreasesPower)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = chain2();
    auto direct = power::evaluatePower(chainMapping(g, c, 4, 1));
    auto routed = power::evaluatePower(chainMapping(g, c, 4, 3));
    EXPECT_GT(routed.routeSlots + routed.registerSlots, 0);
    EXPECT_GT(routed.totalPowerMw, direct.totalPowerMw);
    EXPECT_LT(routed.mopsPerWatt, direct.mopsPerWatt);
}

TEST(Power, LowerIiGivesHigherThroughputPerWatt)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = chain2();
    auto ii1 = power::evaluatePower(chainMapping(g, c, 1, 1));
    auto ii4 = power::evaluatePower(chainMapping(g, c, 4, 1));
    EXPECT_GT(ii1.mopsPerWatt, ii4.mopsPerWatt);
}

TEST(Power, InvalidMappingPanics)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = chain2();
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping m(g, mrrg);
    EXPECT_DEATH(power::evaluatePower(m), "valid");
}

TEST(Power, CustomParamsScaleLinearly)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::Dfg g = chain2();
    auto m = chainMapping(g, c, 2, 1);
    power::PowerParams base;
    power::PowerParams doubled = base;
    doubled.computeMw *= 2;
    doubled.routeMw *= 2;
    doubled.registerMw *= 2;
    doubled.idleMw *= 2;
    doubled.staticPerPeMw *= 2;
    auto a = power::evaluatePower(m, base);
    auto b = power::evaluatePower(m, doubled);
    EXPECT_NEAR(b.totalPowerMw, 2 * a.totalPowerMw, 1e-9);
    EXPECT_NEAR(b.mopsPerWatt, a.mopsPerWatt / 2, a.mopsPerWatt * 1e-9);
}

} // namespace
