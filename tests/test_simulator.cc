/** @file Tests for the functional simulator and reference interpreter. */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/builder.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using dfg::OpCode;

TEST(EvalOp, Arithmetic)
{
    EXPECT_EQ(sim::evalOp(OpCode::Add, {2, 3, 4}), 9);
    EXPECT_EQ(sim::evalOp(OpCode::Sub, {7, 3}), 4);
    EXPECT_EQ(sim::evalOp(OpCode::Mul, {2, 3, 4}), 24);
    EXPECT_EQ(sim::evalOp(OpCode::Div, {9, 2}), 4);
    EXPECT_EQ(sim::evalOp(OpCode::Div, {9, 0}), 0); // guarded
    EXPECT_EQ(sim::evalOp(OpCode::Cmp, {1, 2}), 1);
    EXPECT_EQ(sim::evalOp(OpCode::Cmp, {2, 1}), 0);
    EXPECT_EQ(sim::evalOp(OpCode::Select, {1, 10, 20}), 10);
    EXPECT_EQ(sim::evalOp(OpCode::Select, {0, 10, 20}), 20);
    EXPECT_EQ(sim::evalOp(OpCode::Shl, {1, 4}), 16);
    EXPECT_EQ(sim::evalOp(OpCode::Store, {42}), 42);
}

TEST(Reference, AccumulatorAcrossIterations)
{
    dfg::DfgBuilder b("acc");
    auto x = b.load("x");
    auto acc = b.op(OpCode::Add, {x});
    b.recurrence(acc, acc);
    b.store(acc, "out");
    dfg::Dfg g = b.build();

    auto inputs = [](const dfg::Node &, int) { return int64_t{2}; };
    auto stores = sim::interpretReference(g, 4, inputs);
    ASSERT_EQ(stores.size(), 4u);
    // acc = 2, 4, 6, 8 (pre-loop value 0).
    EXPECT_EQ(stores[0].value, 2);
    EXPECT_EQ(stores[1].value, 4);
    EXPECT_EQ(stores[3].value, 8);
}

TEST(Simulator, HandMappedChainComputesAndDelivers)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("mac");
    auto x = b.load("x");
    auto y = b.load("y");
    auto m = b.op(OpCode::Mul, {x, y});
    b.store(m, "out");
    dfg::Dfg g = b.build();

    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping mapping(g, mrrg);
    mapping.placeNode(0, PeId{0}, AbsTime{0});
    mapping.placeNode(1, PeId{1}, AbsTime{0});
    mapping.placeNode(2, PeId{1}, AbsTime{1});
    mapping.placeNode(3, PeId{2}, AbsTime{2});
    map::RouterWorkspace ws;
    ASSERT_EQ(map::routeAll(mapping, map::RouterCosts{}, ws), 0);
    ASSERT_TRUE(mapping.valid());

    auto result = sim::simulate(mapping, 3);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.stores.size(), 3u);
    for (const auto &st : result.stores) {
        int64_t expect = sim::defaultInput(g.node(0), st.iteration) *
                         sim::defaultInput(g.node(1), st.iteration);
        EXPECT_EQ(st.value, expect);
    }
    std::string error;
    EXPECT_TRUE(sim::verifyMapping(mapping, 3, &error)) << error;
}

TEST(Simulator, SaMappedKernelsMatchReference)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    for (const char *name : {"gemm", "atax", "mvt", "syrk"}) {
        auto w = workloads::workloadByName(name);
        map::SaMapper sa;
        map::SearchOptions opts;
        opts.perIiBudget = 1.0;
        opts.totalBudget = 6.0;
        arch::ArchContext ctx(c);
        auto r = map::searchMinIi(sa, w.dfg, ctx, opts);
        ASSERT_TRUE(r.success) << name;
        std::string error;
        EXPECT_TRUE(sim::verifyMapping(*r.mapping, 5, &error))
            << name << ": " << error;
    }
}

TEST(Simulator, SystolicStreamingKernelMatchesReference)
{
    arch::SystolicArch s(5, 5);
    auto gemm = workloads::polybenchKernel(
        "gemm", workloads::KernelVariant::Streaming);
    map::SaMapper sa;
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 4.0;
    arch::ArchContext ctx(s);
    auto r = map::searchMinIi(sa, gemm, ctx, opts);
    ASSERT_TRUE(r.success);
    auto result = sim::simulate(*r.mapping, 4);
    ASSERT_TRUE(result.ok) << result.error;
    // gemm streaming has no store; check the accumulator value directly.
    auto ref = sim::interpretReference(gemm, 4, sim::defaultInput);
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(result.finalValues.size(), gemm.numNodes());
}

TEST(Simulator, DetectsCorruptedRoute)
{
    // A mapping whose route is installed to the wrong place must fail the
    // delivery check even though setRoute() accepted it.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    auto y = b.op(OpCode::Add, {x});
    (void)y;
    dfg::Dfg g = b.build();

    auto mrrg = std::make_shared<const arch::Mrrg>(c, 4);
    map::Mapping mapping(g, mrrg);
    mapping.placeNode(0, PeId{0}, AbsTime{0});
    mapping.placeNode(1, PeId{2}, AbsTime{2}); // needs one hop through (pe1, t1)
    // Deliberately corrupt: "route" through a far-away FU instead.
    mapping.setRoute(0, {mrrg->fuId(PeId{15}, AbsTime{1})});
    ASSERT_TRUE(mapping.valid()); // structurally consistent occupancy
    auto result = sim::simulate(mapping, 2);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("not delivered"), std::string::npos);
}

TEST(Simulator, InvalidMappingRejected)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::Mapping mapping(g, mrrg);
    auto result = sim::simulate(mapping, 2);
    EXPECT_FALSE(result.ok);
}

TEST(Simulator, RecurrentKernelValuesAccumulate)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    map::SaMapper sa;
    map::SearchOptions opts;
    opts.perIiBudget = 1.0;
    opts.totalBudget = 6.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(sa, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    auto one = sim::simulate(*r.mapping, 1);
    auto four = sim::simulate(*r.mapping, 4);
    ASSERT_TRUE(one.ok) << one.error;
    ASSERT_TRUE(four.ok) << four.error;
    // The accumulator's final value must grow with iteration count.
    dfg::NodeId acc = dfg::kInvalidNode;
    for (const dfg::Node &n : w.dfg.nodes())
        if (n.name == "acc+=")
            acc = n.id;
    ASSERT_NE(acc, dfg::kInvalidNode);
    EXPECT_GT(four.finalValues[acc], one.finalValues[acc]);
}

} // namespace
