/** @file Tests for the evolutionary mapper (the portfolio's EVO member). */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/builder.hh"
#include "mappers/evo_mapper.hh"
#include "mapping/ii_search.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::map;
using dfg::OpCode;

MapContext
makeContext(const dfg::Dfg &g, const dfg::Analysis &an,
            std::shared_ptr<const arch::Mrrg> mrrg, Rng &rng,
            double budget = 3.0)
{
    return MapContext{g, an, std::move(mrrg), budget, rng};
}

TEST(EvoMapper, MapsSmallChain)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c3");
    auto x = b.load("x");
    auto y = b.op(OpCode::Add, {x});
    b.op(OpCode::Mul, {y});
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    Rng rng(1);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    EvoMapper evo;
    auto m = evo.tryMap(makeContext(g, an, mrrg, rng));
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->valid());
}

TEST(EvoMapper, SearchFindsLowIiForEasyKernel)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("doitgen");
    EvoMapper evo;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(evo, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_GE(r.ii, r.mii);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_TRUE(r.mapping->valid());
    EXPECT_GT(r.stats.restarts, 0u);
}

TEST(EvoMapper, DeterministicGivenSeed)
{
    // Determinism holds when the search succeeds well inside its budget
    // (the restart loop is wall-clock gated, so a target that brushes the
    // budget boundary may differ run-to-run under machine load). doitgen
    // at II 2 resolves within the first restarts.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("doitgen");
    dfg::Analysis an(w.dfg);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    EvoMapper evo;
    Rng r1(7), r2(7);
    auto m1 = evo.tryMap(makeContext(w.dfg, an, mrrg, r1, 8.0));
    auto m2 = evo.tryMap(makeContext(w.dfg, an, mrrg, r2, 8.0));
    ASSERT_TRUE(m1.has_value());
    ASSERT_TRUE(m2.has_value());
    for (size_t v = 0; v < w.dfg.numNodes(); ++v) {
        EXPECT_EQ(m1->placement(static_cast<dfg::NodeId>(v)).pe,
                  m2->placement(static_cast<dfg::NodeId>(v)).pe);
        EXPECT_EQ(m1->placement(static_cast<dfg::NodeId>(v)).time,
                  m2->placement(static_cast<dfg::NodeId>(v)).time);
    }
}

TEST(EvoMapper, FailsFastOnUnmappableOp)
{
    // The systolic fabric has no cmp/select PEs: no genome exists, so the
    // mapper must give up immediately instead of evolving until budget.
    arch::SystolicArch s(5, 5);
    auto trmm = workloads::polybenchKernel(
        "trmm", workloads::KernelVariant::Streaming);
    dfg::Analysis an(trmm);
    Rng rng(2);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    EvoMapper evo;
    auto ctx = makeContext(trmm, an, mrrg, rng, 10.0);
    auto m = evo.tryMap(ctx);
    EXPECT_FALSE(m.has_value());
}

TEST(EvoMapper, HonorsTightBudgetWhenUnsolvable)
{
    // Two concurrent ops on a 1-PE fabric at II 1: unsolvable but every
    // op is supported, so the evolution loop must bail on the budget.
    arch::CgraArch c(arch::baselineCgra(1, 1));
    dfg::DfgBuilder b("two");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    Rng rng(4);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    EvoMapper evo;
    auto m = evo.tryMap(makeContext(g, an, mrrg, rng, 0.3));
    EXPECT_FALSE(m.has_value());
}

} // namespace
