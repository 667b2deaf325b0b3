/** @file Tests for the label-aware SA mapper (Algorithm 1). */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "core/lisa_mapper.hh"
#include "mapping/ii_search.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::core;

Labels
labelsFor(const dfg::Dfg &g)
{
    dfg::Analysis an(g);
    return initialLabels(g, an);
}

TEST(LisaMapper, MapsGemmWithInitialLabels)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    LisaMapper mapper(labelsFor(w.dfg));
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.mapping->valid());
    EXPECT_LE(r.ii, 3);
}

TEST(LisaMapper, PartialModeAlsoMaps)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    LisaConfig cfg;
    cfg.labelsOnlyForInit = true;
    LisaMapper mapper(labelsFor(w.dfg), cfg);
    EXPECT_EQ(mapper.name(), "LISA-partial");
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.mapping->valid());
}

TEST(LisaMapper, MapsOnSystolicArray)
{
    arch::SystolicArch s(5, 5);
    auto gemm = workloads::polybenchKernel(
        "gemm", workloads::KernelVariant::Streaming);
    LisaMapper mapper(labelsFor(gemm));
    map::SearchOptions opts;
    opts.perIiBudget = 3.0;
    opts.totalBudget = 6.0;
    arch::ArchContext ctx(s);
    auto r = map::searchMinIi(mapper, gemm, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.ii, 1);
}

TEST(LisaMapper, UnsupportedOpFailsFast)
{
    arch::SystolicArch s(5, 5);
    auto trmm = workloads::polybenchKernel(
        "trmm", workloads::KernelVariant::Streaming);
    LisaMapper mapper(labelsFor(trmm));
    map::SearchOptions opts;
    opts.totalBudget = 2.0;
    arch::ArchContext ctx(s);
    auto r = map::searchMinIi(mapper, trmm, ctx, opts);
    EXPECT_FALSE(r.success);
}

TEST(LisaMapper, MismatchedLabelsPanic)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto gemm = workloads::workloadByName("gemm");
    auto atax = workloads::workloadByName("atax");
    LisaMapper mapper(labelsFor(atax.dfg)); // wrong DFG's labels
    dfg::Analysis an(gemm.dfg);
    Rng rng(1);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    map::MapContext ctx{gemm.dfg, an, mrrg, 1.0, rng};
    EXPECT_DEATH(mapper.tryMap(ctx), "labels");
}

TEST(LisaMapper, RespectsDependenciesInResult)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gesummv");
    LisaMapper mapper(labelsFor(w.dfg));
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    const auto &m = *r.mapping;
    for (size_t e = 0; e < w.dfg.numEdges(); ++e) {
        int len = m.requiredLength(static_cast<dfg::EdgeId>(e));
        EXPECT_GE(len, 0);
        EXPECT_EQ(m.route(static_cast<dfg::EdgeId>(e)).size(),
                  static_cast<size_t>(len));
    }
    EXPECT_EQ(m.totalOveruse(), 0);
}

TEST(LisaMapper, MemoryPolicyRespected)
{
    arch::CgraArch c(arch::lessMemoryCgra());
    auto w = workloads::workloadByName("gemm");
    LisaMapper mapper(labelsFor(w.dfg));
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    for (size_t v = 0; v < w.dfg.numNodes(); ++v) {
        if (dfg::isMemoryOp(w.dfg.node(static_cast<dfg::NodeId>(v)).op)) {
            int pe = r.mapping->placement(static_cast<dfg::NodeId>(v)).pe;
            EXPECT_EQ(c.peCoord(pe).col, 0);
        }
    }
}

} // namespace
