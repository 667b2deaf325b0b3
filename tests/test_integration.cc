/** @file Cross-module integration tests: full mapper comparisons on real
 *  kernels and multiple architectures, mirroring the paper's headline
 *  claims at miniature scale. */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "core/lisa_mapper.hh"
#include "dfg/builder.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "power/power_model.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;

map::SearchOptions
quick(double per_ii = 1.0, double total = 5.0, uint64_t seed = 1)
{
    map::SearchOptions opts;
    opts.perIiBudget = per_ii;
    opts.totalBudget = total;
    opts.seed = seed;
    return opts;
}

TEST(Integration, AllMappersAgreeGemmIsMappable)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    dfg::Analysis an(w.dfg);

    map::SaMapper sa;
    arch::ArchContext ctx(c);
    auto r_sa = map::searchMinIi(sa, w.dfg, ctx, quick());
    EXPECT_TRUE(r_sa.success);

    map::ExactMapper ex;
    arch::ArchContext ctx2(c);
    auto r_ex = map::searchMinIi(ex, w.dfg, ctx2, quick());
    EXPECT_TRUE(r_ex.success);

    core::LisaMapper lm(core::initialLabels(w.dfg, an));
    arch::ArchContext ctx3(c);
    auto r_lm = map::searchMinIi(lm, w.dfg, ctx3, quick());
    EXPECT_TRUE(r_lm.success);
}

class SuiteOnCgra
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>>
{
};

TEST_P(SuiteOnCgra, SaMapsWithinConfigDepth)
{
    auto [name, rows, cols] = GetParam();
    arch::CgraArch c(arch::baselineCgra(rows, cols));
    auto w = workloads::workloadByName(name);
    map::SaMapper sa;
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(sa, w.dfg, ctx, quick(1.0, 6.0));
    ASSERT_TRUE(r.success) << name;
    EXPECT_GE(r.ii, r.mii);
    EXPECT_LE(r.ii, c.maxIi());
    EXPECT_TRUE(r.mapping->valid());
    // Power evaluation works on every produced mapping.
    auto report = power::evaluatePower(*r.mapping);
    EXPECT_GT(report.mopsPerWatt, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SuiteOnCgra,
    ::testing::Values(std::tuple{"gemm", 4, 4}, std::tuple{"atax", 4, 4},
                      std::tuple{"mvt", 4, 4}, std::tuple{"syrk", 3, 3},
                      std::tuple{"doitgen", 3, 3},
                      std::tuple{"bicg", 4, 4}));

TEST(Integration, LessRoutingResourcesNeverLowersMii)
{
    arch::CgraArch base(arch::baselineCgra(4, 4));
    arch::CgraArch less(arch::lessRoutingCgra());
    for (const auto &w : workloads::polybenchSuite()) {
        EXPECT_EQ(map::resourceMii(w.dfg, base),
                  map::resourceMii(w.dfg, less));
    }
}

TEST(Integration, MemRestrictedCgraRaisesMiiForLoadHeavyKernels)
{
    arch::CgraArch base(arch::baselineCgra(4, 4));
    arch::CgraArch mem(arch::lessMemoryCgra());
    // A load-dominated body: 9 loads summed into one result. On the
    // baseline every PE is a memory port; left-column-only memory raises
    // the bound to ceil(10 mem ops / 4 PEs).
    dfg::DfgBuilder b("loads");
    std::vector<dfg::NodeId> loads;
    for (int i = 0; i < 9; ++i)
        loads.push_back(b.load("l" + std::to_string(i)));
    auto sum = b.op(dfg::OpCode::Add, loads);
    b.store(sum, "out");
    dfg::Dfg g = b.build();
    EXPECT_GT(map::resourceMii(g, mem), map::resourceMii(g, base));
}

TEST(Integration, SystolicStreamingSubsetMaps)
{
    arch::SystolicArch s(5, 5);
    core::LisaConfig cfg;
    for (const char *name : {"gemm", "syrk", "doitgen", "mvt"}) {
        auto g = workloads::polybenchKernel(
            name, workloads::KernelVariant::Streaming);
        dfg::Analysis an(g);
        core::LisaMapper lm(core::initialLabels(g, an), cfg);
        arch::ArchContext ctx(s);
        auto r = map::searchMinIi(lm, g, ctx, quick(2.0, 4.0));
        EXPECT_TRUE(r.success) << name;
    }
}

TEST(Integration, LisaMapsDenseKernelVanillaSaStrugglesWith)
{
    // gemver on the 4x4: the motivating case where the global view wins.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemver");
    dfg::Analysis an(w.dfg);
    core::LisaMapper lm(core::initialLabels(w.dfg, an));
    arch::ArchContext ctx(c);
    auto r = map::searchMinIi(lm, w.dfg, ctx, quick(2.0, 12.0));
    EXPECT_TRUE(r.success);
}

TEST(Integration, SaMedianOfThreeRunsIsStable)
{
    // The paper reports the SA median of three runs; different seeds must
    // all produce valid (if different) mappings on an easy kernel.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("doitgen");
    for (uint64_t seed : {1u, 2u, 3u}) {
        map::SaMapper sa;
        arch::ArchContext ctx(c);
        auto r = map::searchMinIi(sa, w.dfg, ctx, quick(1.0, 4.0, seed));
        ASSERT_TRUE(r.success);
        EXPECT_TRUE(r.mapping->valid());
    }
}

} // namespace
