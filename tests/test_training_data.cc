/** @file Tests for the iterative label-refinement pipeline and filter. */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "core/training_data.hh"

namespace {

using namespace lisa;
using namespace lisa::core;

TrainingDataConfig
quickConfig()
{
    TrainingDataConfig cfg;
    cfg.numDfgs = 6;
    cfg.refinements = 2;
    cfg.perIiBudget = 0.2;
    cfg.totalBudget = 1.0;
    cfg.generator.minNodes = 8;
    cfg.generator.maxNodes = 12;
    return cfg;
}

TEST(RefineLabels, ProducesConsistentLabels)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    TrainingDataConfig cfg = quickConfig();
    Rng rng(3);
    dfg::Dfg g = dfg::generateRandomDfg(cfg.generator, rng);
    arch::ArchContext ctx(c);
    auto refined = refineLabels(g, ctx, cfg, rng);
    ASSERT_TRUE(refined.has_value());
    dfg::Analysis an(g);
    EXPECT_TRUE(refined->labels.matches(g, an));
    EXPECT_GE(refined->bestIi, refined->mii);
    EXPECT_GE(refined->candidates, 1);
    // Extracted temporal distances are at least one cycle.
    for (double v : refined->labels.temporalDist)
        EXPECT_GE(v, 1.0);
    for (double v : refined->labels.spatialDist)
        EXPECT_GE(v, 0.0);
}

TEST(Filter, MiiMappingsAlwaysKept)
{
    RefinedLabels r;
    r.bestIi = 3;
    r.mii = 3;
    r.candidates = 1;
    EXPECT_TRUE(passesFilter(r));
}

TEST(Filter, FarFromOptimalWithFewCandidatesDropped)
{
    // The paper's threshold 0.8 and sigma 0.1.
    RefinedLabels r;
    r.bestIi = 6;
    r.mii = 2;
    r.candidates = 1;
    // 0.333 + 0.1 = 0.43 < 0.8.
    EXPECT_FALSE(passesFilter(r));
    r.candidates = 5;
    // 0.333 + 0.5 = 0.83 >= 0.8.
    EXPECT_TRUE(passesFilter(r));
}

TEST(GenerateTrainingSet, ProducesAlignedSamples)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    TrainingDataConfig cfg = quickConfig();
    Rng rng(5);
    arch::ArchContext ctx(c);
    auto samples = generateTrainingSet(ctx, cfg, rng);
    ASSERT_FALSE(samples.empty());
    for (const auto &s : samples) {
        EXPECT_EQ(s.attrs.nodeAttrs.rows(),
                  static_cast<int>(s.scheduleOrder.size()));
        EXPECT_EQ(s.spatialDist.size(), s.temporalDist.size());
        EXPECT_EQ(s.attrs.nodeNeighbors.size(), s.scheduleOrder.size());
    }
}

TEST(GenerateTrainingSet, SpatialArchRestrictsGenerator)
{
    // On the systolic array, generated DFGs must avoid unsupported ops and
    // stay within the PE budget.
    arch::SystolicArch s(5, 5);
    TrainingDataConfig cfg = quickConfig();
    cfg.numDfgs = 4;
    Rng rng(7);
    arch::ArchContext ctx(s);
    auto samples = generateTrainingSet(ctx, cfg, rng);
    for (const auto &sample : samples)
        EXPECT_LE(sample.scheduleOrder.size(), 25u);
}

} // namespace
