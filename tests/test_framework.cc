/** @file End-to-end framework tests with a miniature training config. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "core/framework.hh"
#include "support/stopwatch.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::core;

FrameworkConfig
tinyConfig(const std::string &cache)
{
    FrameworkConfig cfg;
    cfg.trainingData.numDfgs = 10;
    cfg.trainingData.refinements = 2;
    cfg.trainingData.perIiBudget = 0.15;
    cfg.trainingData.totalBudget = 0.6;
    cfg.trainingData.generator.minNodes = 8;
    cfg.trainingData.generator.maxNodes = 14;
    cfg.training.epochs = 30;
    cfg.cacheDir = cache;
    return cfg;
}

struct FrameworkTest : public ::testing::Test
{
    void SetUp() override
    {
        // One directory per test: ctest runs these tests in parallel
        // processes, and a shared directory let one test's set-up delete
        // or overwrite the models another test had just cached.
        cache = std::string("/tmp/lisa_fw_test_cache_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::filesystem::remove_all(cache);
    }
    void TearDown() override { std::filesystem::remove_all(cache); }
    std::string cache;
};

TEST(HeldOut, CountHoldsOneOutOfTwoOrMoreAndNeverAll)
{
    EXPECT_EQ(heldOutCount(0), 0u);
    EXPECT_EQ(heldOutCount(1), 0u);
    // 15% rounds down to none below 7 graphs; one is held out anyway.
    for (size_t kept = 2; kept <= 13; ++kept)
        EXPECT_EQ(heldOutCount(kept), 1u) << kept;
    EXPECT_EQ(heldOutCount(14), 2u);
    EXPECT_EQ(heldOutCount(100), 15u);
    for (size_t kept = 2; kept <= 200; ++kept) {
        EXPECT_GE(heldOutCount(kept), 1u) << kept;
        EXPECT_LT(heldOutCount(kept), kept) << kept;
    }
}

TEST_F(FrameworkTest, PrepareTrainsAndCaches)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    EXPECT_FALSE(fw.isPrepared());
    fw.prepare();
    EXPECT_TRUE(fw.isPrepared());
    ASSERT_EQ(fw.labelAccuracy().size(), 4u);
    for (double a : fw.labelAccuracy()) {
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
    }
    // Cache files exist and a second framework loads them quickly.
    EXPECT_TRUE(
        std::filesystem::exists(cache + "/" + c.name() + ".label1"));
    LisaFramework fw2(c, tinyConfig(cache));
    Stopwatch sw;
    fw2.prepare();
    EXPECT_LT(sw.seconds(), 1.0);
    EXPECT_EQ(fw2.labelAccuracy().size(), 4u);
}

TEST_F(FrameworkTest, PredictLabelsHasRightArity)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    fw.prepare();
    auto w = workloads::workloadByName("gemm");
    dfg::Analysis an(w.dfg);
    Labels lbl = fw.predictLabels(w.dfg, an);
    EXPECT_TRUE(lbl.matches(w.dfg, an));
    for (double v : lbl.temporalDist)
        EXPECT_GE(v, 1.0);
    for (double v : lbl.spatialDist)
        EXPECT_GE(v, 0.0);
    for (double v : lbl.association)
        EXPECT_GE(v, 0.0);
}

TEST_F(FrameworkTest, CompileMapsKernels)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    fw.prepare();
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;
    auto r = fw.compile(workloads::workloadByName("gemm").dfg, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.mapping->valid());
    EXPECT_LE(r.ii, 3);
}

TEST_F(FrameworkTest, ModelCacheRejectsDifferentFabricSameName)
{
    // The cache file name keys on the accelerator *name*, which does not
    // encode every fabric parameter (configDepth, for one). Regression:
    // a framework for a same-named but different fabric used to load the
    // stale models silently. The fingerprint line in the .meta file must
    // reject them and force a retrain.
    arch::CgraConfig cfg_a = arch::baselineCgra(4, 4);
    arch::CgraArch a(cfg_a);
    LisaFramework fw(a, tinyConfig(cache));
    fw.prepare();

    // Overwrite the cached accuracies with sentinels, keeping the
    // fingerprint line intact, to observe which path prepare() takes:
    // loading yields the sentinels, retraining yields anything else.
    const std::vector<double> sentinels{0.111, 0.222, 0.333, 0.444};
    const std::string meta_path = cache + "/" + a.name() + ".meta";
    {
        std::ifstream in(meta_path);
        uint64_t fp = 0;
        ASSERT_TRUE(static_cast<bool>(in >> fp));
        arch::ArchContext ctx_a(a);
        EXPECT_EQ(fp, ctx_a.fingerprint());
        std::ofstream out(meta_path);
        out << fp << '\n';
        for (double s : sentinels)
            out << s << '\n';
    }

    // Same fabric: the cache loads, so the sentinels surface.
    LisaFramework fw_same(a, tinyConfig(cache));
    fw_same.prepare();
    ASSERT_EQ(fw_same.labelAccuracy().size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(fw_same.labelAccuracy()[i], sentinels[i]);

    // Same name, different fabric (deeper config memory): fingerprint
    // mismatch, so prepare() must retrain instead of loading sentinels.
    arch::CgraConfig cfg_b = cfg_a;
    cfg_b.configDepth = cfg_a.configDepth + 8;
    arch::CgraArch b(cfg_b);
    ASSERT_EQ(a.name(), b.name());
    LisaFramework fw_other(b, tinyConfig(cache));
    fw_other.prepare();
    ASSERT_EQ(fw_other.labelAccuracy().size(), 4u);
    EXPECT_NE(fw_other.labelAccuracy(), sentinels);

    // The retrain refreshed the cache under the new fingerprint.
    std::ifstream in(meta_path);
    uint64_t fp = 0;
    ASSERT_TRUE(static_cast<bool>(in >> fp));
    arch::ArchContext ctx_b(b);
    EXPECT_EQ(fp, ctx_b.fingerprint());
}

TEST_F(FrameworkTest, MetaWithoutFingerprintIsRejected)
{
    // Pre-fingerprint caches (meta = four accuracy lines) must be treated
    // as stale: the first value parses as a fingerprint and mismatches.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    fw.prepare();
    const std::string meta_path = cache + "/" + c.name() + ".meta";
    // The sentinel is no ratio of small counts, so a retrained accuracy
    // (correct / validation samples) cannot equal it by chance, as 0.9
    // could.
    {
        std::ofstream out(meta_path);
        out << "0.987654321\n0.987654321\n0.987654321\n0.987654321\n";
    }
    LisaFramework fw2(c, tinyConfig(cache));
    fw2.prepare();
    ASSERT_EQ(fw2.labelAccuracy().size(), 4u);
    for (double acc : fw2.labelAccuracy())
        EXPECT_NE(acc, 0.987654321);
}

TEST_F(FrameworkTest, CompilePortfolioRacesAndReproduces)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    fw.prepare();
    auto w = workloads::workloadByName("gemm");

    PortfolioConfig pc;
    for (map::SearchOptions *o : {&pc.lisa, &pc.sa, &pc.ilp}) {
        o->perIiBudget = 1.5;
        o->totalBudget = 6.0;
        o->seed = 5;
    }
    auto r1 = fw.compilePortfolio(w.dfg, pc);
    ASSERT_TRUE(r1.success);
    ASSERT_TRUE(r1.mapping.has_value());
    EXPECT_TRUE(r1.mapping->valid());
    ASSERT_EQ(r1.members.size(), 3u);
    EXPECT_EQ(r1.members[0].name, "LISA");
    EXPECT_EQ(r1.members[1].name, "SA");
    EXPECT_EQ(r1.members[2].name, "ILP*");
    EXPECT_EQ(r1.winner, r1.members[static_cast<size_t>(r1.winnerRank)].name);

    // The race must never be worse than the standalone LISA compile.
    map::SearchOptions solo;
    solo.perIiBudget = 1.5;
    solo.totalBudget = 6.0;
    solo.seed = 5;
    auto lisa_only = fw.compile(w.dfg, solo);
    ASSERT_TRUE(lisa_only.success);
    EXPECT_LE(r1.ii, lisa_only.ii);

    // Same (seeds, member set, threads): bit-identical winning mapping.
    auto r2 = fw.compilePortfolio(w.dfg, pc);
    ASSERT_TRUE(r2.success);
    EXPECT_EQ(r2.winner, r1.winner);
    EXPECT_EQ(r2.ii, r1.ii);
    EXPECT_EQ(verify::mappingToText(*r2.mapping),
              verify::mappingToText(*r1.mapping));
}

TEST_F(FrameworkTest, UnpreparedUsePanics)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    LisaFramework fw(c, tinyConfig(cache));
    auto w = workloads::workloadByName("gemm");
    dfg::Analysis an(w.dfg);
    EXPECT_DEATH(fw.predictLabels(w.dfg, an), "prepare");
}

} // namespace
