/**
 * @file
 * Tests for the learned routability filter: model round-trip and the
 * fingerprint stale-model guard, the off-vs-strict bit-identity
 * property across SA / LISA, the tier-0 exactness of `on` mode,
 * counter flow, and the --collect-routability sample sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "core/lisa_mapper.hh"
#include "dfg/builder.hh"
#include "mapping/ii_search.hh"
#include "mapping/routability_filter.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "nn/module.hh"
#include "nn/tensor.hh"
#include "support/random.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;

/** Restore the global filter mode/collection sink on scope exit. */
struct ModeGuard
{
    explicit ModeGuard(map::RoutabilityMode mode)
    {
        map::setRoutabilityMode(mode);
    }
    ~ModeGuard()
    {
        map::setRoutabilityMode(map::RoutabilityMode::Off);
        map::setRoutabilityCollection("");
    }
};

/** A deterministic admission model with a hand-picked threshold. */
std::shared_ptr<const map::RoutabilityModel>
makeModel(double threshold, uint64_t fingerprint)
{
    Rng rng(3);
    nn::Mlp mlp(map::RoutabilityModel::kFeatureCount, 4, 1, rng,
                "routability");
    auto model = std::make_shared<map::RoutabilityModel>();
    EXPECT_TRUE(map::flattenRoutabilityMlp(mlp, *model));
    model->threshold = threshold;
    model->fingerprint = fingerprint;
    return model;
}

core::Labels
labelsFor(const dfg::Dfg &g)
{
    dfg::Analysis an(g);
    return core::initialLabels(g, an);
}

/**
 * One fixed-II tryMap job, seeded as searchMinIi seeds that II
 * (Rng(seed).split(ii)), on one attempt stream, under a cap far above its
 * run time. Its result is then a pure function of the seed: no wall-clock
 * budget or stream race decides where the search stops. @return the
 * mapping text, "" when the job found none.
 */
std::string
tryMapText(map::Mapper &mapper, const dfg::Dfg &dfg, const dfg::Analysis &an,
           arch::ArchContext &ctx, int ii, map::MapperStats *stats)
{
    constexpr double kCapS = 120.0;
    std::atomic<long> attempts{0};
    map::MapContext mc{dfg,
                       an,
                       ctx.mrrgFor(ii),
                       kCapS,
                       Rng(11).split(static_cast<uint64_t>(ii)),
                       1,
                       nullptr,
                       nullptr,
                       &attempts,
                       stats,
                       &ctx,
                       nullptr,
                       ii,
                       0};
    auto m = mapper.tryMap(mc);
    return m ? verify::mappingToText(*m) : "";
}

TEST(RoutabilityFilter, ModelRoundTripPreservesScores)
{
    const std::string dir = "/tmp/lisa_routability_roundtrip";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Rng rng(7);
    nn::Mlp mlp(map::RoutabilityModel::kFeatureCount, 8, 1, rng,
                "routability");
    map::RoutabilityModel direct;
    ASSERT_TRUE(map::flattenRoutabilityMlp(mlp, direct));
    ASSERT_TRUE(
        map::saveRoutabilityModel(mlp, 0xabcdefull, 0.25, dir, "toy"));

    std::string error;
    auto loaded = map::readRoutabilityModel(dir, "toy", &error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->fingerprint, 0xabcdefull);
    EXPECT_DOUBLE_EQ(loaded->threshold, 0.25);
    EXPECT_EQ(loaded->hidden, 8);

    // The flattened inference must agree with the autograd forward pass.
    Rng frng(99);
    for (int trial = 0; trial < 16; ++trial) {
        double f[map::RoutabilityModel::kFeatureCount];
        nn::Tensor x(1, map::RoutabilityModel::kFeatureCount);
        for (int i = 0; i < map::RoutabilityModel::kFeatureCount; ++i) {
            f[i] = frng.uniform() * 2.0 - 1.0;
            x.at(0, i) = f[i];
        }
        const double ref = mlp.forward(x).at(0, 0);
        EXPECT_NEAR(direct.score(f), ref, 1e-9);
        EXPECT_NEAR(loaded->score(f), ref, 1e-9);
    }
    std::filesystem::remove_all(dir);
}

TEST(RoutabilityFilter, CorruptOrForeignModelsDisableFilter)
{
    const std::string dir = "/tmp/lisa_routability_guard";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    arch::CgraArch accel(arch::baselineCgra(4, 4));

    {
        // Missing file: quiet no-op, and the claim is consumed exactly
        // once per context.
        arch::ArchContext ctx(accel);
        EXPECT_FALSE(map::loadRoutabilityModel(ctx, dir));
        EXPECT_EQ(ctx.routabilityModel(), nullptr);
        EXPECT_FALSE(map::loadRoutabilityModel(ctx, dir));
    }
    {
        // Foreign fabric fingerprint: rejected, filter stays disabled.
        arch::ArchContext ctx(accel);
        Rng rng(5);
        nn::Mlp mlp(map::RoutabilityModel::kFeatureCount, 4, 1, rng,
                    "routability");
        ASSERT_TRUE(map::saveRoutabilityModel(
            mlp, ctx.fingerprint() + 1, 0.5, dir, accel.name()));
        EXPECT_FALSE(map::loadRoutabilityModel(ctx, dir));
        EXPECT_EQ(ctx.routabilityModel(), nullptr);
    }
    {
        // Corrupt model payload under a well-formed meta: rejected.
        arch::ArchContext ctx(accel);
        std::ofstream bad(dir + "/" + accel.name() + ".routability");
        bad << "lisa-model routability\nparam bogus 1 1\nnot-a-number\n";
        bad.close();
        std::ofstream meta(dir + "/" + accel.name() +
                           ".routability.meta");
        meta << ctx.fingerprint() << "\n"
             << map::RoutabilityModel::kFeatureVersion << "\n4\n0.5\n";
        meta.close();
        EXPECT_FALSE(map::loadRoutabilityModel(ctx, dir));
        EXPECT_EQ(ctx.routabilityModel(), nullptr);
    }
    {
        // A matching fingerprint loads and installs.
        arch::ArchContext ctx(accel);
        Rng rng(5);
        nn::Mlp mlp(map::RoutabilityModel::kFeatureCount, 4, 1, rng,
                    "routability");
        ASSERT_TRUE(map::saveRoutabilityModel(
            mlp, ctx.fingerprint(), 0.5, dir, accel.name()));
        EXPECT_TRUE(map::loadRoutabilityModel(ctx, dir));
        EXPECT_NE(ctx.routabilityModel(), nullptr);
    }
    std::filesystem::remove_all(dir);
}

TEST(RoutabilityFilter, StrictModeBitIdenticalToOffAcrossMappers)
{
    // The property the strict gate guarantees: with every predicted
    // reject shadow-routed and overridden by the router's answer, the
    // final mapping of a fixed-seed search is bit-identical to a
    // filter-off run. An absurdly high threshold would veto every
    // learned-tier query; these two mappers allow overuse, so their
    // rejects come from tier 0, and strict mode shadow-routes every one.
    // Each mapper runs one fixed-II job (see tryMapText), so no
    // wall-clock budget decides where either mode's search stops.
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    ctx.setRoutabilityModel(makeModel(1e9, ctx.fingerprint()));
    auto w = workloads::workloadByName("gemm");
    const dfg::Analysis an(w.dfg);
    const auto labels = labelsFor(w.dfg);

    // SA and LISA map at the MII in well under a second.
    auto runAll = [&](map::MapperStats *sa_stats) {
        std::vector<std::string> texts;
        map::SaMapper sa;
        texts.push_back(tryMapText(sa, w.dfg, an, ctx, 1, sa_stats));
        core::LisaMapper lisa(labels);
        texts.push_back(tryMapText(lisa, w.dfg, an, ctx, 1, nullptr));
        return texts;
    };

    std::vector<std::string> off_texts;
    {
        ModeGuard guard(map::RoutabilityMode::Off);
        off_texts = runAll(nullptr);
    }
    for (const std::string &t : off_texts)
        ASSERT_FALSE(t.empty());

    map::MapperStats probe;
    std::vector<std::string> strict_texts;
    {
        ModeGuard guard(map::RoutabilityMode::Strict);
        strict_texts = runAll(&probe);
    }
    EXPECT_EQ(off_texts, strict_texts);
    // Strict mode audits every reject: each one is shadow-routed.
    EXPECT_GT(probe.router.filterQueries, 0u);
    EXPECT_GT(probe.router.filterRejects, 0u);
    EXPECT_EQ(probe.router.filterShadowRoutes, probe.router.filterRejects);
}

TEST(RoutabilityFilter, OnModeTier0RulesMatchRouterExactly)
{
    // threshold -inf disables the learned tier, leaving only the
    // provable structural rules — which reject precisely the calls the
    // router would fail on its own structural check. `on` mode must
    // therefore stay bit-identical to off while skipping real work. One
    // fixed-II job (see tryMapText), so no wall-clock budget decides how
    // many calls either mode makes.
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    ctx.setRoutabilityModel(makeModel(-1e9, ctx.fingerprint()));
    auto w = workloads::workloadByName("atax");
    const dfg::Analysis an(w.dfg);

    std::string off_text;
    map::MapperStats off_stats;
    {
        ModeGuard guard(map::RoutabilityMode::Off);
        map::SaMapper sa;
        off_text = tryMapText(sa, w.dfg, an, ctx, 2, &off_stats);
    }
    ASSERT_FALSE(off_text.empty());

    std::string on_text;
    map::MapperStats on_stats;
    {
        ModeGuard guard(map::RoutabilityMode::On);
        map::SaMapper sa;
        on_text = tryMapText(sa, w.dfg, an, ctx, 2, &on_stats);
    }
    EXPECT_EQ(off_text, on_text);
    EXPECT_GT(on_stats.router.filterQueries, 0u);
    EXPECT_GT(on_stats.router.filterRejects, 0u);
    // Provable rejects are never shadow-routed and never false.
    EXPECT_EQ(on_stats.router.filterShadowRoutes, 0u);
    EXPECT_EQ(on_stats.router.filterFalseRejects, 0u);
    // Every reject skipped a router invocation the off run paid for.
    EXPECT_LT(on_stats.router.routeEdgeCalls,
              off_stats.router.routeEdgeCalls);
}

TEST(RoutabilityFilter, ExactMapperFailClosedUnderAlwaysRejectModel)
{
    // An adversarial model that vetoes every contested query would, taken
    // at face value, flip every feasible instance to "unmappable" in the
    // exact mapper — its hard-capacity calls are the learned tier's whole
    // population. The fail-closed protocol reruns a completed
    // empty-handed enumeration router-exact on the remaining budget, so
    // the mapper must still find the filter-off mapping bit-identically.
    // The instance is tiny on purpose: with every route vetoed the first
    // pass degenerates to enumerating all placement prefixes, and it must
    // *complete* (not time out) for the rerun to be the thing under test.
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    ctx.setRoutabilityModel(makeModel(1e9, ctx.fingerprint()));
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(dfg::OpCode::Add, {x});
    const dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    auto mrrg = std::make_shared<const arch::Mrrg>(accel, 1);

    auto runOnce = [&](map::RoutabilityMode mode, map::ExactConfig cfg,
                       map::MapperStats *stats) {
        ModeGuard guard(mode);
        map::ExactMapper ex(cfg);
        Rng rng(1);
        map::MapContext mctx{g, an, mrrg, 10.0, rng};
        mctx.archCtx = &ctx;
        mctx.stats = stats;
        auto m = ex.tryMap(mctx);
        return m.has_value() ? verify::mappingToText(*m) : std::string{};
    };

    const std::string off_text =
        runOnce(map::RoutabilityMode::Off, {}, nullptr);
    ASSERT_FALSE(off_text.empty());

    map::MapperStats on_stats;
    const std::string on_text =
        runOnce(map::RoutabilityMode::On, {}, &on_stats);
    EXPECT_EQ(off_text, on_text);
    // The first pass must actually have taken learned vetoes (every
    // learned reject shadow-samples, the first unconditionally) for the
    // router-exact rerun to be the thing under test.
    EXPECT_GT(on_stats.router.filterShadowRoutes, 0u);

    // Opting out of learned pruning takes tier-0 structural rejects
    // only: same mapping in a single pass, no learned vetoes at all.
    map::ExactConfig tier0_only;
    tier0_only.learnedPruning = false;
    map::MapperStats tier0_stats;
    const std::string tier0_text =
        runOnce(map::RoutabilityMode::On, tier0_only, &tier0_stats);
    EXPECT_EQ(off_text, tier0_text);
    EXPECT_EQ(tier0_stats.router.filterShadowRoutes, 0u);
    EXPECT_EQ(tier0_stats.router.filterFalseRejects, 0u);
}

TEST(RoutabilityFilter, CollectModeWritesLabeledSamples)
{
    const std::string path = "/tmp/lisa_routability_samples.txt";
    std::filesystem::remove(path);
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    auto w = workloads::workloadByName("gemm");

    {
        ModeGuard guard(map::RoutabilityMode::Collect);
        map::setRoutabilityCollection(path);
        EXPECT_TRUE(map::routabilityCollecting());
        // Only contested (hard-capacity) calls are collected, so drive
        // the exact mapper: it routes with allowOveruse=false.
        map::ExactMapper ilp;
        map::SearchOptions opts;
        opts.perIiBudget = 1.0;
        opts.totalBudget = 4.0;
        opts.seed = 11;
        auto r = map::searchMinIi(ilp, w.dfg, ctx, opts);
        (void)r; // samples matter here, not mapping success
    }
    EXPECT_FALSE(map::routabilityCollecting());

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string hash;
    std::string magic;
    std::string accel_name;
    uint64_t fp = 0;
    int version = 0;
    ASSERT_TRUE(
        static_cast<bool>(in >> hash >> magic >> accel_name >> fp >> version));
    EXPECT_EQ(hash, "#");
    EXPECT_EQ(magic, "lisa-routability");
    EXPECT_EQ(accel_name, accel.name());
    EXPECT_EQ(fp, ctx.fingerprint());
    EXPECT_EQ(version, map::RoutabilityModel::kFeatureVersion);
    int label = 0;
    int lines = 0;
    double f = 0.0;
    while (in >> label) {
        EXPECT_TRUE(label == 0 || label == 1);
        for (int i = 0; i < map::RoutabilityModel::kFeatureCount; ++i)
            ASSERT_TRUE(static_cast<bool>(in >> f));
        ++lines;
    }
    EXPECT_GT(lines, 0);
    std::filesystem::remove(path);
}

/**
 * TSan regression pinning the PR 8 mode-knob fix: routabilityMode()'s
 * lazy LISA_ROUTE_FILTER resolve publishes with a compare-exchange from
 * the unresolved sentinel, so a concurrent setRoutabilityMode() — an
 * explicit override from a test or the bench collect flag — can never be
 * overwritten by the env default losing the race. Runs in the CI tsan
 * job (the RoutabilityModeRace filter entry), where the pre-fix plain
 * store is both a reported race and a visible lost update.
 */
TEST(RoutabilityModeRace, ExplicitOverrideBeatsEnvResolve)
{
    for (int iter = 0; iter < 200; ++iter) {
        map::detail::resetRoutabilityModeForTest();
        std::atomic<bool> go{false};
        std::thread resolver([&go] {
            while (!go.load(std::memory_order_acquire)) {
            }
            (void)map::routabilityMode();
        });
        std::thread setter([&go] {
            while (!go.load(std::memory_order_acquire)) {
            }
            map::setRoutabilityMode(map::RoutabilityMode::Strict);
        });
        go.store(true, std::memory_order_release);
        resolver.join();
        setter.join();
        EXPECT_EQ(map::routabilityMode(), map::RoutabilityMode::Strict)
            << "lazy env resolve overwrote an explicit override "
            << "(iteration " << iter << ")";
    }
    // Leave the knob as the process started: unresolved, so the next
    // consumer re-runs the env resolve instead of inheriting Strict.
    map::detail::resetRoutabilityModeForTest();
}

} // namespace
