/** @file Tests for the vanilla simulated-annealing mapper. */

#include <gtest/gtest.h>

#include <atomic>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "mappers/placement_util.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "support/thread_pool.hh"
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

TEST(SaMapper, MapsSmallChain)
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
    SaMapper sa;
    auto m = sa.tryMap(makeContext(g, an, mrrg, rng));
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->valid());
}

TEST(SaMapper, MapsGemmAtIiOne)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    dfg::Analysis an(w.dfg);
    Rng rng(2);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    SaMapper sa;
    auto m = sa.tryMap(makeContext(w.dfg, an, mrrg, rng, 5.0));
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->valid());
}

TEST(SaMapper, ValidMappingRespectsDependencies)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    dfg::Analysis an(w.dfg);
    Rng rng(3);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    SaMapper sa;
    auto m = sa.tryMap(makeContext(w.dfg, an, mrrg, rng, 5.0));
    ASSERT_TRUE(m.has_value());
    for (size_t e = 0; e < w.dfg.numEdges(); ++e) {
        int len = m->requiredLength(static_cast<dfg::EdgeId>(e));
        EXPECT_GE(len, 0);
        EXPECT_EQ(m->route(static_cast<dfg::EdgeId>(e)).size(),
                  static_cast<size_t>(len));
    }
}

TEST(SaMapper, FailsWhenOpUnsupported)
{
    // A 1x1 "CGRA" cannot host two concurrent ops at II 1.
    arch::CgraArch c(arch::baselineCgra(1, 1));
    dfg::DfgBuilder b("two");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    Rng rng(4);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 1);
    SaMapper sa;
    auto m = sa.tryMap(makeContext(g, an, mrrg, rng, 0.3));
    EXPECT_FALSE(m.has_value());
}

TEST(SaMapper, NamesReflectConfiguration)
{
    SaConfig plain;
    EXPECT_EQ(SaMapper(plain).name(), "SA");
    SaConfig sam;
    sam.movementMultiplier = 10;
    EXPECT_EQ(SaMapper(sam).name(), "SA-M");
    SaConfig prio;
    prio.routingPriority = true;
    EXPECT_EQ(SaMapper(prio).name(), "SA+prio");
}

TEST(SaMapper, DeterministicGivenSeed)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    dfg::Analysis an(w.dfg);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    SaMapper sa;
    Rng r1(7), r2(7);
    auto m1 = sa.tryMap(makeContext(w.dfg, an, mrrg, r1, 5.0));
    auto m2 = sa.tryMap(makeContext(w.dfg, an, mrrg, r2, 5.0));
    ASSERT_TRUE(m1.has_value());
    ASSERT_TRUE(m2.has_value());
    for (size_t v = 0; v < w.dfg.numNodes(); ++v) {
        EXPECT_EQ(m1->placement(static_cast<dfg::NodeId>(v)).pe,
                  m2->placement(static_cast<dfg::NodeId>(v)).pe);
        EXPECT_EQ(m1->placement(static_cast<dfg::NodeId>(v)).time,
                  m2->placement(static_cast<dfg::NodeId>(v)).time);
    }
}

TEST(SaMapperParallel, SameSeedAndThreadsReproducesSearchResult)
{
    // (seed, threads) pins the per-stream RNGs via Rng::split, so two runs
    // of the portfolio search must land on the same outcome and II.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    ThreadPool::setGlobalThreads(2);
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;
    opts.seed = 9;
    opts.threads = 2;
    arch::ArchContext ctx(c);
    auto r1 = searchMinIi(sa, w.dfg, ctx, opts);
    arch::ArchContext ctx2(c);
    auto r2 = searchMinIi(sa, w.dfg, ctx2, opts);
    EXPECT_EQ(r1.success, r2.success);
    if (r1.success && r2.success) {
        EXPECT_EQ(r1.ii, r2.ii);
    }
    EXPECT_GT(r1.attempts, 0);
    ThreadPool::setGlobalThreads(1);
}

TEST(SaMapperParallel, AnyThreadCountYieldsValidMappings)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    SaMapper sa;
    for (int threads : {1, 3}) {
        ThreadPool::setGlobalThreads(threads);
        SearchOptions opts;
        opts.perIiBudget = 2.0;
        opts.totalBudget = 8.0;
        opts.seed = 5;
        opts.threads = threads;
        arch::ArchContext ctx(c);
        auto r = searchMinIi(sa, w.dfg, ctx, opts);
        ASSERT_TRUE(r.success) << "threads=" << threads;
        ASSERT_TRUE(r.mapping.has_value());
        EXPECT_TRUE(r.mapping->valid()) << "threads=" << threads;
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(SaMapperParallel, ExternalStopAbortsSearch)
{
    // A pre-set stop flag must make the search return failure promptly.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("gemm");
    SaMapper sa;
    std::atomic<bool> stop{true};
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 20.0;
    opts.threads = 2;
    opts.stop = &stop;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(sa, w.dfg, ctx, opts);
    EXPECT_FALSE(r.success);
}

TEST(FeasibleWindow, TracksPlacedNeighbours)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c3");
    auto x = b.load("x");
    auto y = b.op(OpCode::Add, {x});
    auto z = b.op(OpCode::Mul, {y});
    (void)z;
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{2});
    m.placeNode(2, PeId{3}, AbsTime{6});
    TimeWindow w = feasibleWindow(m, an, 1);
    EXPECT_EQ(w.lo, 3);
    EXPECT_EQ(w.hi, 5);
    EXPECT_TRUE(w.valid());
}

TEST(FeasibleWindow, RecurrenceRelaxesBound)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("acc");
    auto x = b.load("x");
    auto acc = b.op(OpCode::Add, {x});
    b.recurrence(acc, acc); // self loop: ignored for the window
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    auto mrrg = std::make_shared<const arch::Mrrg>(c, 2);
    Mapping m(g, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    TimeWindow w = feasibleWindow(m, an, 1);
    EXPECT_EQ(w.lo, 1);
    EXPECT_TRUE(w.valid());
}

} // namespace
