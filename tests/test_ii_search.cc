/** @file Tests for MII computation and the II sweep driver. */

#include <gtest/gtest.h>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/builder.hh"
#include "mapping/ii_search.hh"
#include "mappers/sa_mapper.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::map;
using dfg::OpCode;

TEST(ResourceMii, TotalPressure)
{
    arch::CgraArch c(arch::baselineCgra(3, 3)); // 9 PEs
    auto w = workloads::workloadByName("symm"); // 23 nodes
    EXPECT_EQ(resourceMii(w.dfg, c), 3);        // ceil(23/9)
}

TEST(ResourceMii, PerOpClassPressure)
{
    // Left-column memory: 4 memory-capable PEs on a 4x4.
    arch::CgraArch c(arch::lessMemoryCgra());
    dfg::DfgBuilder b("mem");
    std::vector<dfg::NodeId> loads;
    for (int i = 0; i < 9; ++i)
        loads.push_back(b.load("l" + std::to_string(i)));
    auto sum = b.op(OpCode::Add, loads);
    (void)sum;
    dfg::Dfg g = b.build();
    // 10 nodes on 16 PEs -> 1, but 9 loads on 4 memory PEs -> 3.
    EXPECT_EQ(resourceMii(g, c), 3);
}

TEST(ResourceMii, UnsupportedOpIsMinusOne)
{
    arch::SystolicArch s(5, 5);
    auto w = workloads::workloadByName("trmm"); // has cmp/select
    EXPECT_EQ(resourceMii(w.dfg, s), -1);
}

TEST(MinimumIi, TakesRecurrenceIntoAccount)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("cyc");
    auto x = b.load("x");
    auto n1 = b.op(OpCode::Add, {x});
    auto n2 = b.op(OpCode::Add, {n1});
    auto n3 = b.op(OpCode::Add, {n2});
    b.recurrence(n3, n1);
    dfg::Dfg g = b.build();
    dfg::Analysis an(g);
    EXPECT_EQ(minimumIi(g, an, c), 3); // RecMII dominates ResMII 1
}

TEST(SearchMinIi, FindsLowIiForEasyKernel)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("doitgen");
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 1.0;
    opts.totalBudget = 5.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(sa, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_GE(r.ii, r.mii);
    EXPECT_LE(r.ii, 2);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_TRUE(r.mapping->valid());
    EXPECT_EQ(r.mapping->mrrg().ii(), r.ii);
}

TEST(SearchMinIi, FailsOnUnsupportedOps)
{
    arch::SystolicArch s(5, 5);
    auto trmm = workloads::polybenchKernel(
        "trmm", workloads::KernelVariant::Streaming);
    SaMapper sa;
    SearchOptions opts;
    opts.totalBudget = 1.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, trmm, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.ii, 0);
}

TEST(SearchMinIi, SpatialRejectsOversizedDfg)
{
    arch::SystolicArch s(3, 3); // 9 PEs
    auto w = workloads::polybenchKernel(
        "gemver", workloads::KernelVariant::Streaming); // 15 nodes
    SaMapper sa;
    SearchOptions opts;
    opts.totalBudget = 1.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, w, ctx, opts);
    EXPECT_FALSE(r.success);
}

TEST(SearchMinIi, RespectsTotalBudget)
{
    arch::CgraArch c(arch::baselineCgra(3, 3));
    auto w = workloads::unrolledSuite(2, {"syr2k"})[0];
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 0.1;
    opts.totalBudget = 0.3;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(sa, w.dfg, ctx, opts);
    EXPECT_LT(r.seconds, 2.0);
}

/** Probe mapper: records every attempt's time budget, never maps. */
struct RecordingMapper : Mapper
{
    std::vector<double> budgets;
    std::string name() const override { return "probe"; }
    std::optional<Mapping>
    tryMap(const MapContext &ctx) override
    {
        budgets.push_back(ctx.timeBudget);
        return std::nullopt;
    }
};

TEST(SearchMinIi, SpatialZeroTotalBudgetSkipsMapper)
{
    // Regression: the spatial branch used to ignore totalBudget entirely
    // and hand the mapper the full perIiBudget even when the sweep had no
    // time left. An exhausted sweep must not launch an attempt at all.
    arch::SystolicArch s(3, 5);
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    RecordingMapper probe;
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 0.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_TRUE(probe.budgets.empty());
    EXPECT_EQ(r.attempts, 0);
}

TEST(SearchMinIi, SpatialHonorsStopFlag)
{
    // Regression: the spatial branch used to launch its single attempt
    // without consulting options.stop, so a cancelled portfolio still
    // burned a full perIiBudget on spatial accelerators.
    arch::SystolicArch s(3, 5);
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    RecordingMapper probe;
    std::atomic<bool> stop{true};
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 5.0;
    opts.stop = &stop;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_TRUE(probe.budgets.empty());
    EXPECT_EQ(r.attempts, 0);
}

TEST(SearchMinIi, AttemptBudgetsClampedToRemainingTime)
{
    // Every attempt budget must satisfy 0 < budget <= min(perIiBudget,
    // remaining total). The old temporal loop read the clock twice
    // (cadence check, then budget computation), leaving a window where
    // the attempt budget went negative.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    RecordingMapper probe;
    SearchOptions opts;
    opts.perIiBudget = 0.05;
    opts.totalBudget = 0.2;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    ASSERT_FALSE(probe.budgets.empty());
    for (double budget : probe.budgets) {
        EXPECT_GT(budget, 0.0);
        EXPECT_LE(budget, opts.perIiBudget);
    }
}

TEST(SearchMinIi, SpatialUnmappableReportsMiiZero)
{
    // Regression: the spatial branch set result.mii = 1 before checking
    // feasibility, so a kernel with ops the fabric cannot execute at all
    // (resourceMii == -1) reported a bogus lower bound of 1. The temporal
    // branch has always left mii at 0 in that case; spatial must match.
    arch::SystolicArch s(5, 5);
    auto trmm = workloads::polybenchKernel(
        "trmm", workloads::KernelVariant::Streaming); // has cmp/select
    SaMapper sa;
    SearchOptions opts;
    opts.totalBudget = 1.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, trmm, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.mii, 0);
}

TEST(SearchMinIi, SpatialOversizedDfgReportsMiiZero)
{
    arch::SystolicArch s(3, 3); // 9 PEs
    auto w = workloads::polybenchKernel(
        "gemver", workloads::KernelVariant::Streaming); // 15 nodes
    SaMapper sa;
    SearchOptions opts;
    opts.totalBudget = 1.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, w, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.mii, 0);
}

TEST(SearchMinIi, SpatialSecondsIncludeVerification)
{
    // Regression: the spatial branch stamped result.seconds before the
    // final verifier ran, so the reported compilation time excluded
    // verification — unlike the temporal branch, which stamps after its
    // sweep. Post-fix, total time bounds the verifier time on success.
    arch::SystolicArch s(5, 5);
    auto gemm = workloads::polybenchKernel(
        "gemm", workloads::KernelVariant::Streaming);
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 4.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, gemm, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.verified);
    EXPECT_GE(r.seconds, r.verifySeconds);
}

TEST(SearchMinIi, SpatialIncumbentDominationSkipsAttempt)
{
    // A portfolio sibling already achieved II 1 at a better rank: the
    // spatial single shot can never win, so it must not launch at all.
    arch::SystolicArch s(3, 5);
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    RecordingMapper probe;
    IiIncumbent incumbent;
    incumbent.offer(1, 0);
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 5.0;
    opts.incumbent = &incumbent;
    opts.memberRank = 1;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_TRUE(probe.budgets.empty());
    EXPECT_EQ(r.cancelledAtIi, 1);
    EXPECT_EQ(r.stats.incumbentCancels, 1u);
}

/** Probe mapper: a portfolio sibling reaches II 1 at a better rank
 *  while this attempt runs, and the attempt then fails. */
struct OvertakenMapper : Mapper
{
    IiIncumbent *incumbent = nullptr;
    int calls = 0;
    std::string name() const override { return "overtaken"; }
    std::optional<Mapping>
    tryMap(const MapContext &) override
    {
        ++calls;
        incumbent->offer(1, 0);
        return std::nullopt;
    }
};

TEST(SearchMinIi, SpatialAttemptDominatedMidRunIsCancelled)
{
    // Spatial fabrics run the same II loop as temporal ones, so an
    // attempt cut short by the incumbent is attributed to II 1.
    arch::SystolicArch s(3, 5);
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    IiIncumbent incumbent;
    OvertakenMapper probe;
    probe.incumbent = &incumbent;
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 5.0;
    opts.incumbent = &incumbent;
    opts.memberRank = 1;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(probe.calls, 1);
    EXPECT_EQ(r.mii, 1);
    EXPECT_EQ(r.cancelledAtIi, 1);
    EXPECT_EQ(r.stats.incumbentCancels, 1u);
}

TEST(SearchMinIi, TemporalIncumbentBoundsSweep)
{
    // Incumbent holds (II 2, rank 0); this sweep races at rank 1. Its
    // attempt at II 1 could still beat the incumbent, so it runs; II 2
    // and above are dominated (same II, worse rank) and abandoned.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    dfg::DfgBuilder b("c2");
    auto x = b.load("x");
    b.op(OpCode::Add, {x});
    dfg::Dfg g = b.build();
    RecordingMapper probe;
    IiIncumbent incumbent;
    incumbent.offer(2, 0);
    SearchOptions opts;
    opts.perIiBudget = 0.05;
    opts.totalBudget = 5.0;
    opts.incumbent = &incumbent;
    opts.memberRank = 1;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(probe, g, ctx, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(probe.budgets.size(), 1u);
    EXPECT_EQ(r.cancelledAtIi, 2);
    EXPECT_EQ(r.stats.incumbentCancels, 1u);
}

TEST(BudgetClass, BucketsOnTotalBudgetOnly)
{
    // The one documented rule (see map::BudgetClass): Fast <= 2 s total,
    // Full <= 60 s total, Custom beyond; perIiBudget never buckets.
    SearchOptions opts;
    opts.perIiBudget = 0.01;
    opts.totalBudget = 2.0;
    EXPECT_EQ(budgetClassOf(opts), BudgetClass::Fast);
    EXPECT_EQ(budgetClassKey(opts), "fast");

    opts.perIiBudget = 59.0; // irrelevant to the class
    opts.totalBudget = 60.0;
    EXPECT_EQ(budgetClassOf(opts), BudgetClass::Full);
    EXPECT_EQ(budgetClassKey(opts), "full");

    opts.totalBudget = 60.5;
    EXPECT_EQ(budgetClassOf(opts), BudgetClass::Custom);
    // Custom keys carry both budgets so distinct tiers never collide.
    EXPECT_EQ(budgetClassKey(opts).rfind("custom:", 0), 0u);
    SearchOptions other = opts;
    other.totalBudget = 61.0;
    EXPECT_NE(budgetClassKey(opts), budgetClassKey(other));

    EXPECT_STREQ(budgetClassName(BudgetClass::Fast), "fast");
    EXPECT_STREQ(budgetClassName(BudgetClass::Full), "full");
    EXPECT_STREQ(budgetClassName(BudgetClass::Custom), "custom");
}

TEST(BudgetClass, StampedIntoSearchResult)
{
    // Both success and failure paths report the class the sweep ran under.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("doitgen");
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 1.0;
    opts.totalBudget = 2.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(sa, w.dfg, ctx, opts);
    EXPECT_EQ(r.budgetClass, BudgetClass::Fast);

    arch::SystolicArch s(5, 5);
    auto trmm = workloads::polybenchKernel(
        "trmm", workloads::KernelVariant::Streaming);
    opts.totalBudget = 1.0;
    arch::ArchContext ctx2(s);
    auto fail = searchMinIi(sa, trmm, ctx2, opts);
    EXPECT_FALSE(fail.success);
    EXPECT_EQ(fail.budgetClass, BudgetClass::Fast);
}

TEST(SearchMinIi, MappedSystolicKernelHasIiOne)
{
    arch::SystolicArch s(5, 5);
    auto gemm = workloads::polybenchKernel(
        "gemm", workloads::KernelVariant::Streaming);
    SaMapper sa;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 4.0;
    arch::ArchContext ctx(s);
    auto r = searchMinIi(sa, gemm, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.ii, 1);
    EXPECT_TRUE(r.mapping->valid());
}

} // namespace
