/**
 * @file
 * Tests for the shared arch-artifact cache (arch::ArchContext) and its
 * OracleStore: layer-rotation exactness against independent reference
 * searches, MRRG/store reuse, and teardown after the accelerator died.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;

/** Independent reference: reverse BFS over movePreds from the feeder set
 *  of FU(pe, time) — the definition the store's canonical-build-plus-
 *  rotation scheme must reproduce exactly. */
std::vector<int32_t>
referenceHops(const arch::Mrrg &mrrg, int pe, int time)
{
    std::vector<int32_t> dist(static_cast<size_t>(mrrg.numResources()), -1);
    std::vector<int> queue;
    for (int g : mrrg.feeders(PeId{pe}, AbsTime{time})) {
        if (dist[static_cast<size_t>(g)] < 0) {
            dist[static_cast<size_t>(g)] = 0;
            queue.push_back(g);
        }
    }
    for (size_t head = 0; head < queue.size(); ++head) {
        const int n = queue[head];
        const int32_t next = dist[static_cast<size_t>(n)] + 1;
        for (int m : mrrg.movePreds(n)) {
            if (dist[static_cast<size_t>(m)] < 0) {
                dist[static_cast<size_t>(m)] = next;
                queue.push_back(m);
            }
        }
    }
    return dist;
}

/** Independent reference: Bellman-Ford-style relaxation to a fixpoint for
 *  the spatial min-cost table. */
std::vector<double>
referenceCosts(const arch::Mrrg &mrrg, std::span<const double> base, int pe)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(static_cast<size_t>(mrrg.numResources()), inf);
    for (int g : mrrg.feeders(PeId{pe}, AbsTime{0}))
        dist[static_cast<size_t>(g)] = 0.0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int n = 0; n < mrrg.numResources(); ++n) {
            if (dist[static_cast<size_t>(n)] == inf)
                continue;
            const double cand =
                dist[static_cast<size_t>(n)] + base[static_cast<size_t>(n)];
            for (int m : mrrg.movePreds(n)) {
                if (cand < dist[static_cast<size_t>(m)]) {
                    dist[static_cast<size_t>(m)] = cand;
                    changed = true;
                }
            }
        }
    }
    return dist;
}

TEST(OracleStore, RotatedHopTablesMatchDirectBfs)
{
    arch::CgraArch accel(arch::baselineCgra(3, 3));
    arch::ArchContext ctx(accel);
    const int ii = 3;
    auto mrrg = ctx.mrrgFor(ii);
    auto store = ctx.oracleStoreFor(mrrg);
    uint64_t builds = 0, misses = 0, hits = 0;
    for (int pe = 0; pe < accel.numPes(); ++pe) {
        for (int layer = 0; layer < ii; ++layer) {
            const auto &tab =
                store->ensureHopTable(layer, pe, builds, misses, hits);
            const auto ref = referenceHops(*mrrg, pe, layer);
            ASSERT_EQ(tab.size(), ref.size());
            for (size_t i = 0; i < ref.size(); ++i) {
                ASSERT_EQ(tab[i], ref[i])
                    << "pe=" << pe << " layer=" << layer << " res=" << i;
            }
        }
    }
    // One canonical BFS per PE; every other layer is a rotation.
    EXPECT_EQ(builds, static_cast<uint64_t>(accel.numPes()));
    EXPECT_EQ(misses, static_cast<uint64_t>(accel.numPes() * ii));
}

TEST(OracleStore, SpatialCostTablesMatchReferenceRelaxation)
{
    arch::SystolicArch accel(3, 4);
    arch::ArchContext ctx(accel);
    auto mrrg = ctx.mrrgFor(1);
    auto store = ctx.oracleStoreFor(mrrg);
    uint64_t builds = 0, misses = 0, hits = 0;
    for (int pe = 0; pe < accel.numPes(); ++pe) {
        const auto &tab = store->ensureCostTable(pe, builds, misses, hits);
        const auto ref = referenceCosts(*mrrg, store->baseCosts(), pe);
        ASSERT_EQ(tab.size(), ref.size());
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_DOUBLE_EQ(tab[i], ref[i]) << "pe=" << pe << " res=" << i;
    }
    EXPECT_EQ(builds, static_cast<uint64_t>(accel.numPes()));
}

TEST(ArchContext, MrrgAndStoreAreSharedAcrossRequests)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);

    bool hit = true;
    auto a = ctx.mrrgFor(2, &hit);
    EXPECT_FALSE(hit);
    auto b = ctx.mrrgFor(2, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());
    auto c = ctx.mrrgFor(3, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(a.get(), c.get());

    auto s1 = ctx.oracleStoreFor(a, &hit);
    EXPECT_FALSE(hit);
    auto s2 = ctx.oracleStoreFor(b, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(s1.get(), s2.get());
    // Another II is another graph, so another store.
    auto s3 = ctx.oracleStoreFor(c, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(s1.get(), s3.get());
}

TEST(ArchContext, RepeatSearchDerivesNoNewTables)
{
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    auto w = workloads::workloadByName("doitgen");
    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;

    map::SaMapper first;
    auto r1 = map::searchMinIi(first, w.dfg, ctx, opts);
    ASSERT_TRUE(r1.success);
    EXPECT_GT(r1.stats.router.contextMisses, 0u);

    // Exhaust every hop table the first search could have left unbuilt, so
    // the assertion below is independent of wall-clock-dependent coverage.
    uint64_t builds = 0, misses = 0, hits = 0;
    for (int ii = 1; ii <= r1.ii; ++ii) {
        auto store = ctx.oracleStoreFor(ctx.mrrgFor(ii));
        for (int pe = 0; pe < accel.numPes(); ++pe)
            for (int layer = 0; layer < ii; ++layer)
                (void)store->ensureHopTable(layer, pe, builds, misses, hits);
    }

    map::SaMapper second;
    auto r2 = map::searchMinIi(second, w.dfg, ctx, opts);
    ASSERT_TRUE(r2.success);
    EXPECT_EQ(r2.stats.router.oracleBuilds, 0u);
    EXPECT_GT(r2.stats.router.contextHits, 0u);
    // The merged counters surface through the stats JSON schema.
    const std::string json = r2.stats.toJson();
    EXPECT_NE(json.find("\"contextHits\""), std::string::npos);
    EXPECT_NE(json.find("\"contextMisses\""), std::string::npos);
}

TEST(ArchContext, DestroysAfterAcceleratorDied)
{
    // The bench harness keeps contexts in a function-local static
    // registry, so they destruct during static teardown, after a
    // main()-local accelerator is gone. The destructor must not touch the
    // accelerator (the ASan job checks this).
    auto accel = std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
    std::optional<arch::ArchContext> ctx;
    ctx.emplace(*accel);
    auto store = ctx->oracleStoreFor(ctx->mrrgFor(2));
    uint64_t builds = 0, misses = 0, hits = 0;
    (void)store->ensureHopTable(0, 3, builds, misses, hits);
    EXPECT_EQ(builds, 1u);
    store.reset();
    accel.reset(); // accelerator dies first, as in the harness
    ctx.reset();
}

} // namespace
