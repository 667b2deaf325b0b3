/** @file Unit tests for the modulo routing resource graph. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/cgra.hh"
#include "arch/mrrg.hh"
#include "arch/systolic.hh"

namespace {

using namespace lisa;
using namespace lisa::arch;

TEST(Mrrg, ResourceCounts)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 3);
    // Per layer: 16 FUs + 16*4 registers.
    EXPECT_EQ(m.perLayerCount(), 16 + 64);
    EXPECT_EQ(m.numResources(), 3 * 80);
    EXPECT_EQ(m.ii(), 3);
}

TEST(Mrrg, IdsRoundTrip)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 2);
    for (int t = 0; t < 2; ++t) {
        for (int pe = 0; pe < 16; ++pe) {
            int fu = m.fuId(PeId{pe}, AbsTime{t});
            EXPECT_EQ(m.resource(fu).kind, ResourceKind::Fu);
            EXPECT_EQ(m.resource(fu).pe, pe);
            EXPECT_EQ(m.resource(fu).time, t);
            EXPECT_EQ(m.layerOfResource(fu), t);
            for (int k = 0; k < 4; ++k) {
                int rg = m.regId(PeId{pe}, k, AbsTime{t});
                EXPECT_EQ(m.resource(rg).kind, ResourceKind::Reg);
                EXPECT_EQ(m.resource(rg).pe, pe);
                EXPECT_EQ(m.resource(rg).reg, k);
                EXPECT_EQ(m.resource(rg).time, t);
            }
        }
    }
}

TEST(Mrrg, TimeWrapsModuloIi)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 2);
    EXPECT_EQ(m.fuId(PeId{3}, AbsTime{0}), m.fuId(PeId{3}, AbsTime{2}));
    EXPECT_EQ(m.fuId(PeId{3}, AbsTime{1}), m.fuId(PeId{3}, AbsTime{5}));
    EXPECT_EQ(m.regId(PeId{3}, 1, AbsTime{0}), m.regId(PeId{3}, 1, AbsTime{4}));
}

TEST(Mrrg, MoveTargetsAdvanceOneLayer)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 3);
    int fu = m.fuId(PeId{5}, AbsTime{0});
    for (int next : m.moveTargets(fu)) {
        EXPECT_EQ(m.layerOfResource(next), 1);
        const Resource &r = m.resource(next);
        if (r.kind == ResourceKind::Fu) {
            // Route-through on a linked PE.
            const auto &links = c.linkTargets(5);
            EXPECT_NE(std::find(links.begin(), links.end(), r.pe),
                      links.end());
        } else {
            // Register hold stays inside the PE.
            EXPECT_EQ(r.pe, 5);
        }
    }
    // 4 neighbours + 4 registers.
    EXPECT_EQ(m.moveTargets(fu).size(), 8u);
}

TEST(Mrrg, FeedersComeFromPreviousLayer)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 3);
    for (int res : m.feeders(PeId{5}, AbsTime{2})) {
        EXPECT_EQ(m.layerOfResource(res), 1);
        const Resource &r = m.resource(res);
        bool same_pe = r.pe == 5;
        const auto &sources = c.linkSources(5);
        bool neighbour = std::find(sources.begin(), sources.end(), r.pe) !=
                         sources.end();
        EXPECT_TRUE(same_pe || neighbour);
    }
    // Own PE + 4 neighbours, each with 1 FU + 4 regs.
    EXPECT_EQ(m.feeders(PeId{5}, AbsTime{2}).size(), 5u * 5u);
}

TEST(Mrrg, CanFeedMatchesFeederList)
{
    CgraArch c(baselineCgra(4, 4));
    Mrrg m(c, 2);
    int own_prev = m.fuId(PeId{5}, AbsTime{0});
    EXPECT_TRUE(m.canFeed(RrId{own_prev}, PeId{5}, AbsTime{1}));
    int far = m.fuId(PeId{15}, AbsTime{0});
    EXPECT_FALSE(m.canFeed(RrId{far}, PeId{0}, AbsTime{1}));
}

TEST(Mrrg, SystolicSingleLayerNoRegs)
{
    SystolicArch s(5, 5);
    Mrrg m(s, 1);
    EXPECT_EQ(m.perLayerCount(), 25);
    EXPECT_EQ(m.numResources(), 25);
    // Moves stay in layer 0 and follow the E/N/S links.
    int fu = m.fuId(PeId{6}, AbsTime{0});
    for (int next : m.moveTargets(fu)) {
        EXPECT_EQ(m.layerOfResource(next), 0);
        EXPECT_EQ(m.resource(next).kind, ResourceKind::Fu);
    }
    // Feeders of a middle PE: linked sources only (not itself).
    for (int res : m.feeders(PeId{6}, AbsTime{0})) {
        EXPECT_NE(m.resource(res).pe, 6);
    }
}

/** The reverse CSR (movePreds) must be the exact transpose of the
 *  forward CSR (moveTargets), and the kind cache must match resources. */
void
expectCsrConsistent(const Mrrg &m)
{
    const int total = m.numResources();
    // kindOf is a flat cache of resource(id).kind.
    ASSERT_EQ(m.resourceKinds().size(), static_cast<size_t>(total));
    for (int id = 0; id < total; ++id)
        EXPECT_EQ(m.kindOf(id), m.resource(id).kind);

    // Every forward edge appears exactly once in the reverse CSR and
    // vice versa (counted both ways so neither side can have extras).
    size_t fwd = 0, rev = 0;
    for (int id = 0; id < total; ++id) {
        for (int next : m.moveTargets(id)) {
            ++fwd;
            const auto preds = m.movePreds(next);
            EXPECT_EQ(std::count(preds.begin(), preds.end(), id), 1)
                << "edge " << id << " -> " << next;
        }
        for (int prev : m.movePreds(id)) {
            ++rev;
            const auto nexts = m.moveTargets(prev);
            EXPECT_EQ(std::count(nexts.begin(), nexts.end(), id), 1)
                << "edge " << prev << " -> " << id;
        }
    }
    EXPECT_EQ(fwd, rev);
}

TEST(Mrrg, CsrTransposeConsistentTemporal)
{
    CgraArch c(baselineCgra(3, 3));
    for (int ii : {1, 2, 3})
        expectCsrConsistent(Mrrg(c, ii));
}

TEST(Mrrg, CsrTransposeConsistentSpatial)
{
    SystolicArch s(3, 5);
    expectCsrConsistent(Mrrg(s, 1));
}

/** layerMoves(idx) must list, for every layer, moveTargets(layer * P +
 *  idx) reduced to in-layer indices, in the same order. */
void
expectLayerMovesMatch(const Mrrg &m)
{
    const int per_layer = m.perLayerCount();
    for (int layer = 0; layer < m.ii(); ++layer) {
        for (int idx = 0; idx < per_layer; ++idx) {
            std::vector<int> want;
            for (int next : m.moveTargets(layer * per_layer + idx))
                want.push_back(m.indexInLayer(next));
            const auto row = m.layerMoves(idx);
            EXPECT_EQ(std::vector<int>(row.begin(), row.end()), want)
                << "ii " << m.ii() << " layer " << layer << " idx " << idx;
        }
    }
}

TEST(Mrrg, LayerMovesMatchMoveTargets)
{
    CgraArch c4(baselineCgra(4, 4));
    for (int ii = 1; ii <= 4; ++ii)
        expectLayerMovesMatch(Mrrg(c4, ii));
    CgraArch one_reg(lessRoutingCgra());
    for (int ii : {1, 3})
        expectLayerMovesMatch(Mrrg(one_reg, ii));
    CgraArch c3(baselineCgra(3, 3));
    expectLayerMovesMatch(Mrrg(c3, 2));
    CgraArch c8(baselineCgra(8, 8));
    expectLayerMovesMatch(Mrrg(c8, 3));
    SystolicArch sys(3, 5);
    expectLayerMovesMatch(Mrrg(sys, 1));
    // The table is sized once, not per layer.
    Mrrg m(c4, 4);
    size_t edges = 0;
    for (int idx = 0; idx < m.perLayerCount(); ++idx)
        edges += m.layerMoves(idx).size();
    size_t layer0 = 0;
    for (int id = 0; id < m.perLayerCount(); ++id)
        layer0 += m.moveTargets(id).size();
    EXPECT_EQ(edges, layer0);
}

TEST(Mrrg, UidsAreUniquePerInstance)
{
    // The distance oracle keys its caches on the uid, so two MRRGs built
    // back-to-back (possibly at the same address) must never share one.
    CgraArch c(baselineCgra(3, 3));
    Mrrg a(c, 2);
    Mrrg b(c, 2);
    EXPECT_NE(a.uid(), b.uid());
}

TEST(Mrrg, RejectsBadIi)
{
    CgraArch c(baselineCgra(4, 4));
    EXPECT_EXIT(Mrrg(c, 0), ::testing::ExitedWithCode(1), "II");
    EXPECT_EXIT(Mrrg(c, 25), ::testing::ExitedWithCode(1), "II");
    SystolicArch s(5, 5);
    EXPECT_EXIT(Mrrg(s, 2), ::testing::ExitedWithCode(1), "II");
}

class MrrgIiSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MrrgIiSweep, LayerStructureHolds)
{
    CgraArch c(baselineCgra(3, 3));
    const int ii = GetParam();
    Mrrg m(c, ii);
    EXPECT_EQ(m.numResources(), ii * m.perLayerCount());
    for (int id = 0; id < m.numResources(); ++id) {
        EXPECT_EQ(m.layerOfResource(id), m.resource(id).time);
        for (int next : m.moveTargets(id))
            EXPECT_EQ(m.layerOfResource(next),
                      (m.resource(id).time + 1) % ii);
    }
}

INSTANTIATE_TEST_SUITE_P(Iis, MrrgIiSweep, ::testing::Values(1, 2, 4, 8, 24));

} // namespace
