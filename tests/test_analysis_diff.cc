/**
 * @file
 * Differential tests of dfg::Analysis (flat all-pairs tables, one reused
 * BFS buffer, same-level pairs from ancestor and descendant lists)
 * against the reference implementation in tests/analysis_reference.hh:
 * every accessor, on every in-tree suite and on random graphs. Also pins
 * Mapping's schedule horizon, which takes the critical path from
 * dfg::criticalPathLength instead of a whole Analysis.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis_reference.hh"
#include "arch/cgra.hh"
#include "arch/mrrg.hh"
#include "dfg/analysis.hh"
#include "dfg/generator.hh"
#include "mapping/mapping.hh"
#include "support/random.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::dfg;

/** Every kernel the workloads registry ships. */
std::vector<Dfg>
inTreeKernels()
{
    std::vector<Dfg> out;
    for (const auto &suite :
         {workloads::polybenchSuite(), workloads::unrolledSuite(2),
          workloads::unrolledSuite(4), workloads::unrolledSuite(8),
          workloads::streamingSuite()})
        for (const workloads::Workload &w : suite)
            out.push_back(w.dfg);
    return out;
}

/** Random graphs across the generator's size range, with and without
 *  recurrences. */
std::vector<Dfg>
randomGraphs()
{
    std::vector<Dfg> out;
    Rng rng(2027);
    for (int i = 0; i < 200; ++i) {
        GeneratorConfig cfg;
        cfg.minNodes = 2 + i % 10;
        cfg.maxNodes = cfg.minNodes + 4 + i % 40;
        cfg.maxExtraInputs = i % 4;
        cfg.recurrenceProb = (i % 3) * 0.45;
        out.push_back(generateRandomDfg(cfg, rng));
    }
    return out;
}

void
expectSamePairs(const std::vector<SameLevelPair> &got,
                const std::vector<SameLevelPair> &want,
                const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
        const SameLevelPair &g = got[i];
        const SameLevelPair &w = want[i];
        EXPECT_EQ(g.a, w.a) << label << " pair " << i;
        EXPECT_EQ(g.b, w.b) << label << " pair " << i;
        EXPECT_EQ(g.ancestor, w.ancestor) << label << " pair " << i;
        EXPECT_EQ(g.ancDistA, w.ancDistA) << label << " pair " << i;
        EXPECT_EQ(g.ancDistB, w.ancDistB) << label << " pair " << i;
        EXPECT_EQ(g.descendant, w.descendant) << label << " pair " << i;
        EXPECT_EQ(g.descDistA, w.descDistA) << label << " pair " << i;
        EXPECT_EQ(g.descDistB, w.descDistB) << label << " pair " << i;
    }
}

/** Every accessor of both implementations on @p g, over every node,
 *  node pair and level. */
void
expectSameAnalysis(const Dfg &g, const std::string &label)
{
    const Analysis an(g);
    const AnalysisReference ref(g);
    const auto n = static_cast<NodeId>(g.numNodes());

    ASSERT_EQ(an.criticalPathLength(), ref.criticalPathLength()) << label;
    EXPECT_EQ(criticalPathLength(g), ref.criticalPathLength()) << label;
    EXPECT_EQ(an.recMii(), ref.recMii()) << label;
    EXPECT_EQ(an.topoOrder(), ref.topoOrder()) << label;
    expectSamePairs(an.sameLevelPairs(), ref.sameLevelPairs(), label);
    for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(an.asap(v), ref.asap(v)) << label << " node " << v;
        EXPECT_EQ(an.alap(v), ref.alap(v)) << label << " node " << v;
        EXPECT_EQ(an.ancestorCount(v), ref.ancestorCount(v))
            << label << " node " << v;
        EXPECT_EQ(an.descendantCount(v), ref.descendantCount(v))
            << label << " node " << v;
    }
    int mismatches = 0;
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
            mismatches += an.isAncestor(u, v) != ref.isAncestor(u, v);
            mismatches += an.shortestDist(u, v) != ref.shortestDist(u, v);
            mismatches += an.longestDist(u, v) != ref.longestDist(u, v);
            mismatches += an.nodesOnPath(u, v) != ref.nodesOnPath(u, v);
        }
    }
    EXPECT_EQ(mismatches, 0) << label << ": pairwise accessors differ";
    const int levels = ref.criticalPathLength();
    for (int lo = -2; lo <= levels + 1; ++lo) {
        EXPECT_EQ(an.nodesAtLevel(lo), ref.nodesAtLevel(lo))
            << label << " level " << lo;
        for (int hi = -2; hi <= levels + 1; ++hi)
            EXPECT_EQ(an.nodesBetweenLevels(lo, hi),
                      ref.nodesBetweenLevels(lo, hi))
                << label << " levels " << lo << ", " << hi;
    }
}

TEST(AnalysisDiff, InTreeKernelsMatchReference)
{
    for (const Dfg &g : inTreeKernels())
        expectSameAnalysis(g, g.name());
}

TEST(AnalysisDiff, RandomGraphsMatchReference)
{
    int i = 0;
    for (const Dfg &g : randomGraphs())
        expectSameAnalysis(g, "random " + std::to_string(i++));
}

TEST(AnalysisDiff, MappingHorizonIsCriticalPathPlusTwoIiPlusFour)
{
    arch::CgraArch cgra(arch::baselineCgra(4, 4));
    std::vector<std::shared_ptr<const arch::Mrrg>> mrrgs;
    for (int ii = 1; ii <= 4; ++ii)
        mrrgs.push_back(std::make_shared<const arch::Mrrg>(cgra, ii));
    std::vector<Dfg> graphs = inTreeKernels();
    for (Dfg &g : randomGraphs())
        graphs.push_back(std::move(g));
    for (const Dfg &g : graphs) {
        const int crit = Analysis(g).criticalPathLength();
        for (const auto &mrrg : mrrgs) {
            const map::Mapping m(g, mrrg);
            EXPECT_EQ(m.horizon(), crit + 2 * mrrg->ii() + 4)
                << g.name() << " at II " << mrrg->ii();
        }
    }
}

} // namespace
