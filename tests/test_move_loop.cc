/**
 * @file
 * Exactness of the annealing move loop's early reject (routeMove in
 * mappers/placement_util.hh): the intermediate cost bound never exceeds
 * the move's final delta, routeMove's verdicts, routes and RNG draws
 * equal routing every edge and testing afterwards, and fixed-II SA and
 * LISA jobs return the mappings recorded before the early reject existed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "core/labels.hh"
#include "core/lisa_mapper.hh"
#include "dfg/analysis.hh"
#include "dfg/builder.hh"
#include "dfg/generator.hh"
#include "mappers/placement_util.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/cost.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "support/fnv.hh"
#include "support/random.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::map;

/** The fig9 fabrics: the CGRAs of fig9a-c, e and f, and fig9g's systolic
 *  array. */
std::vector<std::unique_ptr<arch::Accelerator>>
fig9Fabrics()
{
    std::vector<std::unique_ptr<arch::Accelerator>> out;
    out.push_back(
        std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4)));
    out.push_back(
        std::make_unique<arch::CgraArch>(arch::baselineCgra(3, 3)));
    out.push_back(std::make_unique<arch::CgraArch>(arch::lessRoutingCgra()));
    out.push_back(std::make_unique<arch::CgraArch>(arch::lessMemoryCgra()));
    out.push_back(
        std::make_unique<arch::CgraArch>(arch::baselineCgra(8, 8)));
    out.push_back(std::make_unique<arch::SystolicArch>(5, 5));
    return out;
}

/** A random PE and a time near @p anchor (pinned to 0 on spatial-only
 *  fabrics): some edges then route, some are provably dead. */
std::pair<int, int>
randomSlot(const Mapping &m, int anchor, Rng &rng)
{
    const int pe = static_cast<int>(
        rng.index(static_cast<size_t>(m.mrrg().accel().numPes())));
    if (!m.mrrg().accel().temporalMapping())
        return {pe, 0};
    return {pe, std::clamp(anchor + rng.uniformInt(-2, 2), 0,
                           m.horizon() - 1)};
}

/** Place every node near its ASAP time, then route every edge. */
void
randomStart(Mapping &m, const dfg::Analysis &an, RouterWorkspace &ws,
            Rng &rng)
{
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(m.dfg().numNodes());
         ++v) {
        const auto [pe, time] = randomSlot(m, an.asap(v), rng);
        m.placeNode(v, PeId{pe}, AbsTime{time});
    }
    routeAll(m, RouterCosts{}, ws);
}

/** Open a move: rip up @p v's edges and re-place it at (@p pe, @p time). */
void
beginMove(Mapping &m, dfg::NodeId v, int pe, int time,
          std::vector<dfg::EdgeId> &affected)
{
    incidentEdges(m.dfg(), v, affected);
    m.beginTransaction();
    for (dfg::EdgeId e : affected)
        m.clearRoute(e);
    m.unplaceNode(v);
    m.placeNode(v, PeId{pe}, AbsTime{time});
}

/** Run @p moves random moves on @p trials random kernels of
 *  @p min_nodes to @p max_nodes nodes per fabric and II, calling
 *  @p check inside each open move. */
template <typename Check>
void
forEachRandomMove(uint64_t seed, int min_nodes, int max_nodes, int trials,
                  int moves, Check check)
{
    Rng rng(seed);
    dfg::GeneratorConfig gen;
    gen.minNodes = min_nodes;
    gen.maxNodes = max_nodes;
    for (const auto &accel : fig9Fabrics()) {
        const int max_ii = accel->temporalMapping() ? 3 : 1;
        for (int ii = 1; ii <= max_ii; ++ii) {
            auto mrrg = std::make_shared<const arch::Mrrg>(*accel, ii);
            RouterWorkspace ws;
            for (int t = 0; t < trials; ++t) {
                const dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
                const dfg::Analysis an(g);
                Mapping m(g, mrrg);
                randomStart(m, an, ws, rng);
                for (int k = 0; k < moves; ++k)
                    check(m, ws, rng);
            }
        }
    }
}

TEST(MoveBound, NeverAboveFinalDelta)
{
    // Route every live edge of random moves and record the bound before
    // each route: delta so far minus unroutedWeight per edge still to
    // route. The final delta must never fall below any of them, exactly
    // (cost terms are small integers times the weights).
    const CostParams params;
    const RouterCosts costs;
    std::vector<dfg::EdgeId> affected;
    std::vector<double> bounds;
    long checked = 0;
    long dead = 0;
    forEachRandomMove(17, 8, 16, 6, 40, [&](Mapping &m,
                                            RouterWorkspace &ws, Rng &rng) {
        const auto v = static_cast<dfg::NodeId>(rng.index(m.dfg().numNodes()));
        const auto [pe, time] =
            randomSlot(m, static_cast<int>(m.placement(v).time), rng);
        beginMove(m, v, pe, time, affected);
        std::vector<dfg::EdgeId> live;
        for (dfg::EdgeId e : affected) {
            if (provablyUnroutable(m, e, ws))
                ++dead;
            else
                live.push_back(e);
        }
        bounds.clear();
        for (size_t i = 0; i < live.size(); ++i) {
            bounds.push_back(mappingCostDelta(m, params) -
                             params.unroutedWeight *
                                 static_cast<double>(live.size() - i));
            if (const RouteResult *r = routeEdge(m, live[i], costs, ws))
                m.setRoute(live[i], r->path);
        }
        const double final_delta = mappingCostDelta(m, params);
        for (double b : bounds) {
            EXPECT_LE(b, final_delta);
            ++checked;
        }
        // Keep some moves so later ones start from varied states.
        if (rng.chance(0.5))
            m.commitTransaction();
        else
            m.rollbackTransaction();
    });
    EXPECT_GT(checked, 2000);
    EXPECT_GT(dead, 0);
}

TEST(MoveBound, RouteMoveMatchesRoutingEveryEdge)
{
    // Each random move runs twice from the same state and RNG: once
    // routing every rip-up edge and then testing, as the move loops did
    // before the early reject, and once through routeMove. The verdicts,
    // the RNG streams and the accepted routes must agree, under both
    // SA's and LISA's commit rules, and under cheaper penalty weights.
    const CostParams weights[] = {CostParams{},
                                  CostParams{1.0, 1.0, 2.0, 4.0},
                                  CostParams{1.0, 0.0, 0.0, 0.0}};
    const RouterCosts costs;
    const double temps[] = {0.5, 5.0, 50.0, 500.0};
    std::vector<dfg::EdgeId> affected;
    std::vector<std::vector<int>> routes;
    MapperStats stats;
    long moves = 0;
    long accepts = 0;
    auto check = [&](Mapping &m, RouterWorkspace &ws, Rng &rng) {
        const auto v = static_cast<dfg::NodeId>(rng.index(m.dfg().numNodes()));
        const auto [pe, time] =
            randomSlot(m, static_cast<int>(m.placement(v).time), rng);
        const CostParams &params = weights[rng.index(3)];
        const double temp = temps[rng.index(4)];
        const bool valid_commits = rng.chance(0.5);

        Rng full_rng = rng;
        beginMove(m, v, pe, time, affected);
        for (dfg::EdgeId e : affected)
            if (const RouteResult *r = routeEdge(m, e, costs, ws))
                m.setRoute(e, r->path);
        const double delta = mappingCostDelta(m, params);
        const bool full_accept =
            (valid_commits && m.valid()) || delta <= 0 ||
            full_rng.uniform() < std::exp(-delta / temp);
        routes.clear();
        for (dfg::EdgeId e : affected)
            routes.push_back(m.isRouted(e) ? m.route(e)
                                           : std::vector<int>{-1});
        m.rollbackTransaction();

        Rng move_rng = rng;
        beginMove(m, v, pe, time, affected);
        const std::vector<dfg::EdgeId> rip_up = affected;
        const MoveTest test{temp, valid_commits, params};
        const MoveVerdict verdict =
            routeMove(m, affected, test, ws, move_rng, stats);
        EXPECT_EQ(verdict.accept, full_accept) << "move " << moves;
        EXPECT_TRUE(move_rng.raw() == full_rng.raw()) << "move " << moves;
        ++moves;
        rng = move_rng;
        if (!verdict.accept) {
            m.rollbackTransaction();
            return;
        }
        ++accepts;
        EXPECT_EQ(verdict.delta, delta);
        for (size_t i = 0; i < rip_up.size(); ++i) {
            const dfg::EdgeId e = rip_up[i];
            EXPECT_EQ(m.isRouted(e) ? m.route(e) : std::vector<int>{-1},
                      routes[i]);
        }
        m.commitTransaction();
    };
    forEachRandomMove(29, 8, 16, 4, 40, check);
    forEachRandomMove(31, 3, 5, 8, 40, check);
    EXPECT_GT(accepts, 0);
    EXPECT_LT(accepts, moves);
    EXPECT_GT(stats.movesEarlyRejected, 0u);
    EXPECT_GT(stats.routeCallsSkipped, 0u);
}

TEST(MoveBound, LisaRuleKeepsAMoveThatEndsValid)
{
    // add(x, y) starts unroutable (scheduled with its inputs), then moves
    // five cycles later. With cost = route resources only, the move ends
    // valid with delta 8, and after the first edge the bound is 4 > 0.
    // SA's rule rejects it there; LISA's rule must route on and commit.
    dfg::DfgBuilder b("join");
    const auto x = b.load("x");
    const auto y = b.load("y");
    const auto sum = b.op(dfg::OpCode::Add, {x, y});
    const dfg::Dfg g = b.build();
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    Mapping m(g, std::make_shared<const arch::Mrrg>(accel, 4));
    m.placeNode(x, PeId{4}, AbsTime{0});
    m.placeNode(y, PeId{6}, AbsTime{0});
    m.placeNode(sum, PeId{5}, AbsTime{0});
    RouterWorkspace ws;
    routeAll(m, RouterCosts{}, ws);
    ASSERT_EQ(m.numRouted(), 0u);

    const CostParams resources_only{1.0, 0.0, 0.0, 0.0};
    const RouterCosts costs;
    std::vector<dfg::EdgeId> affected;
    beginMove(m, sum, 5, 5, affected);
    routeAll(m, costs, ws);
    ASSERT_TRUE(m.valid());
    ASSERT_EQ(mappingCostDelta(m, resources_only), 8.0);
    m.rollbackTransaction();

    for (bool valid_commits : {false, true}) {
        MapperStats stats;
        Rng rng(1);
        beginMove(m, sum, 5, 5, affected);
        const MoveTest test{0.5, valid_commits, resources_only};
        const MoveVerdict verdict =
            routeMove(m, affected, test, ws, rng, stats);
        EXPECT_EQ(verdict.accept, valid_commits);
        EXPECT_EQ(stats.movesEarlyRejected, valid_commits ? 0u : 1u);
        EXPECT_EQ(m.valid(), valid_commits);
        m.rollbackTransaction();
    }
}

/** One fixed-II tryMap job, seeded as searchMinIi seeds that II, on one
 *  attempt stream under a cap far above its run time. */
std::string
tryMapText(Mapper &mapper, const dfg::Dfg &dfg, const dfg::Analysis &an,
           arch::ArchContext &ctx, int ii)
{
    constexpr double kCapS = 120.0;
    std::atomic<long> attempts{0};
    MapContext mc{dfg,
                  an,
                  ctx.mrrgFor(ii),
                  kCapS,
                  Rng(11).split(static_cast<uint64_t>(ii)),
                  1,
                  nullptr,
                  nullptr,
                  &attempts,
                  nullptr,
                  &ctx,
                  nullptr,
                  ii,
                  0};
    auto m = mapper.tryMap(mc);
    return m ? verify::mappingToText(*m) : "";
}

uint64_t
textHash(const std::string &text)
{
    support::Fnv1a h;
    h.bytes(text.data(), text.size());
    return h.h;
}

TEST(MapperGolden, SaAndLisaFixedIiUnchanged)
{
    // FNV-1a hashes of the mapping texts these jobs returned before the
    // move loops rejected doomed moves early. The early reject is exact,
    // so every search must still take the same path to the same mapping.
    struct Job
    {
        const char *kernel;
        int ii;
        uint64_t sa;
        uint64_t lisa;
    };
    const Job jobs[] = {
        {"atax", 2, 0x49d9cdbf2f9258c5ull, 0xdc450ef0d51c2e49ull},
        {"bicg", 2, 0xc73e26fd5499ef5full, 0x998fbc3f39c7aa80ull},
        {"gemm", 1, 0xd96326b44692522eull, 0x945608cc8161f705ull},
        {"mvt", 2, 0xaa63f042a0f50388ull, 0xd02c30a2bb835033ull},
    };
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(accel);
    for (const Job &job : jobs) {
        auto w = workloads::workloadByName(job.kernel);
        const dfg::Analysis an(w.dfg);
        SaMapper sa;
        const std::string sa_text = tryMapText(sa, w.dfg, an, ctx, job.ii);
        ASSERT_FALSE(sa_text.empty()) << job.kernel;
        EXPECT_EQ(textHash(sa_text), job.sa) << "SA " << job.kernel;
        core::LisaMapper lisa(core::initialLabels(w.dfg, an));
        const std::string lisa_text =
            tryMapText(lisa, w.dfg, an, ctx, job.ii);
        ASSERT_FALSE(lisa_text.empty()) << job.kernel;
        EXPECT_EQ(textHash(lisa_text), job.lisa) << "LISA " << job.kernel;
    }
}

} // namespace
