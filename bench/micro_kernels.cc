/**
 * @file
 * google-benchmark microbenchmarks of the hot primitives: DFG analysis,
 * DFG text parsing and canonicalization (the lisa-serve hit path before
 * the cache probe), attribute generation, MRRG construction, single-edge
 * routing, router churn (the SA/LISA inner loop), the router's per-call
 * clock pair, and one GNN forward pass.
 *
 * Compiled twice: as `micro_kernels` (everything) and as `router_bench`
 * (LISA_ROUTER_BENCH_ONLY defined — just the router-churn benchmarks,
 * reporting routes/s plus the pqPops/relaxations/prune counters for the
 * optimized kernels and the reference router from tests/).
 */

#include <benchmark/benchmark.h>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/analysis.hh"
#include "dfg/canonical.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "dfg_text_reference.hh"
#include "gnn/attributes.hh"
#include "gnn/schedule_order_net.hh"
#include "mapping/router.hh"
#include "mapping/router_workspace.hh"
#include "router_reference.hh"
#include "support/stopwatch.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;

dfg::Dfg
randomGraph(int nodes, uint64_t seed)
{
    Rng rng(seed);
    dfg::GeneratorConfig cfg;
    cfg.minNodes = nodes;
    cfg.maxNodes = nodes;
    return dfg::generateRandomDfg(cfg, rng);
}

/** Range value 0 = optimized kernels (A* + oracle pruning), 1 = the
 *  reference kernels. */
map::RouteFn
routerFor(int64_t reference)
{
    return reference != 0 ? &map::routeEdgeReference : &map::routeEdge;
}

/** One place-and-route-everything round: the mapper inner loop without
 *  the annealer. Returns the number of successfully routed edges. */
uint64_t
routeChurnRound(const dfg::Dfg &g, std::shared_ptr<const arch::Mrrg> mrrg,
                uint64_t seed, map::RouteFn route, map::RouterWorkspace &ws)
{
    map::Mapping m(g, mrrg);
    Rng rng(seed);
    const bool temporal = mrrg->accel().temporalMapping();
    const int pes = mrrg->accel().numPes();
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(g.numNodes()); ++v) {
        const int pe = static_cast<int>(rng.index(static_cast<size_t>(pes)));
        const int time =
            temporal
                ? static_cast<int>(rng.index(static_cast<size_t>(m.horizon())))
                : 0;
        m.placeNode(v, PeId{pe}, AbsTime{time});
    }
    uint64_t routed = 0;
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(g.numEdges()); ++e) {
        const map::RouteResult *r = route(m, e, map::RouterCosts{}, ws);
        if (r) {
            m.setRoute(e, r->path);
            ++routed;
        }
    }
    return routed;
}

/** Publish routes/s plus the router's search-effort counters. */
void
reportRouterCounters(benchmark::State &state, const map::RouterWorkspace &ws,
                     uint64_t routed)
{
    using benchmark::Counter;
    state.counters["routes/s"] =
        Counter(static_cast<double>(routed), Counter::kIsRate);
    state.counters["routeCalls/s"] =
        Counter(static_cast<double>(ws.counters.routeEdgeCalls),
                Counter::kIsRate);
    state.counters["pqPops"] =
        Counter(static_cast<double>(ws.counters.pqPops), Counter::kIsRate);
    state.counters["relaxations"] = Counter(
        static_cast<double>(ws.counters.relaxations), Counter::kIsRate);
    state.counters["heuristicPrunes"] = Counter(
        static_cast<double>(ws.counters.heuristicPrunes), Counter::kIsRate);
    state.counters["dpCellsSkipped"] = Counter(
        static_cast<double>(ws.counters.dpCellsSkipped), Counter::kIsRate);
}

/** Router churn on a temporal CGRA. Range: II, then routerFor's
 *  optimized/reference selector. */
void
BM_RouterChurnTemporal(benchmark::State &state)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg =
        std::make_shared<const arch::Mrrg>(c, static_cast<int>(state.range(0)));
    dfg::Dfg g = randomGraph(16, 7);
    const map::RouteFn route = routerFor(state.range(1));
    map::RouterWorkspace ws;
    uint64_t seed = 1, routed = 0;
    for (auto _ : state)
        routed += routeChurnRound(g, mrrg, seed++, route, ws);
    reportRouterCounters(state, ws, routed);
}
BENCHMARK(BM_RouterChurnTemporal)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1});

/** Router churn on a spatial systolic array (same ranges, II pinned). */
void
BM_RouterChurnSpatial(benchmark::State &state)
{
    arch::SystolicArch s(4, 6);
    auto mrrg = std::make_shared<const arch::Mrrg>(s, 1);
    dfg::Dfg g = randomGraph(16, 9);
    const map::RouteFn route = routerFor(state.range(0));
    map::RouterWorkspace ws;
    uint64_t seed = 1, routed = 0;
    for (auto _ : state)
        routed += routeChurnRound(g, mrrg, seed++, route, ws);
    reportRouterCounters(state, ws, routed);
}
BENCHMARK(BM_RouterChurnSpatial)->Arg(0)->Arg(1);

#ifndef LISA_ROUTER_BENCH_ONLY

void
BM_Analysis(benchmark::State &state)
{
    dfg::Dfg g = randomGraph(static_cast<int>(state.range(0)), 1);
    for (auto _ : state) {
        dfg::Analysis an(g);
        benchmark::DoNotOptimize(an.criticalPathLength());
    }
}
BENCHMARK(BM_Analysis)->Arg(16)->Arg(32)->Arg(64);

/** Range value 0: the 12 fig9a (PolyBench) kernels; 1: one load
 *  feeding 511 stores, a symmetric fan that spends the canonicalizer's
 *  whole work budget. */
std::vector<dfg::Dfg>
serveGraphs(int64_t set)
{
    std::vector<dfg::Dfg> out;
    if (set == 0) {
        for (const workloads::Workload &w : workloads::polybenchSuite())
            out.push_back(w.dfg);
        return out;
    }
    dfg::Dfg fan("fan");
    const dfg::NodeId load = fan.addNode(dfg::OpCode::Load);
    for (int i = 0; i < 511; ++i)
        fan.addEdge(load, fan.addNode(dfg::OpCode::Store));
    out.push_back(std::move(fan));
    return out;
}

/** Parse every graph of serveGraphs(range 0) from its text; range 1
 *  selects dfg::fromText (0) or the reference istream reader (1).
 *  Reports graphs/s. */
void
BM_DfgFromText(benchmark::State &state)
{
    std::vector<std::string> texts;
    for (const dfg::Dfg &g : serveGraphs(state.range(0)))
        texts.push_back(dfg::toText(g));
    const bool reference = state.range(1) != 0;
    for (auto _ : state)
        for (const std::string &text : texts) {
            auto g = reference ? dfg::fromTextReference(text)
                               : dfg::fromText(text);
            benchmark::DoNotOptimize(g);
        }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(texts.size()));
}
BENCHMARK(BM_DfgFromText)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

/** Canonicalize every graph of serveGraphs(range 0); reports graphs/s. */
void
BM_Canonicalize(benchmark::State &state)
{
    const std::vector<dfg::Dfg> graphs = serveGraphs(state.range(0));
    for (auto _ : state)
        for (const dfg::Dfg &g : graphs)
            benchmark::DoNotOptimize(dfg::canonicalize(g).hash);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(graphs.size()));
}
BENCHMARK(BM_Canonicalize)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_AttributesGenerator(benchmark::State &state)
{
    dfg::Dfg g = randomGraph(static_cast<int>(state.range(0)), 2);
    dfg::Analysis an(g);
    for (auto _ : state) {
        auto attrs = gnn::computeAttributes(g, an);
        benchmark::DoNotOptimize(attrs.nodeAttrs.rows());
    }
}
BENCHMARK(BM_AttributesGenerator)->Arg(16)->Arg(32);

void
BM_MrrgBuild(benchmark::State &state)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    for (auto _ : state) {
        arch::Mrrg m(c, static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(m.numResources());
    }
}
BENCHMARK(BM_MrrgBuild)->Arg(2)->Arg(8)->Arg(24);

void
BM_RouteOneEdge(benchmark::State &state)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto mrrg =
        std::make_shared<const arch::Mrrg>(c, static_cast<int>(state.range(0)));
    dfg::Dfg g;
    dfg::NodeId a = g.addNode(dfg::OpCode::Load, "a");
    dfg::NodeId b = g.addNode(dfg::OpCode::Add, "b");
    dfg::EdgeId edge = g.addEdge(a, b);
    map::Mapping m(g, mrrg);
    // Producer and a far consumer: corner to corner, 4 cycles later.
    m.placeNode(a, PeId{0}, AbsTime{0});
    m.placeNode(b, PeId{15}, AbsTime{4});
    map::RouterWorkspace ws;
    for (auto _ : state) {
        const map::RouteResult *r =
            map::routeEdge(m, edge, map::RouterCosts{}, ws);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_RouteOneEdge)->Arg(2)->Arg(8);

/** The two steady_clock reads every routeEdge call pays for its
 *  routeSeconds counter: a Stopwatch constructed, then read once. Divide
 *  by a route call's time (BM_RouterChurnTemporal's routeCalls/s, or
 *  route_cpu_s / route_calls of a traced perfbench run) for the share of
 *  routing time spent timing itself. */
void
BM_StopwatchPair(benchmark::State &state)
{
    for (auto _ : state) {
        Stopwatch timer;
        benchmark::DoNotOptimize(timer.seconds());
    }
}
BENCHMARK(BM_StopwatchPair);

void
BM_GnnForward(benchmark::State &state)
{
    dfg::Dfg g = randomGraph(static_cast<int>(state.range(0)), 3);
    dfg::Analysis an(g);
    auto attrs = gnn::computeAttributes(g, an);
    Rng rng(4);
    gnn::ScheduleOrderNet net(rng);
    for (auto _ : state) {
        auto out = net.forward(attrs);
        benchmark::DoNotOptimize(out.rows());
    }
}
BENCHMARK(BM_GnnForward)->Arg(16)->Arg(32);

#endif // LISA_ROUTER_BENCH_ONLY

} // namespace
