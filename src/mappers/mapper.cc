#include "mappers/mapper.hh"

#include <algorithm>
#include <vector>

#include "mappers/placement_util.hh"
#include "support/thread_pool.hh"

namespace lisa::map {

TimeWindow
feasibleWindow(const Mapping &mapping, const dfg::Analysis &analysis,
               dfg::NodeId v)
{
    if (!mapping.mrrg().accel().temporalMapping())
        return TimeWindow{0, 0};

    const auto &dfg = mapping.dfg();
    const int ii = mapping.mrrg().ii();
    TimeWindow w{analysis.asap(v), mapping.horizon() - 1};

    for (dfg::EdgeId e : dfg.inEdges(v)) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.src) || edge.src == v)
            continue;
        int bound = mapping.placement(edge.src).time + 1 -
                    edge.iterDistance * ii;
        w.lo = std::max(w.lo, bound);
    }
    for (dfg::EdgeId e : dfg.outEdges(v)) {
        const dfg::Edge &edge = dfg.edge(e);
        if (!mapping.isPlaced(edge.dst) || edge.dst == v)
            continue;
        int bound = mapping.placement(edge.dst).time - 1 +
                    edge.iterDistance * ii;
        w.hi = std::min(w.hi, bound);
    }
    w.lo = std::max(w.lo, 0);
    w.hi = std::min(w.hi, mapping.horizon() - 1);
    return w;
}

void
incidentEdges(const dfg::Dfg &dfg, dfg::NodeId v,
              std::vector<dfg::EdgeId> &out)
{
    out.clear();
    for (dfg::EdgeId e : dfg.inEdges(v))
        out.push_back(e);
    for (dfg::EdgeId e : dfg.outEdges(v)) {
        // Self-loops appear in both lists; keep one copy.
        if (dfg.edge(e).src != dfg.edge(e).dst)
            out.push_back(e);
    }
}

void
sortByRoutingPriority(const Mapping &mapping, std::vector<dfg::EdgeId> &edges)
{
    std::stable_sort(edges.begin(), edges.end(),
                     [&](dfg::EdgeId a, dfg::EdgeId b) {
                         return mapping.requiredLength(a) >
                                mapping.requiredLength(b);
                     });
}

std::optional<Mapping>
runAttemptPortfolio(
    const MapContext &ctx,
    const std::function<std::optional<Mapping>(const MapContext &)> &attempt)
{
    const int streams = std::max(1, ctx.parallelism);
    if (streams == 1)
        return attempt(ctx);

    std::atomic<bool> firstSuccess{false};
    std::vector<std::optional<Mapping>> results(
        static_cast<size_t>(streams));
    // Each stream gets a private stats sink; merged after the join so the
    // streams never contend on the caller's sink.
    std::vector<MapperStats> streamStats(static_cast<size_t>(streams));

    ThreadPool::global().parallelFor(
        static_cast<size_t>(streams), [&](size_t k) {
            // relaxed: advisory first-success latch; a stale read
            // only lets a doomed stream run one more attempt.
            if (firstSuccess.load(std::memory_order_relaxed) ||
                ctx.cancelled())
                return;
            MapContext sub{ctx.dfg,          ctx.analysis,
                           ctx.mrrg,         ctx.timeBudget,
                           ctx.rng.split(k), 1,
                           ctx.stop,         &firstSuccess,
                           ctx.attempts,     &streamStats[k],
                           ctx.archCtx,      ctx.incumbent,
                           ctx.attemptIi,    ctx.memberRank};
            auto m = attempt(sub);
            if (m) {
                results[k] = std::move(m);
                // relaxed: results[k] is read only after parallelFor's
                // join, which is the synchronization point; the flag
                // itself carries no payload.
                firstSuccess.store(true, std::memory_order_relaxed);
            }
        });

    if (ctx.stats) {
        for (const MapperStats &s : streamStats)
            ctx.stats->merge(s);
    }

    // Lowest stream index wins, so near-simultaneous successes resolve
    // the same way on every run.
    for (auto &r : results)
        if (r)
            return std::move(r);
    return std::nullopt;
}

} // namespace lisa::map
