#include "mappers/mapper.hh"

#include <algorithm>
#include <vector>

#include "support/thread_pool.hh"

namespace lisa::map {

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
