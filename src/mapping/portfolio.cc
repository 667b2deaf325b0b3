#include "mapping/portfolio.hh"

#include <algorithm>

#include "support/random.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"

namespace lisa::map {

PortfolioSearch::PortfolioSearch(arch::ArchContext &ctx) : context(ctx) {}

PortfolioSearch::~PortfolioSearch() = default;

void
PortfolioSearch::addMember(std::string name, std::unique_ptr<Mapper> mapper,
                           SearchOptions options)
{
    members.push_back(
        Member{std::move(name), std::move(mapper), options});
}

PortfolioResult
PortfolioSearch::run(const dfg::Dfg &dfg)
{
    PortfolioResult out;
    if (members.empty())
        return out;

    IiIncumbent incumbent;
    const size_t n = members.size();
    std::vector<SearchResult> results(n);
    Stopwatch race;

    // Each member is one task: its whole II sweep, wired to the shared
    // incumbent. Rank doubles as the seed-remix stream so two members
    // registered with identical options still draw independent streams.
    ThreadPool::global().parallelFor(n, [&](size_t i) {
        const int rank = static_cast<int>(i);
        SearchOptions opts = members[i].options;
        opts.seed = Rng::splitSeed(opts.seed, i);
        opts.threads = 1; // parallelism lives across members, not inside
        opts.incumbent = &incumbent;
        opts.memberRank = rank;
        results[i] = searchMinIi(*members[i].mapper, dfg, context, opts);
    });

    out.seconds = race.seconds();

    // Winner = lexicographically smallest achieved (ii, rank): exactly
    // the pair the incumbent converged to, re-derived from the joined
    // results so selection never depends on arrival order.
    int winner = -1;
    for (size_t i = 0; i < n; ++i) {
        const SearchResult &r = results[i];
        if (!r.success)
            continue;
        if (winner < 0 || r.ii < results[static_cast<size_t>(winner)].ii)
            winner = static_cast<int>(i);
    }

    for (size_t i = 0; i < n; ++i) {
        out.attempts += results[i].attempts;
        out.stats.merge(results[i].stats);
        out.mii = std::max(out.mii, results[i].mii);
    }
    if (winner >= 0) {
        SearchResult &w = results[static_cast<size_t>(winner)];
        out.success = true;
        out.ii = w.ii;
        out.winner = members[static_cast<size_t>(winner)].name;
        out.winnerRank = winner;
        out.mapping = std::move(w.mapping);
        w.mapping.reset();
    }
    out.members.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        out.members.push_back(MemberOutcome{members[i].name,
                                            static_cast<int>(i),
                                            std::move(results[i])});
    }
    return out;
}

} // namespace lisa::map
