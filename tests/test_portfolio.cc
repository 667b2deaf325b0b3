/**
 * @file
 * Tests for the cross-mapper racing portfolio: the IiIncumbent's
 * lexicographic dominance rule, winner selection and attribution,
 * cross-member cancellation through the shared incumbent, and the
 * determinism contract — a fixed (seed, threads, member set) must
 * reproduce the winner, its II, and the winning mapping bit-for-bit
 * (pinned via the verifier-text serialization).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/portfolio.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::map;

TEST(IiIncumbent, EmptyDominatesNothing)
{
    IiIncumbent inc;
    EXPECT_FALSE(inc.dominates(1, 0));
    EXPECT_FALSE(inc.dominates(1000, 1000));
}

TEST(IiIncumbent, LexicographicDominance)
{
    IiIncumbent inc;
    inc.offer(3, 2);
    EXPECT_EQ(inc.bound(), 3);
    EXPECT_EQ(inc.holderRank(), 2);
    // Any higher II is dominated regardless of rank.
    EXPECT_TRUE(inc.dominates(4, 0));
    // Same II: only worse (higher) ranks are dominated.
    EXPECT_TRUE(inc.dominates(3, 3));
    EXPECT_FALSE(inc.dominates(3, 2));
    EXPECT_FALSE(inc.dominates(3, 1));
    // A strictly lower II is never dominated.
    EXPECT_FALSE(inc.dominates(2, 100));
}

TEST(IiIncumbent, OfferIsMonotonicMin)
{
    IiIncumbent inc;
    inc.offer(3, 2);
    inc.offer(3, 5); // lex-larger: ignored
    EXPECT_EQ(inc.holderRank(), 2);
    inc.offer(3, 1); // same II, better rank: tightens
    EXPECT_EQ(inc.holderRank(), 1);
    inc.offer(2, 7); // lower II: tightens
    EXPECT_EQ(inc.bound(), 2);
    EXPECT_EQ(inc.holderRank(), 7);
    inc.offer(4, 0); // worse: ignored
    EXPECT_EQ(inc.bound(), 2);
}

SearchOptions
quickOptions(uint64_t seed)
{
    SearchOptions o;
    o.perIiBudget = 2.0;
    o.totalBudget = 8.0;
    o.seed = seed;
    return o;
}

TEST(PortfolioSearch, EmptyPortfolioFailsCleanly)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(c);
    PortfolioSearch race(ctx);
    auto w = workloads::workloadByName("doitgen");
    auto r = race.run(w.dfg);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.winnerRank, -1);
    EXPECT_TRUE(r.members.empty());
}

TEST(PortfolioSearch, WinsWithValidMappingAndAttribution)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(c);
    auto w = workloads::workloadByName("doitgen");
    PortfolioSearch race(ctx);
    race.addMember("SA", std::make_unique<SaMapper>(), quickOptions(3));
    race.addMember("ILP*", std::make_unique<ExactMapper>(), quickOptions(3));
    ASSERT_EQ(race.numMembers(), 2u);
    auto r = race.run(w.dfg);
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(r.mapping.has_value());
    EXPECT_TRUE(r.mapping->valid());
    EXPECT_GE(r.ii, r.mii);
    ASSERT_EQ(r.members.size(), 2u);
    EXPECT_EQ(r.members[0].name, "SA");
    EXPECT_EQ(r.members[0].rank, 0);
    EXPECT_EQ(r.members[1].name, "ILP*");
    EXPECT_EQ(r.members[1].rank, 1);
    ASSERT_GE(r.winnerRank, 0);
    ASSERT_LT(static_cast<size_t>(r.winnerRank), r.members.size());
    const MemberOutcome &w_out =
        r.members[static_cast<size_t>(r.winnerRank)];
    EXPECT_EQ(w_out.name, r.winner);
    EXPECT_TRUE(w_out.result.success);
    EXPECT_EQ(w_out.result.ii, r.ii);
    // The winning mapping was moved out of the member's own result.
    EXPECT_FALSE(w_out.result.mapping.has_value());
    // No member that succeeded did so at a lower II, and II ties went to
    // the lower rank — the winner is the lex-min achieved (ii, rank).
    for (const auto &m : r.members) {
        if (!m.result.success)
            continue;
        EXPECT_GE(m.result.ii, r.ii);
        if (m.result.ii == r.ii) {
            EXPECT_GE(m.rank, r.winnerRank);
        }
    }
}

/** Mapper that never maps: each attempt stalls until its budget runs
 *  out or the context reads as cancelled — the shape of a member stuck
 *  on a hard II while a sibling succeeds. */
struct StallMapper : Mapper
{
    std::string name() const override { return "stall"; }
    std::optional<Mapping>
    tryMap(const MapContext &ctx) override
    {
        Stopwatch sw;
        while (sw.seconds() < ctx.timeBudget && !ctx.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::nullopt;
    }
};

TEST(PortfolioSearch, IncumbentCancelsDominatedMember)
{
    // Member 0 (SA) maps the kernel; member 1 can never map and would
    // burn 2 s per II for the full 20-II sweep. Once SA's success enters
    // the incumbent, member 1's sweep is dominated from that II upward,
    // so it must be cut short — whether it started after SA finished
    // (serial pool) or was mid-attempt (parallel pool).
    arch::CgraArch c(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(c);
    auto w = workloads::workloadByName("doitgen");
    ThreadPool::setGlobalThreads(2);
    PortfolioSearch race(ctx);
    race.addMember("SA", std::make_unique<SaMapper>(), quickOptions(3));
    SearchOptions slow;
    slow.perIiBudget = 2.0;
    slow.totalBudget = 40.0;
    race.addMember("stall", std::make_unique<StallMapper>(), slow);
    auto r = race.run(w.dfg);
    ThreadPool::setGlobalThreads(1);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.winner, "SA");
    EXPECT_EQ(r.winnerRank, 0);
    const SearchResult &loser = r.members[1].result;
    EXPECT_FALSE(loser.success);
    EXPECT_GE(loser.cancelledAtIi, 1);
    EXPECT_GE(loser.stats.incumbentCancels, 1u);
    // Cut short: at worst one in-flight 2 s attempt below the winning II
    // completes, never the 40 s sweep.
    EXPECT_LT(loser.seconds, 10.0);
    EXPECT_LT(r.seconds, 10.0);
}

TEST(PortfolioDeterminism, SameSeedThreadsMembersReproduceWinnerBitwise)
{
    // The tentpole's reproducibility contract: a fixed (seed, threads,
    // member set) yields the same winner, the same II, and a bit-identical
    // winning mapping across runs, regardless of OS scheduling. Pinned by
    // serializing the winning mapping through the verifier's text writer.
    arch::CgraArch c(arch::baselineCgra(4, 4));
    arch::ArchContext ctx(c);
    auto w = workloads::workloadByName("doitgen");
    ThreadPool::setGlobalThreads(3);

    std::vector<std::string> winners;
    std::vector<int> iis;
    std::vector<std::string> texts;
    for (int run = 0; run < 3; ++run) {
        PortfolioSearch race(ctx);
        race.addMember("SA", std::make_unique<SaMapper>(),
                       quickOptions(11));
        race.addMember("ILP*", std::make_unique<ExactMapper>(),
                       quickOptions(11));
        auto r = race.run(w.dfg);
        ASSERT_TRUE(r.success) << "run " << run;
        ASSERT_TRUE(r.mapping.has_value());
        winners.push_back(r.winner);
        iis.push_back(r.ii);
        texts.push_back(verify::mappingToText(*r.mapping));
    }
    ThreadPool::setGlobalThreads(1);

    EXPECT_EQ(winners[1], winners[0]);
    EXPECT_EQ(winners[2], winners[0]);
    EXPECT_EQ(iis[1], iis[0]);
    EXPECT_EQ(iis[2], iis[0]);
    EXPECT_EQ(texts[1], texts[0]);
    EXPECT_EQ(texts[2], texts[0]);
    EXPECT_FALSE(texts[0].empty());
}

} // namespace
