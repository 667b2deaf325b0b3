/**
 * @file
 * Cross-mapper racing portfolio.
 *
 * Algorithm portfolios are the standard answer to the "no single best
 * mapper" problem: ILP-style exact search wins on tiny kernels, annealing
 * on mid-size ones, LISA's label guidance on the rest — but which member
 * wins is only known after the fact. PortfolioSearch races every
 * registered member concurrently over the process thread pool against the
 * same DFG and ArchContext, coordinated by one shared IiIncumbent: the
 * moment any member achieves II = k, every other member's sweep abandons
 * any attempt the achieved (ii, rank) pair dominates, so the portfolio's
 * worst-case latency collapses toward the best member's time instead of
 * the sum of all time budgets.
 *
 * Determinism contract: for a fixed (seed, threads, member set) the
 * winning member, its II, and the returned mapping are identical across
 * runs. Three mechanisms compose to guarantee it:
 *  - every member runs its own sweep with inner threads = 1 and a seed
 *    remixed from (its SearchOptions seed, its rank), so each member's
 *    attempt at a given II is a fixed deterministic computation;
 *  - the incumbent's lexicographic (ii, rank) dominance rule cancels an
 *    attempt only when it can no longer become the lex-min achieved pair,
 *    so the eventual lex-min member is never cut short on its way there
 *    regardless of how the OS schedules the race;
 *  - the winner is selected after the join as the lex-min (ii, rank) over
 *    the members' final results, never by arrival order.
 * Per-member seconds and cancellation points remain timing-dependent —
 * only the *answer* is reproducible, which is what tests pin down via the
 * verifier-text serialization of the winning mapping.
 *
 * Concurrency contract: the only mutable state shared between racing
 * members is the IiIncumbent (one packed 64-bit atomic; its full
 * acquire/release ordering contract is documented on the class in
 * mappers/mapper.hh) and the internally synchronized ArchContext.
 * Everything else a member touches — its sweep state, Rng stream,
 * MapperStats sink — is private to its task; per-member results are
 * read only after the batch join, so no further synchronization is
 * needed (DESIGN.md section 13).
 */

#ifndef LISA_MAPPING_PORTFOLIO_HH
#define LISA_MAPPING_PORTFOLIO_HH

#include <memory>
#include <string>
#include <vector>

#include "mapping/ii_search.hh"

namespace lisa::map {

/** One member's full outcome within a race. */
struct MemberOutcome
{
    /** Display name ("LISA", "SA", "ILP*"). */
    std::string name;
    /** Tie-break priority: the member's index in registration order. */
    int rank = 0;
    /** The member's own sweep result. For the winning member the mapping
     *  has been moved out into PortfolioResult::mapping; everything else
     *  (ii, seconds, attempts, cancelledAtIi, stats) is intact. */
    SearchResult result;
};

/** Outcome of one portfolio race. */
struct PortfolioResult
{
    /** True when any member mapped the kernel. */
    bool success = false;
    /** The winning member's achieved II (0 when all members failed). */
    int ii = 0;
    /** Lower bound the sweeps started from. */
    int mii = 0;
    /** Wall-clock of the whole race (all members), seconds. */
    double seconds = 0.0;
    /** Winning member's name and rank (rank -1 when all failed). */
    std::string winner;
    int winnerRank = -1;
    /** Mapping attempts summed over every member. */
    long attempts = 0;
    /** Observability counters merged over every member, in rank order. */
    MapperStats stats;
    /** Per-member attribution, in rank order. */
    std::vector<MemberOutcome> members;
    /** The winning mapping (present iff success). */
    std::optional<Mapping> mapping;
};

/**
 * Races registered mappers against one DFG with a shared best-II
 * incumbent. Members share the ArchContext handed to the constructor, so
 * MRRGs and distance-oracle tables are derived once per (accelerator, II)
 * no matter how many members touch them.
 */
class PortfolioSearch
{
  public:
    /** @p context must outlive the search. */
    explicit PortfolioSearch(arch::ArchContext &context);
    ~PortfolioSearch();

    /**
     * Register a member. Registration order is the member's rank: on an
     * II tie the earliest-registered member wins, and its successes
     * dominate (cancel) same-II attempts of later-registered members.
     * The member's SearchOptions carry its budgets and base seed;
     * `threads` is forced to 1 and `incumbent`/`memberRank` are
     * overwritten by run() — the race parallelizes across members, not
     * within them, keeping each member bit-reproducible.
     */
    void addMember(std::string name, std::unique_ptr<Mapper> mapper,
                   SearchOptions options);

    size_t numMembers() const { return members.size(); }

    /** Race all members; never call concurrently on one instance. */
    PortfolioResult run(const dfg::Dfg &dfg);

  private:
    struct Member
    {
        std::string name;
        std::unique_ptr<Mapper> mapper;
        SearchOptions options;
    };

    arch::ArchContext &context;
    std::vector<Member> members;
};

} // namespace lisa::map

#endif // LISA_MAPPING_PORTFOLIO_HH
