/**
 * @file
 * Initiation-interval search driver.
 *
 * Computes the minimum II bound (resource MII, per-op-class MII, recurrence
 * MII), then sweeps II upward invoking a Mapper until it succeeds or the
 * configuration-depth limit / time budget is exhausted. This mirrors the
 * paper's compilation flow: "the compiler starts with target II equal to
 * MII and increments by one if it cannot map".
 */

#ifndef LISA_MAPPING_II_SEARCH_HH
#define LISA_MAPPING_II_SEARCH_HH

#include <atomic>
#include <optional>
#include <string>

#include "mappers/mapper.hh"

namespace lisa::map {

/**
 * Cache-relevant budget bucket of a SearchOptions.
 *
 * The serve daemon keys its result cache on (canonical DFG hash, fabric
 * fingerprint, budget class), and the bench harness labels its JSON rows
 * with the same value, so the bucketing rule lives here and nowhere
 * else:
 *
 *  - Fast:   totalBudget <= 2.0 s  (smoke/interactive tier)
 *  - Full:   totalBudget <= 60.0 s (the default production sweep)
 *  - Custom: anything longer — keyed by its exact budgets, because two
 *    different oversized budgets can legitimately reach different IIs.
 *
 * Only the *total* budget buckets the class: perIiBudget shapes how the
 * sweep spends its time, not how much it gets, and folding it into the
 * bucket would split cache entries that converge to the same answer.
 */
enum class BudgetClass : uint8_t
{
    Fast,
    Full,
    Custom,
};

struct SearchOptions;

/** Classify @p options per the rule documented on BudgetClass. */
BudgetClass budgetClassOf(const SearchOptions &options);

/** Stable lowercase name: "fast" / "full" / "custom". */
const char *budgetClassName(BudgetClass c);

/**
 * Cache-key string for the budget component: the class name for Fast and
 * Full, "custom:<perIiBudget>:<totalBudget>" for Custom so distinct
 * oversized budgets never alias.
 */
std::string budgetClassKey(const SearchOptions &options);

/** Options for one full compilation (II sweep). */
struct SearchOptions
{
    /** Wall-clock budget per II attempt, seconds. */
    double perIiBudget = 3.0;
    /** Wall-clock budget for the whole sweep, seconds. */
    double totalBudget = 60.0;
    /** RNG seed for the mapper's stochastic choices. Each II attempt
     *  gets its own deterministic split of this seed, and each of the
     *  `threads` concurrent streams splits again, so results for a given
     *  (seed, threads) pair are reproducible. */
    uint64_t seed = 1;
    /** Concurrent seed streams per II attempt (1 = serial). */
    int threads = 1;
    /** Optional external cancellation flag. */
    std::atomic<bool> *stop = nullptr;
    /** Shared best-II incumbent of an enclosing cross-mapper portfolio
     *  (null outside a race). The sweep offers every success to it and
     *  abandons any II attempt the incumbent dominates — another member
     *  achieved a lower II, or the same II with a better (lower)
     *  memberRank. Dominated attempts can never be the portfolio winner,
     *  so cancelling them keeps the race deterministic. */
    IiIncumbent *incumbent = nullptr;
    /** This sweep's tie-break rank within the portfolio member set. */
    int memberRank = 0;
};

/** Outcome of one full compilation. */
struct SearchResult
{
    bool success = false;
    /** Achieved II (0 when mapping failed). */
    int ii = 0;
    /** Lower bound the sweep started from. */
    int mii = 0;
    /** Total wall-clock compilation time, seconds. */
    double seconds = 0.0;
    /** Wall-clock cost of the final-answer invariant verification. */
    double verifySeconds = 0.0;
    /** True once the returned mapping passed the full verifier. */
    bool verified = false;
    /** Annealing attempts (restart count) summed over all streams. */
    long attempts = 0;
    /** II at which an enclosing portfolio incumbent cancelled this sweep
     *  (0 = the sweep ran to its own completion). */
    int cancelledAtIi = 0;
    /** Budget bucket of the options this sweep ran under (see
     *  BudgetClass for the rule) — the third serve cache-key component. */
    BudgetClass budgetClass = BudgetClass::Full;
    /** Observability counters merged over all streams and II attempts. */
    MapperStats stats;
    /** The valid mapping (present iff success). */
    std::optional<Mapping> mapping;
};

/** Resource-constrained minimum II, including per-op-class limits. */
int resourceMii(const dfg::Dfg &dfg, const arch::Accelerator &accel);

/** max(resourceMii, recurrence MII). */
int minimumIi(const dfg::Dfg &dfg, const dfg::Analysis &analysis,
              const arch::Accelerator &accel);

/**
 * Run the II sweep against a shared ArchContext: MRRGs and oracle tables
 * come from (and stay in) @p context, so repeated sweeps over the same
 * accelerator — other kernels, other mappers, later II attempts — reuse
 * them instead of re-deriving per call. Context reuse is counted into
 * SearchResult::stats (router.contextHits / contextMisses). Spatial-only
 * accelerators get a single attempt at II == 1 and report II 1 on
 * success.
 */
SearchResult searchMinIi(Mapper &mapper, const dfg::Dfg &dfg,
                         arch::ArchContext &context,
                         const SearchOptions &options);

} // namespace lisa::map

#endif // LISA_MAPPING_II_SEARCH_HH
