/**
 * @file
 * Mapper observability counters.
 *
 * Each annealing attempt stream accumulates one MapperStats privately (no
 * synchronization in the hot loop) and merges it into the enclosing
 * context's stats when the stream finishes; runAttemptPortfolio merges
 * stream stats after the portfolio joins, and the II sweep accumulates
 * across II attempts into SearchResult::stats. Merging is element-wise
 * addition, so merges of disjoint streams are associative and
 * commutative — the merged totals do not depend on the merge order.
 *
 * Concurrency contract: a MapperStats is single-owner — no two threads
 * ever write one concurrently, which is why the struct carries no mutex
 * or atomics and needs no capability annotations. Every merge happens
 * strictly after the pool join (or batch wait) that retires the stream
 * being merged, so the join's synchronization is what makes the
 * stream's counters visible to the merging thread (DESIGN.md
 * section 13).
 *
 * Enabled unconditionally: every counter is a plain per-thread increment,
 * and the wall-clock phases cost two steady_clock reads per phase entry,
 * which is noise next to a single routed edge.
 */

#ifndef LISA_MAPPERS_MAPPER_STATS_HH
#define LISA_MAPPERS_MAPPER_STATS_HH

#include <cstdint>
#include <string>

#include "mapping/router_workspace.hh"

namespace lisa::map {

/** Counters of one mapping attempt (or a merge of several streams). */
struct MapperStats
{
    /** Router-level counters (routeEdge calls, pops, relaxations...). */
    RouterCounters router;

    /** Speculative moves committed (Metropolis accepts). */
    uint64_t movesCommitted = 0;
    /** Speculative moves rolled back (Metropolis rejects). */
    uint64_t movesRolledBack = 0;
    /** The subset of movesRolledBack rejected before every edge was
     *  routed: the Metropolis test was already certain to fail. */
    uint64_t movesEarlyRejected = 0;
    /** routeEdge calls the move loops did not make: rip-up edges that
     *  provablyUnroutable() marked dead, plus the edges an early reject
     *  left unrouted. */
    uint64_t routeCallsSkipped = 0;
    /** Annealing restarts (fresh initial mappings), incl. the first. */
    uint64_t restarts = 0;
    /** II attempts abandoned because another portfolio member's success
     *  dominated them (cross-mapper incumbent cancellation). */
    uint64_t incumbentCancels = 0;

    /** @{ Per-phase wall-clock, seconds. initSeconds covers initial
     *  placement + first routing pass of each restart; moveSeconds covers
     *  the movement loops; router.routeSeconds (time inside routeEdge) is
     *  a subset of both and is tracked separately by the workspace.
     *  mapSeconds is the stream's total attempt wall-clock. Stream times
     *  overlap in a parallel portfolio, so merged values are CPU-seconds,
     *  not elapsed time. */
    double initSeconds = 0.0;
    double moveSeconds = 0.0;
    double mapSeconds = 0.0;
    /** @} */

    /** Element-wise addition. */
    void merge(const MapperStats &o);

    bool operator==(const MapperStats &) const = default;

    /** One-line JSON object with every counter, for the bench harness. */
    std::string toJson() const;
};

} // namespace lisa::map

#endif // LISA_MAPPERS_MAPPER_STATS_HH
