/**
 * @file
 * Independent mapping invariant verifier.
 *
 * The mapper stack maintains placement, routing, occupancy, overuse, and
 * the cost accumulators *incrementally* (transaction commit/rollback,
 * epoch-stamped router scratch, per-instance refcounts). A silent
 * accounting bug in any of those fast paths would let an illegal mapping
 * masquerade as a success — and the paper-style comparisons (Figs 9-13)
 * are only meaningful over verified-legal mappings. verifyMapping()
 * therefore re-derives every structural invariant from nothing but the
 * DFG, the MRRG, and the mapping's placements/routes, and compares the
 * result against the mapping's own cached bookkeeping:
 *
 *  1. Placement legality: each placed node names an existing PE, a
 *     schedule time inside [0, horizon), and a PE that supports its op.
 *  2. Route connectivity: each routed edge is a contiguous feeder chain
 *     from the producer FU to the consumer FU — hop i+1 is a one-cycle
 *     move target of hop i, and the final holder can feed the consumer.
 *  3. Schedule-time / II-folding coherence: on temporal architectures a
 *     route has exactly T(dst) + d*II - 1 - T(src) hops and hop i sits on
 *     layer (T(src) + i + 1) mod II.
 *  4. The modulo occupancy rule (mapping.hh header comment): occupancy is
 *     keyed by value instance (producer, absolute time); fanout sharing
 *     is free, and a legal mapping has at most one distinct instance per
 *     resource.
 *  5. Bookkeeping consistency: the re-derived occupancy table, overuse
 *     counter, and placed/routed/route-resource accumulators must equal
 *     the mapping's cached values (catches rollback residue and stale
 *     counters).
 *
 * Checks 1-3 and 5 are structural and always enforced; "complete" checks
 * (all nodes placed, all edges routed, zero overuse) are gated by
 * VerifyOptions::requireComplete so the verifier can also run mid-search,
 * where oversubscription and partial mappings are legal.
 */

#ifndef LISA_VERIFY_VERIFY_HH
#define LISA_VERIFY_VERIFY_HH

#include <string>
#include <vector>

#include "mapping/mapping.hh"

namespace lisa::verify {

/** One class of invariant violation the verifier can detect. */
enum class ViolationKind : uint8_t
{
    // Structural violations (reported in every verification mode).
    PeOutOfRange,          ///< placed node names a PE outside the array
    TimeOutOfRange,        ///< schedule time outside [0, horizon)
    OpUnsupported,         ///< node placed on a PE that cannot run its op
    RouteEndpointUnplaced, ///< routed edge with an unplaced endpoint
    RouteLengthMismatch,   ///< hop count != T(dst) + d*II - 1 - T(src)
    RouteLayerMismatch,    ///< hop i not on layer (T(src) + i + 1) mod II
    RouteBrokenChain,      ///< hop not a move target of its predecessor
    RouteBadLastHop,       ///< final holder cannot feed the consumer op
    OccupancyMismatch,     ///< cached per-resource instances != re-derived
    OveruseMismatch,       ///< cached overuse total != re-derived
    AccumulatorMismatch,   ///< cached placed/routed/route-slot counts wrong
    // Completeness violations (only with VerifyOptions::requireComplete).
    NodeUnplaced,     ///< a DFG node has no placement
    EdgeUnrouted,     ///< a DFG edge has no route
    InstanceConflict, ///< resource carries two distinct value instances
};

/** Short stable identifier, e.g. "route-broken-chain". */
const char *violationKindName(ViolationKind kind);

/** One detected violation. */
struct Violation
{
    ViolationKind kind;
    /** Human-readable specifics (ids, expected vs actual values). */
    std::string detail;
};

/** Verification outcome: empty == every invariant holds. */
struct VerifyReport
{
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }

    /** True when at least one violation of @p kind was found. */
    bool has(ViolationKind kind) const;

    /** Count of violations of @p kind. */
    int count(ViolationKind kind) const;

    /** Multi-line summary, one violation per line. */
    std::string toString() const;
};

/** Verification mode switches. */
struct VerifyOptions
{
    /**
     * Also require the mapping to be *complete and legal*: every node
     * placed, every edge routed, no resource carrying two distinct value
     * instances. Off for mid-search checks, where partial/oversubscribed
     * states are legitimate.
     */
    bool requireComplete = true;
};

/**
 * Re-derive every invariant of @p mapping from scratch and report all
 * violations found. @p dfg and @p mrrg must be the graph and resource
 * graph the mapping was built against.
 */
VerifyReport verifyMapping(const dfg::Dfg &dfg, const arch::Mrrg &mrrg,
                           const map::Mapping &mapping,
                           const VerifyOptions &options = {});

/**
 * True when debug validation hooks are compiled in (configure with
 * -DLISA_VALIDATE_MAPPINGS=ON). Mappers consult this before verifying at
 * transaction commits and acceptance points, so other builds compile those
 * checks out; the final-answer check in searchMinIi runs unconditionally
 * and does not consult it.
 */
constexpr bool
validationEnabled()
{
#ifdef LISA_VALIDATE_MAPPINGS
    return true;
#else
    return false;
#endif
}

/**
 * Verify and panic() with the full report when any invariant is violated.
 * @p where names the call site in the panic message.
 */
void checkOrDie(const map::Mapping &mapping, const VerifyOptions &options,
                const char *where);

} // namespace lisa::verify

#endif // LISA_VERIFY_VERIFY_HH
