/**
 * @file
 * Mapping state: placement of DFG nodes onto MRRG function units plus
 * routing of DFG edges through MRRG resources, with incremental occupancy
 * and overuse tracking.
 *
 * Placement uses absolute schedule times (the time-extended view of Fig 5);
 * resource occupancy folds times into the II layers of the MRRG.
 *
 * Occupancy is keyed by value *instance*: (producer node, absolute time).
 * Fanout routes of one producer share resources at the same absolute time
 * for free, while the same datum held in one register across more than one
 * II window conflicts with the next loop iteration's instance — exactly the
 * modulo-scheduling capacity rule. Spatial-only architectures collapse the
 * time component (a PE keeps its role for the whole run).
 *
 * During search, resources may be oversubscribed ("overuse"); a mapping is
 * valid only when every resource carries at most one distinct instance.
 */

#ifndef LISA_MAPPING_MAPPING_HH
#define LISA_MAPPING_MAPPING_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/mrrg.hh"
#include "dfg/analysis.hh"
#include "dfg/dfg.hh"
#include "support/strong_id.hh"

namespace lisa::map {

/** @{ Named sentinels of an unplaced node. The verifier and
 *  Placement::mapped() share these; no call site spells a bare -1. */
inline constexpr PeId kUnplacedPe{-1};
inline constexpr AbsTime kUnplacedTime{-1};
/** @} */

/** Where one DFG node lives: a PE and an absolute schedule time. */
struct Placement
{
    PeId pe = kUnplacedPe;
    AbsTime time = kUnplacedTime;

    bool mapped() const { return pe != kUnplacedPe; }
};

/**
 * Snapshot of the incrementally maintained cost accumulators. Cheap to
 * copy; taken at transaction begin so accept/reject decisions can compare
 * against the pre-move state in O(1).
 */
struct CostSnapshot
{
    size_t placed = 0;
    size_t routed = 0;
    int overuse = 0;
    int routeResources = 0;
};

/** One candidate mapping of a DFG onto an MRRG. */
class Mapping
{
  public:
    /** Maximum representable absolute schedule time (exclusive). */
    static constexpr int64_t kTimeSpan = 4096;

    Mapping(const dfg::Dfg &dfg, std::shared_ptr<const arch::Mrrg> mrrg);

    const dfg::Dfg &dfg() const { return *graph; }
    const arch::Mrrg &mrrg() const { return *rrg; }
    const std::shared_ptr<const arch::Mrrg> &mrrgPtr() const { return rrg; }

    /** Largest allowed absolute schedule time (exclusive). */
    int horizon() const { return maxTime; }
    void setHorizon(int t) { maxTime = t; }

    /** Value-instance key for producer @p v live at @p abs_time. */
    int64_t instanceKey(dfg::NodeId v, AbsTime abs_time) const;

    /** @{ Placement. */
    const Placement &placement(dfg::NodeId v) const { return place[v]; }
    bool isPlaced(dfg::NodeId v) const { return place[v].mapped(); }
    size_t numPlaced() const { return placedCount; }

    /** Place @p v at (@p pe, @p time); v must be currently unplaced. */
    void placeNode(dfg::NodeId v, PeId pe, AbsTime time);

    /** Remove @p v's placement; its incident routes must be cleared
     *  first. */
    void unplaceNode(dfg::NodeId v);
    /** @} */

    /** @{ Routing. */
    bool isRouted(dfg::EdgeId e) const { return routed[e]; }
    size_t numRouted() const { return routedCount; }

    /** Intermediate resources of edge @p e's route (may be empty). */
    const std::vector<int> &route(dfg::EdgeId e) const { return routes[e]; }

    /** Install a route; @p e must be un-routed and both endpoints placed. */
    void setRoute(dfg::EdgeId e, std::vector<int> path);

    /** setRoute() from a borrowed path, copied straight into the edge's
     *  own route storage (a cache hit replays stored spans). */
    void assignRoute(dfg::EdgeId e, std::span<const int> path);

    /** Remove edge @p e's route (no-op when un-routed). */
    void clearRoute(dfg::EdgeId e);
    /** @} */

    /**
     * Required route length of edge @p e (number of intermediate holders):
     * T(dst) + iterDistance*II - 1 - T(src). Negative means the current
     * placement cannot satisfy the dependency. Spatial-only architectures
     * have no length constraint and report -2 (unused sentinel).
     */
    int requiredLength(dfg::EdgeId e) const;

    /** Distinct instances on @p res beyond the first (0 = no conflict). */
    int resourceOveruse(int res) const;

    /** Number of distinct value instances on @p res. */
    int
    numInstancesOn(int res) const
    {
        return occCount[static_cast<size_t>(res)];
    }

    /** True when @p res holds the instance @p key. Reads the flat
     *  first-instance array; only an overused resource (two or more
     *  instances) scans its instance list. */
    bool
    holdsInstance(int res, int64_t key) const
    {
        const auto r = static_cast<size_t>(res);
        if (occFirst[r] == key)
            return true;
        if (occCount[r] < 2)
            return false;
        for (const InstanceRef &ir : occ[r])
            if (ir.key == key)
                return true;
        return false;
    }

    /** Producer node ids of all instances on @p res (for diagnostics). */
    std::vector<dfg::NodeId> valuesOn(int res) const;

    /** Total overuse across all resources. */
    int totalOveruse() const { return overuse; }

    /** Total count of route-occupied resource slots. */
    int totalRouteResources() const { return routeResourceCount; }

    /** All placed, all routed, zero overuse. */
    bool valid() const;

    /** Reset to the empty mapping (no transaction may be active). */
    void clear();

    /** Current values of the incremental cost accumulators. */
    CostSnapshot costSnapshot() const
    {
        return CostSnapshot{placedCount, routedCount, overuse,
                            routeResourceCount};
    }

    /**
     * @{ Move transactions.
     *
     * A transaction brackets one speculative move: every
     * placeNode/unplaceNode/setRoute/clearRoute between begin and
     * commit/rollback is recorded as an undo entry.
     * rollbackTransaction() replays the log in reverse, restoring
     * placements, routes, occupancy, and all cost accumulators exactly;
     * commitTransaction() discards the log. Transactions do not nest.
     */
    void beginTransaction();
    void commitTransaction();
    void rollbackTransaction();
    bool inTransaction() const { return txnActive; }

    /** Accumulator values at beginTransaction() (active txn only). */
    const CostSnapshot &transactionBase() const;
    /** @} */

  private:
    /** Test-only backdoor (tests/test_verify.cc) that seeds deliberate
     *  corruption into the internals so the mutation suite can prove the
     *  verifier catches each class. Never defined in the library. */
    friend struct MappingTestAccess;

    struct InstanceRef
    {
        int64_t key;
        int refs;
    };

    /** One undo entry of the active transaction. */
    struct TxnOp
    {
        enum class Kind : uint8_t
        {
            Place,     ///< undo: unplace node `id`
            Unplace,   ///< undo: re-place node `id` at `prevPlace`
            SetRoute,  ///< undo: clear route of edge `id`
            ClearRoute ///< undo: restore `prevPath` on edge `id`
        };
        Kind kind;
        int32_t id;
        Placement prevPlace{};
        std::vector<int> prevPath{};
    };

    /** The bookkeeping setRoute() and assignRoute() share: checks, then
     *  occupies @p path's resources for edge @p e and marks it routed.
     *  The caller stores the path in routes[e]. */
    void occupyRoute(dfg::EdgeId e, std::span<const int> path);
    void addInstance(int res, int64_t key);
    void removeInstance(int res, int64_t key);

    const dfg::Dfg *graph;
    std::shared_ptr<const arch::Mrrg> rrg;
    bool temporal;
    int maxTime;

    std::vector<Placement> place;
    std::vector<std::vector<int>> routes;
    std::vector<bool> routed;
    /** Per-resource small list of (instance key, refcount). */
    std::vector<std::vector<InstanceRef>> occ;
    /** @{ Flat mirrors of occ, written only by addInstance and
     *  removeInstance: occ[r].size(), and occ[r].front().key or
     *  kNoInstance (never a key: keys are non-negative) when r is free.
     *  The router's step cost reads these instead of following occ[r]
     *  into its own heap block. */
    static constexpr int64_t kNoInstance = -1;
    std::vector<int32_t> occCount;
    std::vector<int64_t> occFirst;
    /** @} */
    size_t placedCount = 0;
    size_t routedCount = 0;
    int overuse = 0;
    int routeResourceCount = 0;

    bool txnActive = false;
    /** Set while rollback replays the log, suppressing re-logging. */
    bool txnReplaying = false;
    CostSnapshot txnBase;
    std::vector<TxnOp> txnLog;
};

} // namespace lisa::map

#endif // LISA_MAPPING_MAPPING_HH
