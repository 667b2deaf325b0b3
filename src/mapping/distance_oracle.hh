/**
 * @file
 * Static-distance oracles for goal-directed routing.
 *
 * Both route kernels search the MRRG move graph from the producer's
 * holders towards the consumer's feeder set. On the *uncongested* graph —
 * every resource priced at its static base cost, no occupancy — the
 * distance from any resource to a given feeder set is a fixed property of
 * the MRRG (the route prices are constants, router.hh). The tables give
 * the kernels two admissible lower bounds:
 *
 *  - minHopsTo(pe, time): minimum number of moves from each resource to
 *    the feeder set of FU(pe, time), from a reverse BFS over the MRRG's
 *    predecessor CSR (-1 = unreachable). routeTemporal uses it to fail
 *    structurally-infeasible edges before running the DP and to skip DP
 *    cells whose remaining step budget cannot cover the distance.
 *  - minCostTo(pe): minimum static cost from each resource to the feeder
 *    set of FU(pe, 0) (spatial-only graphs, II == 1), from a reverse
 *    Dijkstra weighting each forward hop into resource n at baseCosts[n].
 *    routeSpatial uses it as the A* heuristic (heap keyed on g + h) and
 *    prunes pushes to statically-unreachable resources.
 *
 * Admissibility: a congested search only *raises* resource prices (overuse
 * penalty) or removes edges (blocked resources), with one exception —
 * resources already holding the routed value cost 0 instead of base. Those
 * resources are exactly the search's seed set, every one of which starts
 * at cost 0, so the cheapest achievable route always has an interior-
 * seed-free witness whose per-hop cost is >= the static base cost. The
 * static distance therefore never overestimates the remaining cost of an
 * optimal route, and A* / the DP prune return cost-identical results to
 * the undirected search (tests/test_router_equiv.cc pins this by calling
 * the reference router, tests/router_reference.hh, in lock-step).
 *
 * Ownership: since the tables are pure functions of the MRRG, they live
 * in a thread-safe arch::OracleStore shared by every workspace mapping on
 * the same graph (arch/arch_context.hh). This class is the per-workspace
 * *front*: it holds span views into the store's published tables so the
 * steady-state lookup is a plain vector read with no synchronization.
 * bind() re-acquires the store when the MRRG uid or the shared context
 * change (epoch invalidation — the uid, not the address, identifies the
 * graph); without a context the front
 * falls back to a private store and behaves exactly like the historical
 * per-workspace oracle. The front is part of a RouterWorkspace and is not
 * thread-safe; table fetches count as allocation events so the
 * zero-allocation steady-state tests cover it.
 */

#ifndef LISA_MAPPING_DISTANCE_ORACLE_HH
#define LISA_MAPPING_DISTANCE_ORACLE_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "arch/mrrg.hh"

namespace lisa::arch {
class ArchContext;
class OracleStore;
} // namespace lisa::arch

namespace lisa::map {

struct RouterCounters;

/** Per-workspace view cache over one shared per-MRRG table store. */
class DistanceOracle
{
  public:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    /**
     * Bind to @p mrrg, resolving tables through @p context when non-null
     * (workspaces then share one immutable store) or a private store
     * otherwise. A no-op while the MRRG uid and the context are
     * unchanged; otherwise every cached view is invalidated and the
     * store is re-acquired. Store-acquisition hits/misses count into
     * @p counters.
     */
    void bind(const std::shared_ptr<const arch::Mrrg> &mrrg,
              arch::ArchContext *context, RouterCounters &counters);

    /**
     * Per-resource static entry cost (kFuRouteCost / kRegRouteCost by
     * resource kind), hoisted out of the kernels' relaxation loops.
     * Valid after bind().
     */
    std::span<const double> baseCosts() const { return baseView; }

    /**
     * Minimum moves from each resource to the feeder set of FU(@p pe,
     * @p time), -1 when unreachable. Fetches the shared table on first
     * use per (pe, time mod II) key; oracleBuilds / oracleHits /
     * contextHits / contextMisses count into @p counters.
     */
    std::span<const int32_t> minHopsTo(PeId pe, AbsTime time,
                                       RouterCounters &counters);

    /**
     * Minimum static cost from each resource to the feeder set of
     * FU(@p pe, 0), kInf when unreachable. Spatial-only graphs (II == 1).
     */
    std::span<const double> minCostTo(PeId pe, RouterCounters &counters);

    /** @{ Allocation introspection, aggregated into the workspace's. */
    size_t capacityBytes() const;
    uint64_t allocationCount() const { return growthEvents; }
    /** @} */

  private:
    std::shared_ptr<arch::OracleStore> store;
    const arch::Mrrg *mrrg = nullptr;
    uint64_t mrrgUid = 0; ///< identity of the bound graph, 0 = unbound
    arch::ArchContext *boundContext = nullptr;
    bool privateStore = false; ///< store is exclusive to this front
    uint64_t growthEvents = 0;

    std::span<const double> baseView; ///< store's base-cost array

    /** Hop views, key = (time mod II) * numPes + pe; empty = unfetched. */
    std::vector<std::span<const int32_t>> hopViews;
    /** Cost views, key = pe (single layer); empty = unfetched. */
    std::vector<std::span<const double>> costViews;
};

} // namespace lisa::map

#endif // LISA_MAPPING_DISTANCE_ORACLE_HH
