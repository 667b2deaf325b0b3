/**
 * @file
 * Per-thread router scratch state.
 *
 * Every annealing movement rips up and re-routes a node's incident edges,
 * so routeEdge is the hottest function in the mapper stack. The workspace
 * owns the search arrays both router modes need (Dijkstra labels for the
 * spatial search, the layered DP matrices for the temporal search, the
 * binary heap, the seed list, and the result path) so that steady-state
 * routing performs no heap allocations: buffers grow to the high-water
 * mark of the (MRRG, DFG) pair and are then reused for every later call.
 *
 * Stale spatial state is retired by *epoch stamping* instead of O(n)
 * clears: each Dijkstra label carries the epoch in which it was last
 * written, beginSpatial bumps the workspace epoch, and a label whose stamp
 * differs from the current epoch reads as unvisited (infinite cost, no
 * parent). A* touches a sparse set of resources, so a clear would cost
 * more than the search. Epochs are 64-bit and never wrap in practice.
 *
 * The temporal DP rows carry no stamps: the DP scans every slot of every
 * row anyway, so beginTemporal resets the (steps x perLayer) cost rows to
 * +inf in one linear fill and each edge visit reads a plain double. Parent
 * and seed-edge slots are never reset; they are read only on cells whose
 * cost is finite, which were written in the same call.
 *
 * The stepCost memo keeps its stamps: one memo window per DP step would
 * otherwise need a perLayer clear per step. Its tick is handed out in
 * blocks (reserveMemoTicks) so the DP can keep it in a register.
 *
 * A workspace must not be shared between threads; each attempt stream of
 * the annealing portfolio owns one. The workspace also accumulates
 * RouterCounters (calls, heap pops, relaxations, failures, wall-clock)
 * which the mappers harvest into their MapperStats.
 */

#ifndef LISA_MAPPING_ROUTER_WORKSPACE_HH
#define LISA_MAPPING_ROUTER_WORKSPACE_HH

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "dfg/dfg.hh"
#include "mapping/distance_oracle.hh"
#include "mapping/routability_filter.hh"
#include "mapping/router.hh"

namespace lisa::map {

/**
 * Router-level observability counters, accumulated by the workspace across
 * routeEdge calls. Merging is element-wise addition, so merges of disjoint
 * streams are associative and commutative.
 */
struct RouterCounters
{
    /** routeEdge invocations (either mode, including trivial self-loops).
     *  Calls rejected by tier 0 or vetoed by the learned tier without
     *  invoking a search kernel are *not* counted here — they count
     *  filterRejects. */
    uint64_t routeEdgeCalls = 0;
    /** routeEdge calls that found no route. */
    uint64_t routeFailures = 0;
    /** Search-frontier pops: spatial Dijkstra/A* heap pops plus temporal
     *  DP cells expanded. */
    uint64_t pqPops = 0;
    /** Cost-label improvements (Dijkstra relaxations + DP transitions). */
    uint64_t relaxations = 0;
    /** Work avoided by the static-distance oracle: spatial pushes dropped
     *  because the target cannot reach the goal, plus temporal searches
     *  failed before the DP because no seed can reach it in budget. */
    uint64_t heuristicPrunes = 0;
    /** Temporal DP cells skipped because the destination is out of reach
     *  within the remaining step budget. */
    uint64_t dpCellsSkipped = 0;
    /** Distance-oracle tables built (lazy, once per destination key). */
    uint64_t oracleBuilds = 0;
    /** Distance-oracle lookups served from a cached table. */
    uint64_t oracleHits = 0;
    /** Shared-context artifacts reused (MRRG graphs, oracle stores and
     *  published tables another consumer already derived). */
    uint64_t contextHits = 0;
    /** Shared-context artifacts derived fresh (first consumer pays). */
    uint64_t contextMisses = 0;
    /** Admission queries (routability_filter.hh): tier-0 rejects plus
     *  learned-tier consultations. */
    uint64_t filterQueries = 0;
    /** Queries answered "unroutable" (tier-0 rejects plus learned
     *  vetoes); each skips the search kernel. */
    uint64_t filterRejects = 0;
    /** Learned vetoes routed anyway to audit the prediction (the
     *  deterministic 1-in-N sample). Shadow routes do count
     *  routeEdgeCalls. */
    uint64_t filterShadowRoutes = 0;
    /** Shadow-routed rejects the router in fact satisfied (false
     *  rejects); filterShadowRoutes - filterFalseRejects succeeded. */
    uint64_t filterFalseRejects = 0;
    /** Wall-clock seconds spent inside routeEdge. */
    double routeSeconds = 0.0;

    /** Fraction of route calls that failed (0 when none were made). */
    double
    failureRate() const
    {
        return routeEdgeCalls > 0
                   ? static_cast<double>(routeFailures) /
                         static_cast<double>(routeEdgeCalls)
                   : 0.0;
    }

    void
    merge(const RouterCounters &o)
    {
        routeEdgeCalls += o.routeEdgeCalls;
        routeFailures += o.routeFailures;
        pqPops += o.pqPops;
        relaxations += o.relaxations;
        heuristicPrunes += o.heuristicPrunes;
        dpCellsSkipped += o.dpCellsSkipped;
        oracleBuilds += o.oracleBuilds;
        oracleHits += o.oracleHits;
        contextHits += o.contextHits;
        contextMisses += o.contextMisses;
        filterQueries += o.filterQueries;
        filterRejects += o.filterRejects;
        filterShadowRoutes += o.filterShadowRoutes;
        filterFalseRejects += o.filterFalseRejects;
        routeSeconds += o.routeSeconds;
    }

    bool operator==(const RouterCounters &) const = default;
};

/** An existing holder of the value being routed (fanout seed). */
struct RouteSeed
{
    int res;            ///< resource id
    int step;           ///< hops from the producer (0 = producer FU)
    dfg::EdgeId parent; ///< route supplying the prefix (-1 = producer)
};

/** Reusable scratch state for the edge router. */
class RouterWorkspace
{
  public:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    /** Raw views of the temporal DP state, for the DP's inner loop. Rows
     *  are flat-indexed [step * perLayer + idx]; the memo is indexed by
     *  in-layer index. */
    struct DpRows
    {
        double *cost;          ///< +inf after beginTemporal
        int *parent;           ///< valid where cost is finite
        dfg::EdgeId *seedEdge; ///< valid where cost is finite
        double *memoCost;
        uint64_t *memoStamp;
    };

    /** Start a spatial search: bump the epoch and size the labels. */
    void beginSpatial(int numResources);

    /** Start a temporal search over @p steps rows (required length + 1)
     *  of @p perLayer slots each: size the rows, reset every cost slot to
     *  +inf and return the raw views. */
    DpRows beginTemporal(int steps, int perLayer);

    /** @{ Per-window stepCost memo. The mapping is immutable during one
     *  routeEdge call, so stepCost(res, key) is pure over any window with
     *  a fixed instance key: the whole call for the spatial search, one DP
     *  step for the temporal search (the key advances with absolute
     *  time). beginStepMemo opens a fresh window; entries are retired by
     *  stamping, never cleared. */
    void beginStepMemo() { ++memoTick; }

    /** Reserve @p n fresh memo windows for a caller that stamps
     *  memoStamp itself; it uses ticks first .. first + n - 1. */
    uint64_t
    reserveMemoTicks(int n)
    {
        const uint64_t first = memoTick + 1;
        memoTick += static_cast<uint64_t>(n);
        return first;
    }

    bool
    memoGet(int idx, double &out) const
    {
        if (memoStamp[idx] != memoTick)
            return false;
        out = memoCost[idx];
        return true;
    }

    void
    memoPut(int idx, double c)
    {
        memoStamp[idx] = memoTick;
        memoCost[idx] = c;
    }
    /** @} */

    /** @{ Spatial Dijkstra labels (valid after beginSpatial). */
    double
    costOf(int res) const
    {
        return stamp[res] == epoch ? cost[res] : kInf;
    }

    int parentOf(int res) const { return parent[res]; }
    int seedStepOf(int res) const { return seedStep[res]; }
    dfg::EdgeId seedEdgeOf(int res) const { return seedEdge[res]; }

    /** Label @p res as a fanout seed: zero cost, parent sentinel -2. */
    void
    seedSpatial(int res, int step, dfg::EdgeId edge)
    {
        stamp[res] = epoch;
        cost[res] = 0.0;
        parent[res] = -2;
        seedStep[res] = step;
        seedEdge[res] = edge;
    }

    /** Relax @p res to cost @p c via @p par; true when it improved. */
    bool
    improve(int res, double c, int par)
    {
        if (c >= costOf(res))
            return false;
        stamp[res] = epoch;
        cost[res] = c;
        parent[res] = par;
        seedStep[res] = 0;
        seedEdge[res] = -1;
        return true;
    }

    void markGoal(int res) { goalStamp[res] = epoch; }
    bool isGoal(int res) const { return goalStamp[res] == epoch; }
    /** @} */

    /** @{ Binary min-heap of (cost, resource) items. */
    bool heapEmpty() const { return heap.empty(); }
    void pushHeap(double c, int res);
    std::pair<double, int> popHeap();
    /** @} */

    /** @{ Temporal DP matrix, flat-indexed [step * perLayer + idx]
     *  (valid after beginTemporal). */
    double dpCostAt(int s, int idx) const { return dpCost[flat(s, idx)]; }

    int dpParentAt(int s, int idx) const { return dpParent[flat(s, idx)]; }

    dfg::EdgeId
    dpSeedEdgeAt(int s, int idx) const
    {
        return dpSeedEdge[flat(s, idx)];
    }

    /** Label DP cell (s, idx) as a fanout seed of route @p edge. */
    void
    dpSeed(int s, int idx, dfg::EdgeId edge)
    {
        const size_t i = flat(s, idx);
        dpCost[i] = 0.0;
        dpParent[i] = -2;
        dpSeedEdge[i] = edge;
    }

    /** Relax DP cell (s, idx); true when the cost improved. */
    bool
    dpImprove(int s, int idx, double c, int par)
    {
        const size_t i = flat(s, idx);
        if (c >= dpCost[i])
            return false;
        dpCost[i] = c;
        dpParent[i] = par;
        dpSeedEdge[i] = -1;
        return true;
    }
    /** @} */

    /** Fanout seed list, refilled per routeEdge call. */
    std::vector<RouteSeed> seeds;

    /** Result storage of the latest routeEdge call (path reused). */
    RouteResult result;

    /** Observability counters, accumulated across calls. */
    RouterCounters counters;

    /** Static-distance table views for goal-directed search (fetched
     *  lazily from the shared store, invalidated on MRRG/cost changes). */
    DistanceOracle oracle;

    /** Learned-tier state (routability_filter.hh); idle unless the exact
     *  mapper arms it. */
    LearnedAdmission learned;

    /** Shared arch-artifact cache to resolve oracle tables through; null
     *  = build a workspace-private store (historical behavior). Set by
     *  the mappers from MapContext::archCtx before routing. */
    arch::ArchContext *archContext = nullptr;

    /** @{ Capacity introspection for the zero-allocation tests. */
    /** Total bytes of heap capacity held by all internal buffers. */
    size_t capacityBytes() const;
    /** Number of buffer-growth (reallocation) events so far. */
    uint64_t
    allocationCount() const
    {
        return growthEvents + oracle.allocationCount();
    }
    /** Record a reallocation of a buffer the router fills directly
     *  (the seed list and the result path). */
    void noteGrowth() { ++growthEvents; }
    /** @} */

  private:
    size_t
    flat(int s, int idx) const
    {
        return static_cast<size_t>(s) * dpPerLayer + idx;
    }

    /** Grow @p v to at least @p n slots, counting real reallocations. */
    template <typename T>
    void
    ensure(std::vector<T> &v, size_t n)
    {
        if (v.size() >= n)
            return;
        if (v.capacity() < n)
            ++growthEvents;
        // lint:allow-growth (amortized scratch vector, growth is counted)
        v.resize(n);
    }

    uint64_t epoch = 0;
    uint64_t memoTick = 0;
    uint64_t growthEvents = 0;

    // stepCost memo (see beginStepMemo), indexed by in-layer index for
    // the temporal DP and by resource id for the spatial search.
    std::vector<double> memoCost;
    std::vector<uint64_t> memoStamp;

    // Spatial labels.
    std::vector<double> cost;
    std::vector<int> parent;
    std::vector<int> seedStep;
    std::vector<dfg::EdgeId> seedEdge;
    std::vector<uint64_t> stamp;
    std::vector<uint64_t> goalStamp;
    std::vector<std::pair<double, int>> heap;

    // Temporal DP matrices.
    size_t dpPerLayer = 0;
    std::vector<double> dpCost;
    std::vector<int> dpParent;
    std::vector<dfg::EdgeId> dpSeedEdge;
};

} // namespace lisa::map

#endif // LISA_MAPPING_ROUTER_WORKSPACE_HH
