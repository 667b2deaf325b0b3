/**
 * @file
 * ArchContext: shared, in-memory cache of arch-derived artifacts.
 *
 * Everything the mapping stack derives from an Accelerator alone is
 * request-invariant: the CSR MRRG per II, the static-distance oracle
 * tables per MRRG, the per-resource base-cost arrays, and the memoized
 * opCapablePes tables. Before this cache every II attempt re-derived them
 * (each RouterWorkspace built private oracle tables, searchMinIi built a
 * fresh Mrrg per II), so a bench suite paid thousands of oracleBuilds for
 * artifacts that depend only on (arch, II).
 *
 * One ArchContext per accelerator owns them all:
 *
 *  - mrrgFor(ii): shared_ptr<const Mrrg>, built once per II and reused by
 *    every later sweep over the same accelerator;
 *  - oracleStoreFor(mrrg): a thread-safe OracleStore of min-hop /
 *    min-cost tables shared by every concurrent attempt stream (workspaces
 *    keep span views into it, see mapping/distance_oracle.hh);
 *  - opCapablePes: warmed eagerly at construction so no first-use race or
 *    latency remains.
 *
 * Layer symmetry. The MRRG replicates the same per-layer structure across
 * all II layers, moves go from layer t to (t+1) mod II with identical
 * in-layer index patterns, and the feeder set of FU(pe, t) reads layer
 * (t-1+II) mod II. The whole graph is therefore invariant under layer
 * rotation, and the min-hop table towards FU(pe, L) is a rotation of the
 * table towards FU(pe, 0):
 *
 *     tab_L[l * P + idx] = tab_0[((l - L + II) mod II) * P + idx]
 *
 * with P the per-layer resource count. The store runs one reverse BFS per
 * PE (the canonical layer-0 table) and materializes other layers by an
 * O(n) copy, so a full sweep costs #PEs BFS builds per II instead of
 * #PEs * II. Rotated values are exactly equal to a direct BFS, keeping
 * routing bit-identical (tests/test_arch_context.cc pins this).
 *
 * Threading: mrrgFor / oracleStoreFor take the context mutex; OracleStore
 * builds take the store mutex and publish through release stores; the
 * steady-state lookup path (hopTable / costTable / baseCosts) is lock-free
 * acquire loads and performs no heap allocation — this header is on the
 * tools/lint.sh hot-file list to keep it that way.
 */

#ifndef LISA_ARCH_ARCH_CONTEXT_HH
#define LISA_ARCH_ARCH_CONTEXT_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "arch/mrrg.hh"
#include "support/thread_annotations.hh"

namespace lisa::map {
struct RoutabilityModel;
}

namespace lisa::arch {

class ArchContext;

/**
 * Thread-safe static-distance tables for one MRRG, priced at the router's
 * constant route costs (mapping/router.hh) and shared by every router
 * workspace mapping on that graph.
 *
 * Lookups are lock-free pointer loads; a nullptr result sends the caller
 * to the ensure* slow path, which builds (or rotates) the table under the
 * store mutex and publishes it with release semantics. Table storage is a
 * deque, so published addresses stay stable while the store grows.
 */
class OracleStore
{
  public:
    explicit OracleStore(std::shared_ptr<const Mrrg> mrrg);

    const Mrrg &mrrg() const { return *graph; }
    uint64_t mrrgUid() const { return graph->uid(); }
    int ii() const { return graph->ii(); }

    /** Per-resource static entry cost, immutable after construction. */
    std::span<const double> baseCosts() const
    {
        return {base.data(), base.size()};
    }

    /** @{ Lock-free published-table lookup; nullptr = not yet built. */
    const std::vector<int32_t> *
    hopTable(int layer, int pe) const
    {
        return hopPub[slotOf(layer, pe)].load(std::memory_order_acquire);
    }

    const std::vector<double> *
    costTable(int pe) const
    {
        return costPub[static_cast<size_t>(pe)].load(
            std::memory_order_acquire);
    }
    /** @} */

    /**
     * @{ Slow path: build the table under the store mutex and publish it.
     * A canonical (layer-0) BFS counts into @p oracle_builds and
     * @p context_misses; a layer rotation counts into @p context_misses
     * only; losing a build race to another thread counts a
     * @p context_hits. Returned references stay valid for the store's
     * lifetime.
     */
    const std::vector<int32_t> &ensureHopTable(int layer, int pe,
                                               uint64_t &oracle_builds,
                                               uint64_t &context_misses,
                                               uint64_t &context_hits)
        LISA_EXCLUDES(mu);
    const std::vector<double> &ensureCostTable(int pe,
                                               uint64_t &oracle_builds,
                                               uint64_t &context_misses,
                                               uint64_t &context_hits)
        LISA_EXCLUDES(mu);
    /** @} */

    /** Heap bytes held by every published table (diagnostics). */
    size_t capacityBytes() const LISA_EXCLUDES(mu);

  private:
    friend class ArchContext;

    size_t
    slotOf(int layer, int pe) const
    {
        return static_cast<size_t>(layer) *
                   static_cast<size_t>(graph->accel().numPes()) +
               static_cast<size_t>(pe);
    }

    void buildCanonicalHops(std::vector<int32_t> &tab, int pe)
        LISA_REQUIRES(mu);
    void buildCosts(std::vector<double> &tab, int pe) LISA_REQUIRES(mu);

    std::shared_ptr<const Mrrg> graph;

    std::vector<double> base; ///< per-resource static entry cost

    mutable support::Mutex mu; ///< guards storage and publication
    /** Published hop tables, slot = layer * numPes + pe. Writes are
     *  release stores issued under `mu`; reads are lock-free acquire
     *  loads, which is why these slots carry no GUARDED_BY — the
     *  acquire/release pair itself is the publication contract. */
    std::vector<std::atomic<const std::vector<int32_t> *>> hopPub;
    /** Published cost tables (spatial graphs, II == 1), slot = pe. */
    std::vector<std::atomic<const std::vector<double> *>> costPub;
    /** Stable backing storage for published tables. */
    std::deque<std::vector<int32_t>> hopStorage LISA_GUARDED_BY(mu);
    std::deque<std::vector<double>> costStorage LISA_GUARDED_BY(mu);
    /** Reverse-BFS scratch. */
    std::vector<int> bfsQueue LISA_GUARDED_BY(mu);
    /** Dijkstra scratch. */
    std::vector<std::pair<double, int>> dijHeap LISA_GUARDED_BY(mu);
};

/**
 * Factory for a workspace-private OracleStore (no shared context bound).
 * Lives here so the hot-listed mapping files never spell an allocation.
 */
std::shared_ptr<OracleStore>
makePrivateOracleStore(std::shared_ptr<const Mrrg> mrrg);

/** Owner of every arch-derived artifact for one accelerator. */
class ArchContext
{
  public:
    /**
     * Build a context for @p accel, which must outlive every lookup;
     * destroying the context does not touch it. The second parameter is
     * ignored: it remains only because perfbench/ still passes a string.
     */
    explicit ArchContext(const Accelerator &accel, std::string_view = {});

    ArchContext(const ArchContext &) = delete;
    ArchContext &operator=(const ArchContext &) = delete;

    const Accelerator &accel() const { return *arch; }

    /** Content fingerprint of the accelerator (stable across runs). */
    uint64_t fingerprint() const { return fp; }

    /**
     * The shared MRRG for @p ii, built on first request and cached.
     * @p hit (optional) reports whether the graph was already cached.
     */
    std::shared_ptr<const Mrrg> mrrgFor(int ii, bool *hit = nullptr)
        LISA_EXCLUDES(mu);

    /**
     * The shared OracleStore for @p mrrg, created on first request and
     * cached by MRRG uid. The store retains @p mrrg.
     */
    std::shared_ptr<OracleStore>
    oracleStoreFor(const std::shared_ptr<const Mrrg> &mrrg,
                   bool *hit = nullptr) LISA_EXCLUDES(mu);

    /** Memoized per-op capable-PE table (warmed at construction). */
    const std::vector<int> &
    opCapablePes(dfg::OpCode op) const
    {
        return arch->opCapablePes(op);
    }

    /** @{ Context-held routability admission model (see
     *  mapping/routability_filter.hh): one immutable copy per fabric,
     *  shared by every workspace that binds this context. The slot is
     *  claim-once — the first claimRoutabilityLoad() returns true and
     *  its caller performs the single disk-load attempt; setting a model
     *  directly (tests, trainers) also consumes the claim. */
    std::shared_ptr<const map::RoutabilityModel> routabilityModel() const
        LISA_EXCLUDES(mu);
    void
    setRoutabilityModel(std::shared_ptr<const map::RoutabilityModel> model)
        LISA_EXCLUDES(mu);
    bool claimRoutabilityLoad() LISA_EXCLUDES(mu);
    /** @} */

  private:
    const Accelerator *arch;
    uint64_t fp;

    mutable support::Mutex mu;
    std::map<int, std::shared_ptr<const Mrrg>> mrrgs LISA_GUARDED_BY(mu);
    /** Oracle stores keyed by MRRG uid. */
    std::map<uint64_t, std::shared_ptr<OracleStore>> stores
        LISA_GUARDED_BY(mu);
    /** Routability admission model slot; see above. */
    std::shared_ptr<const map::RoutabilityModel> routability
        LISA_GUARDED_BY(mu);
    bool routabilityAttempted LISA_GUARDED_BY(mu) = false;
};

} // namespace lisa::arch

#endif // LISA_ARCH_ARCH_CONTEXT_HH
