/**
 * @file
 * Modulo Routing Resource Graph (MRRG).
 *
 * For a target initiation interval II, accelerator resources are replicated
 * across II time layers with wraparound. Resource nodes are:
 *  - FU(pe, t):     executes one operation OR forwards one value per cycle;
 *  - REG(pe, k, t): holds one value for one cycle inside PE pe.
 *
 * A value resident on resource (pe, t) can move in one cycle to a linked
 * PE's FU at layer (t+1) mod II (route-through) or into one of its own
 * registers at (t+1) mod II. An operation executing at FU(pc, tc) reads
 * values resident at layer (tc-1) mod II on pc itself or on a PE with a
 * link into pc.
 *
 * For spatial-only architectures (Accelerator::temporalMapping() == false)
 * the MRRG has a single layer, moves stay inside it, and feeders are the
 * linked PEs of the same layer.
 *
 * Adjacency is stored in CSR (compressed sparse row) form: one flat
 * offsets array plus one flat targets array per relation (forward moves,
 * reverse moves, feeders, and the layer-invariant in-layer moves the
 * temporal DP walks), exposed as std::span views. The router's
 * relaxation loops walk these spans, so a route search touches two
 * contiguous arrays instead of chasing a heap-allocated vector per
 * resource. The reverse-move CSR additionally powers the static-distance
 * oracles (mapping/distance_oracle.hh), which run multi-source searches
 * from a route's destination backwards.
 */

#ifndef LISA_ARCH_MRRG_HH
#define LISA_ARCH_MRRG_HH

#include <span>
#include <vector>

#include "arch/accelerator.hh"
#include "support/strong_id.hh"

namespace lisa::arch {

/** Kind of a routing resource. */
enum class ResourceKind : uint8_t
{
    Fu,
    Reg,
};

/** Metadata of one time-replicated hardware resource. */
struct Resource
{
    ResourceKind kind = ResourceKind::Fu;
    int pe = 0;
    int reg = -1; ///< register index, -1 for FU resources
    int time = 0; ///< layer in [0, II)
};

/** Time-replicated resource graph for one (accelerator, II) pair. */
class Mrrg
{
  public:
    /**
     * Build the MRRG. @p ii must be 1 for spatial-only accelerators and
     * within [1, accel.maxIi()] otherwise.
     */
    Mrrg(const Accelerator &accel, int ii);

    const Accelerator &accel() const { return *arch; }
    int ii() const { return numLayers; }

    /**
     * Process-unique graph identity, assigned at construction. Caches
     * keyed on an Mrrg (the router's distance oracles) compare uids, not
     * addresses: a destroyed graph and its reallocated successor can share
     * an address but never a uid.
     */
    uint64_t uid() const { return uidValue; }

    int numResources() const { return static_cast<int>(resources.size()); }
    const Resource &resource(int id) const { return resources[id]; }

    /** Kind of resource @p id, read from a flat array (no struct load). */
    ResourceKind kindOf(int id) const { return kinds[id]; }

    /** Flat per-resource kind array (index = resource id). */
    std::span<const ResourceKind> resourceKinds() const
    {
        return {kinds.data(), kinds.size()};
    }

    /**
     * Resources are stored layer-major: id = layer * perLayerCount() +
     * index-within-layer. The router exploits this to keep per-step state
     * compact.
     */
    int perLayerCount() const { return perLayer; }

    /** Layer (time slot) of resource @p id. */
    Layer layerOfResource(int id) const { return Layer{id / perLayer}; }

    /** Index of resource @p id within its layer. */
    int indexInLayer(int id) const { return id % perLayer; }

    /** FU resource id for @p pe at layer @p time (time taken mod II). */
    FuId fuId(PeId pe, AbsTime time) const;

    /** Register resource id for (@p pe, @p reg) at layer @p time. */
    RrId regId(PeId pe, int reg, AbsTime time) const;

    /** Resource ids a value resident on @p id can move to in one cycle. */
    std::span<const int> moveTargets(int id) const
    {
        return csrRow(moveOff, moveDst, id);
    }

    /**
     * In-layer indices a value resident at in-layer index @p idx can move
     * to in one cycle, in moveTargets order: moveTargets(layer *
     * perLayerCount() + idx) reduced to indices within the next layer.
     * A move list depends only on (pe, layer) and ids are layer-major, so
     * one table of perLayerCount() rows serves every layer; the temporal
     * DP walks it with no per-edge division.
     */
    std::span<const int> layerMoves(int idx) const
    {
        return csrRow(layerMoveOff, layerMoveDst, idx);
    }

    /** Resource ids that can move a value onto @p id in one cycle
     *  (reverse adjacency, for goal-directed backwards searches). */
    std::span<const int> movePreds(int id) const
    {
        return csrRow(predOff, predSrc, id);
    }

    /**
     * Resources whose resident value is readable by an operation executing
     * at FU(@p pe, @p time): same-PE and linked-PE resources at the
     * previous layer (same layer for spatial-only architectures).
     */
    std::span<const int> feeders(PeId pe, AbsTime time) const;

    /** True when @p holder can directly feed an op at FU(pe, time). */
    bool canFeed(RrId holder, PeId pe, AbsTime time) const;

  private:
    Layer layerOf(AbsTime time) const;

    static std::span<const int>
    csrRow(const std::vector<int> &off, const std::vector<int> &flat, int id)
    {
        const auto begin = static_cast<size_t>(off[static_cast<size_t>(id)]);
        const auto end =
            static_cast<size_t>(off[static_cast<size_t>(id) + 1]);
        return {flat.data() + begin, end - begin};
    }

    const Accelerator *arch;
    uint64_t uidValue;
    int numLayers;
    int perLayer; ///< resources per layer
    int regsPerPe;
    std::vector<Resource> resources;
    std::vector<ResourceKind> kinds; ///< flat copy of resource(i).kind

    /** Forward move CSR: moveDst[moveOff[id] .. moveOff[id+1]). */
    std::vector<int> moveOff;
    std::vector<int> moveDst;
    /** Reverse move CSR: predSrc[predOff[id] .. predOff[id+1]). */
    std::vector<int> predOff;
    std::vector<int> predSrc;
    /** In-layer move CSR, row index = index within a layer. */
    std::vector<int> layerMoveOff;
    std::vector<int> layerMoveDst;
    /** Feeder CSR, row index = layer * numPes + pe. */
    std::vector<int> feederOff;
    std::vector<int> feederIds;
};

} // namespace lisa::arch

#endif // LISA_ARCH_MRRG_HH
