#include "arch/arch_context.hh"

#include <algorithm>
#include <limits>

#include "mapping/router.hh"
#include "support/fnv.hh"

namespace lisa::arch {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Min-heap comparator matching the router's lexicographic tie order. */
struct HeapGreater
{
    bool
    operator()(const std::pair<double, int> &a,
               const std::pair<double, int> &b) const
    {
        return a > b;
    }
};

/** Shared FNV-1a 64-bit hasher (support/fnv.hh); the byte-by-byte
 *  low-first folding keeps every persisted fingerprint identical to the
 *  values the pre-refactor local copy produced on little-endian hosts. */
using Fnv1a = support::Fnv1a;

uint64_t
computeFingerprint(const Accelerator &accel)
{
    Fnv1a f;
    f.bytes(accel.name().data(), accel.name().size());
    const int pes = accel.numPes();
    f.i32(pes);
    for (int pe = 0; pe < pes; ++pe) {
        const PeCoord &c = accel.peCoord(pe);
        f.i32(c.row);
        f.i32(c.col);
        const auto &links = accel.linkTargets(pe);
        f.i32(static_cast<int32_t>(links.size()));
        for (int dst : links)
            f.i32(dst);
    }
    f.i32(accel.registersPerPe());
    f.i32(accel.maxIi());
    f.i32(accel.temporalMapping() ? 1 : 0);
    for (int pe = 0; pe < pes; ++pe) {
        uint64_t support = 0;
        for (int op = 0; op < dfg::kNumOpCodes; ++op) {
            if (accel.supportsOp(pe, static_cast<dfg::OpCode>(op)))
                support |= uint64_t{1} << op;
        }
        f.u64(support);
    }
    return f.h;
}

} // namespace

// ---------------------------------------------------------------------------
// OracleStore

OracleStore::OracleStore(std::shared_ptr<const Mrrg> mrrg)
    : graph(std::move(mrrg)),
      hopPub(static_cast<size_t>(graph->ii()) *
             static_cast<size_t>(graph->accel().numPes())),
      costPub(static_cast<size_t>(graph->accel().numPes()))
{
    const size_t n = static_cast<size_t>(graph->numResources());
    base.assign(n, 0.0);
    const auto kinds = graph->resourceKinds();
    for (size_t id = 0; id < n; ++id)
        base[id] = (kinds[id] == ResourceKind::Fu) ? map::kFuRouteCost
                                                   : map::kRegRouteCost;
}

const std::vector<int32_t> &
OracleStore::ensureHopTable(int layer, int pe, uint64_t &oracle_builds,
                            uint64_t &context_misses,
                            uint64_t &context_hits)
{
    support::LockGuard lock(mu);
    const size_t slot = slotOf(layer, pe);
    // relaxed: all stores to hopPub happen under `mu`, which we hold, so
    // this load can never race a publication; no ordering needed.
    if (const auto *t = hopPub[slot].load(std::memory_order_relaxed)) {
        ++context_hits; // lost a build race
        return *t;
    }

    const size_t canonical_slot = slotOf(0, pe);
    // relaxed: same as above — publication is serialized by `mu`.
    const std::vector<int32_t> *canonical =
        hopPub[canonical_slot].load(std::memory_order_relaxed);
    if (!canonical) {
        hopStorage.emplace_back();
        std::vector<int32_t> &tab = hopStorage.back();
        buildCanonicalHops(tab, pe);
        ++oracle_builds;
        ++context_misses;
        hopPub[canonical_slot].store(&tab, std::memory_order_release);
        canonical = &tab;
    }
    if (layer == 0)
        return *canonical;

    // Materialize the rotated table: the MRRG is invariant under layer
    // rotation, so tab_L[l*P+idx] == tab_0[((l-L) mod II)*P+idx].
    const int num_layers = graph->ii();
    const size_t per_layer = static_cast<size_t>(graph->perLayerCount());
    hopStorage.emplace_back(canonical->size());
    std::vector<int32_t> &rot = hopStorage.back();
    for (int l = 0; l < num_layers; ++l) {
        const size_t src_layer = static_cast<size_t>(
            ((l - layer) % num_layers + num_layers) % num_layers);
        std::copy_n(canonical->data() + src_layer * per_layer, per_layer,
                    rot.data() + static_cast<size_t>(l) * per_layer);
    }
    ++context_misses;
    hopPub[slot].store(&rot, std::memory_order_release);
    return rot;
}

const std::vector<double> &
OracleStore::ensureCostTable(int pe, uint64_t &oracle_builds,
                             uint64_t &context_misses,
                             uint64_t &context_hits)
{
    support::LockGuard lock(mu);
    const size_t slot = static_cast<size_t>(pe);
    // relaxed: costPub stores are serialized by `mu`, which we hold.
    if (const auto *t = costPub[slot].load(std::memory_order_relaxed)) {
        ++context_hits;
        return *t;
    }
    costStorage.emplace_back();
    std::vector<double> &tab = costStorage.back();
    buildCosts(tab, pe);
    ++oracle_builds;
    ++context_misses;
    costPub[slot].store(&tab, std::memory_order_release);
    return tab;
}

void
OracleStore::buildCanonicalHops(std::vector<int32_t> &tab, int pe)
{
    tab.assign(static_cast<size_t>(graph->numResources()), -1);
    bfsQueue.clear();
    for (int g : graph->feeders(PeId{pe}, AbsTime{0})) {
        if (tab[static_cast<size_t>(g)] < 0) {
            tab[static_cast<size_t>(g)] = 0;
            bfsQueue.push_back(g);
        }
    }
    for (size_t head = 0; head < bfsQueue.size(); ++head) {
        const int n = bfsQueue[head];
        const int32_t next = tab[static_cast<size_t>(n)] + 1;
        for (int m : graph->movePreds(n)) {
            if (tab[static_cast<size_t>(m)] < 0) {
                tab[static_cast<size_t>(m)] = next;
                bfsQueue.push_back(m);
            }
        }
    }
}

void
OracleStore::buildCosts(std::vector<double> &tab, int pe)
{
    tab.assign(static_cast<size_t>(graph->numResources()), kInf);
    dijHeap.clear();
    for (int g : graph->feeders(PeId{pe}, AbsTime{0})) {
        if (tab[static_cast<size_t>(g)] > 0.0) {
            tab[static_cast<size_t>(g)] = 0.0;
            dijHeap.emplace_back(0.0, g);
        }
    }
    std::make_heap(dijHeap.begin(), dijHeap.end(), HeapGreater{});
    while (!dijHeap.empty()) {
        std::pop_heap(dijHeap.begin(), dijHeap.end(), HeapGreater{});
        auto [d, n] = dijHeap.back();
        dijHeap.pop_back();
        if (d > tab[static_cast<size_t>(n)])
            continue;
        // A forward hop into n costs base[n]; relaxing a predecessor m
        // extends the (reversed) path n -> goal to m -> n -> goal.
        const double cand = d + base[static_cast<size_t>(n)];
        for (int m : graph->movePreds(n)) {
            if (cand < tab[static_cast<size_t>(m)]) {
                tab[static_cast<size_t>(m)] = cand;
                dijHeap.emplace_back(cand, m);
                std::push_heap(dijHeap.begin(), dijHeap.end(),
                               HeapGreater{});
            }
        }
    }
}

size_t
OracleStore::capacityBytes() const
{
    support::LockGuard lock(mu);
    size_t total = base.capacity() * sizeof(double) +
                   hopPub.size() *
                       sizeof(std::atomic<const std::vector<int32_t> *>) +
                   costPub.size() *
                       sizeof(std::atomic<const std::vector<double> *>) +
                   bfsQueue.capacity() * sizeof(int) +
                   dijHeap.capacity() * sizeof(std::pair<double, int>);
    for (const auto &t : hopStorage)
        total += t.capacity() * sizeof(int32_t);
    for (const auto &t : costStorage)
        total += t.capacity() * sizeof(double);
    return total;
}

std::shared_ptr<OracleStore>
makePrivateOracleStore(std::shared_ptr<const Mrrg> mrrg)
{
    return std::make_shared<OracleStore>(std::move(mrrg));
}

// ---------------------------------------------------------------------------
// ArchContext

ArchContext::ArchContext(const Accelerator &accel, std::string_view)
    : arch(&accel), fp(computeFingerprint(accel))
{
    // Warm the per-op capable-PE memo so mapping threads never race on the
    // first-use build (it is once_flag-guarded, but eager is free here).
    for (int op = 0; op < dfg::kNumOpCodes; ++op)
        (void)accel.opCapablePes(static_cast<dfg::OpCode>(op));
}

std::shared_ptr<const Mrrg>
ArchContext::mrrgFor(int ii, bool *hit)
{
    support::LockGuard lock(mu);
    auto it = mrrgs.find(ii);
    if (it != mrrgs.end()) {
        if (hit)
            *hit = true;
        return it->second;
    }
    auto graph = std::make_shared<const Mrrg>(*arch, ii);
    mrrgs.emplace(ii, graph);
    if (hit)
        *hit = false;
    return graph;
}

std::shared_ptr<OracleStore>
ArchContext::oracleStoreFor(const std::shared_ptr<const Mrrg> &mrrg,
                            bool *hit)
{
    support::LockGuard lock(mu);
    auto it = stores.find(mrrg->uid());
    if (it != stores.end()) {
        if (hit)
            *hit = true;
        return it->second;
    }
    auto store = std::make_shared<OracleStore>(mrrg);
    stores.emplace(mrrg->uid(), store);
    if (hit)
        *hit = false;
    return store;
}

std::shared_ptr<const map::RoutabilityModel>
ArchContext::routabilityModel() const
{
    const support::LockGuard lock(mu);
    return routability;
}

void
ArchContext::setRoutabilityModel(
    std::shared_ptr<const map::RoutabilityModel> model)
{
    const support::LockGuard lock(mu);
    routability = std::move(model);
    routabilityAttempted = true;
}

bool
ArchContext::claimRoutabilityLoad()
{
    const support::LockGuard lock(mu);
    if (routabilityAttempted)
        return false;
    routabilityAttempted = true;
    return true;
}

} // namespace lisa::arch
