#include "mapping/distance_oracle.hh"

#include "arch/arch_context.hh"
#include "mapping/router_workspace.hh"

namespace lisa::map {

void
DistanceOracle::bind(const std::shared_ptr<const arch::Mrrg> &graph,
                     arch::ArchContext *context, RouterCounters &counters)
{
    if (mrrgUid == graph->uid() && boundContext == context)
        return;

    mrrg = graph.get();
    mrrgUid = graph->uid();
    boundContext = context;

    bool shared_hit = false;
    if (context) {
        store = context->oracleStoreFor(graph, &shared_hit);
        privateStore = false;
    } else {
        store = arch::makePrivateOracleStore(graph);
        privateStore = true;
    }
    if (shared_hit)
        ++counters.contextHits;
    else
        ++counters.contextMisses;

    baseView = store->baseCosts();

    const size_t pes = static_cast<size_t>(graph->accel().numPes());
    const size_t ii = static_cast<size_t>(graph->ii());
    ++growthEvents;
    // lint:allow-growth (view directory, rebuilt once per binding, counted)
    hopViews.assign(ii * pes, {});
    // lint:allow-growth (view directory, rebuilt once per binding, counted)
    costViews.assign(pes, {});
}

std::span<const int32_t>
DistanceOracle::minHopsTo(PeId pe, AbsTime time, RouterCounters &counters)
{
    const int ii = mrrg->ii();
    const int layer = ((time % ii) + ii) % ii;
    auto &view = hopViews[static_cast<size_t>(layer) *
                              mrrg->accel().numPes() +
                          static_cast<size_t>(pe.value())];
    if (!view.empty()) {
        ++counters.oracleHits;
        return view;
    }
    // Local miss: resolve through the shared store. A published table is
    // a lock-free read; otherwise the store builds (or rotates) it once
    // for every workspace on this graph.
    if (const auto *tab = store->hopTable(layer, pe.value())) {
        ++counters.contextHits;
        view = {tab->data(), tab->size()};
        return view;
    }
    uint64_t builds = 0, misses = 0, hits = 0;
    const auto &tab =
        store->ensureHopTable(layer, pe.value(), builds, misses, hits);
    counters.oracleBuilds += builds;
    counters.contextMisses += misses;
    counters.contextHits += hits;
    growthEvents += builds + misses; // store allocated on our behalf
    view = {tab.data(), tab.size()};
    return view;
}

std::span<const double>
DistanceOracle::minCostTo(PeId pe, RouterCounters &counters)
{
    auto &view = costViews[static_cast<size_t>(pe.value())];
    if (!view.empty()) {
        ++counters.oracleHits;
        return view;
    }
    if (const auto *tab = store->costTable(pe.value())) {
        ++counters.contextHits;
        view = {tab->data(), tab->size()};
        return view;
    }
    uint64_t builds = 0, misses = 0, hits = 0;
    const auto &tab =
        store->ensureCostTable(pe.value(), builds, misses, hits);
    counters.oracleBuilds += builds;
    counters.contextMisses += misses;
    counters.contextHits += hits;
    growthEvents += builds + misses;
    view = {tab.data(), tab.size()};
    return view;
}

size_t
DistanceOracle::capacityBytes() const
{
    size_t total = hopViews.capacity() * sizeof(hopViews[0]) +
                   costViews.capacity() * sizeof(costViews[0]);
    // A private store's tables are effectively owned by this workspace;
    // a context-shared store is counted by its owner, not per view.
    if (privateStore && store)
        total += store->capacityBytes();
    return total;
}

} // namespace lisa::map
