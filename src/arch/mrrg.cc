#include "arch/mrrg.hh"

#include <algorithm>
#include <atomic>

#include "support/logging.hh"

namespace lisa::arch {

namespace {

uint64_t
nextUid()
{
    static std::atomic<uint64_t> counter{0};
    // relaxed: uniqueness is the only requirement; uids are never used
    // to order cross-thread memory.
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

Mrrg::Mrrg(const Accelerator &accel, int ii)
    : arch(&accel), uidValue(nextUid()), numLayers(ii),
      regsPerPe(accel.registersPerPe())
{
    if (!accel.temporalMapping() && ii != 1)
        fatal("spatial-only accelerator requires II == 1");
    if (ii < 1 || ii > accel.maxIi())
        fatal("II ", ii, " outside [1, ", accel.maxIi(), "] for ",
              accel.name());

    const int pes = accel.numPes();
    perLayer = pes * (1 + regsPerPe);
    const int total = perLayer * numLayers;
    resources.resize(static_cast<size_t>(total));
    kinds.resize(static_cast<size_t>(total));

    for (int t = 0; t < numLayers; ++t) {
        for (int pe = 0; pe < pes; ++pe) {
            Resource &fu = resources[fuId(PeId{pe}, AbsTime{t})];
            fu.kind = ResourceKind::Fu;
            fu.pe = pe;
            fu.reg = -1;
            fu.time = t;
            for (int k = 0; k < regsPerPe; ++k) {
                Resource &rg = resources[regId(PeId{pe}, k, AbsTime{t})];
                rg.kind = ResourceKind::Reg;
                rg.pe = pe;
                rg.reg = k;
                rg.time = t;
            }
        }
    }
    for (int id = 0; id < total; ++id)
        kinds[static_cast<size_t>(id)] =
            resources[static_cast<size_t>(id)].kind;

    // Move edges: advance one cycle (same layer for spatial-only archs,
    // since their PEs hold a role for the whole run). A resource's move
    // list depends only on its (pe, layer), so the forward CSR fills in a
    // single walk in resource-id order; the reverse CSR is then derived by
    // count / prefix-sum / scatter.
    const bool temporal = accel.temporalMapping();
    moveOff.resize(static_cast<size_t>(total) + 1, 0);
    for (int id = 0; id < total; ++id) {
        moveOff[static_cast<size_t>(id)] = static_cast<int>(moveDst.size());
        const Resource &res = resources[static_cast<size_t>(id)];
        const int t = res.time;
        const int next = temporal ? (t + 1) % numLayers : t;
        const int self = fuId(PeId{res.pe}, AbsTime{t});
        for (int dst : accel.linkTargets(res.pe)) {
            int target = fuId(PeId{dst}, AbsTime{next});
            if (!temporal && target == self)
                continue;
            moveDst.push_back(target);
        }
        if (temporal) {
            for (int k = 0; k < regsPerPe; ++k)
                moveDst.push_back(regId(PeId{res.pe}, k, AbsTime{next}));
        }
    }
    moveOff[static_cast<size_t>(total)] = static_cast<int>(moveDst.size());

    // In-layer move CSR: layer 0's rows with every target reduced to its
    // index within the next layer (identical for every layer).
    layerMoveOff.assign(moveOff.begin(), moveOff.begin() + perLayer + 1);
    layerMoveDst.reserve(static_cast<size_t>(layerMoveOff.back()));
    for (int i = 0; i < layerMoveOff.back(); ++i)
        layerMoveDst.push_back(moveDst[static_cast<size_t>(i)] % perLayer);

    predOff.assign(static_cast<size_t>(total) + 1, 0);
    for (int dst : moveDst)
        ++predOff[static_cast<size_t>(dst) + 1];
    for (int id = 0; id < total; ++id)
        predOff[static_cast<size_t>(id) + 1] +=
            predOff[static_cast<size_t>(id)];
    predSrc.resize(moveDst.size());
    {
        std::vector<int> cursor(predOff.begin(), predOff.end() - 1);
        for (int src = 0; src < total; ++src) {
            for (int dst : moveTargets(src))
                predSrc[static_cast<size_t>(
                    cursor[static_cast<size_t>(dst)]++)] = src;
        }
    }

    // Feeder CSR: resources readable by an op at FU(pe, t); row index is
    // layer * numPes + pe, filled in row order.
    feederOff.resize(static_cast<size_t>(numLayers) * pes + 1, 0);
    for (int t = 0; t < numLayers; ++t) {
        const int from = temporal ? (t - 1 + numLayers) % numLayers : t;
        for (int pe = 0; pe < pes; ++pe) {
            feederOff[static_cast<size_t>(t) * pes + pe] =
                static_cast<int>(feederIds.size());
            auto add_pe = [&](int src) {
                feederIds.push_back(fuId(PeId{src}, AbsTime{from}));
                for (int k = 0; k < regsPerPe; ++k)
                    feederIds.push_back(regId(PeId{src}, k, AbsTime{from}));
            };
            if (temporal)
                add_pe(pe); // a PE reads its own previous-cycle output
            for (int src : accel.linkSources(pe))
                add_pe(src);
        }
    }
    feederOff[static_cast<size_t>(numLayers) * pes] =
        static_cast<int>(feederIds.size());
}

Layer
Mrrg::layerOf(AbsTime time) const
{
    int layer = time % numLayers;
    return Layer{layer < 0 ? layer + numLayers : layer};
}

FuId
Mrrg::fuId(PeId pe, AbsTime time) const
{
    return FuId{layerOf(time) * perLayer + pe};
}

RrId
Mrrg::regId(PeId pe, int reg, AbsTime time) const
{
    const int pes = arch->numPes();
    return RrId{layerOf(time) * perLayer + pes + pe * regsPerPe + reg};
}

std::span<const int>
Mrrg::feeders(PeId pe, AbsTime time) const
{
    const int row = layerOf(time) * arch->numPes() + pe;
    return csrRow(feederOff, feederIds, row);
}

bool
Mrrg::canFeed(RrId holder, PeId pe, AbsTime time) const
{
    const auto list = feeders(pe, time);
    return std::find(list.begin(), list.end(), holder.value()) != list.end();
}

} // namespace lisa::arch
