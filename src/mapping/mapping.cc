#include "mapping/mapping.hh"

#include <algorithm>

#include "support/logging.hh"

namespace lisa::map {

Mapping::Mapping(const dfg::Dfg &dfg, std::shared_ptr<const arch::Mrrg> mrrg)
    : graph(&dfg), rrg(std::move(mrrg)),
      temporal(rrg->accel().temporalMapping())
{
    // Enough slack for schedules that stretch past the critical path while
    // wrapping the II a couple of times.
    maxTime = dfg::criticalPathLength(dfg) + 2 * rrg->ii() + 4;
    if (!temporal)
        maxTime = 1;
    if (maxTime >= kTimeSpan)
        fatal("schedule horizon ", maxTime, " exceeds key span");
    place.assign(dfg.numNodes(), Placement{});
    routes.assign(dfg.numEdges(), {});
    routed.assign(dfg.numEdges(), false);
    occ.assign(rrg->numResources(), {});
    occCount.assign(rrg->numResources(), 0);
    occFirst.assign(rrg->numResources(), kNoInstance);
}

int64_t
Mapping::instanceKey(dfg::NodeId v, AbsTime abs_time) const
{
    const int t = temporal ? abs_time : 0;
    return static_cast<int64_t>(v) * kTimeSpan + t;
}

void
Mapping::placeNode(dfg::NodeId v, PeId pe, AbsTime time)
{
    if (place[v].mapped())
        panic("placeNode: node ", v, " already placed");
    if (pe < 0 || pe >= rrg->accel().numPes())
        panic("placeNode: PE ", pe, " out of range");
    if (time < 0 || time >= maxTime)
        panic("placeNode: time ", time, " outside [0, ", maxTime, ")");
    place[v] = Placement{pe, time};
    ++placedCount;
    addInstance(rrg->fuId(pe, time), instanceKey(v, time));
    if (txnActive && !txnReplaying)
        txnLog.push_back(TxnOp{TxnOp::Kind::Place, v, {}, {}});
}

void
Mapping::unplaceNode(dfg::NodeId v)
{
    if (!place[v].mapped())
        return;
    for (dfg::EdgeId e : graph->outEdges(v)) {
        if (routed[e])
            panic("unplaceNode: node ", v, " still has routed out-edge ", e);
    }
    for (dfg::EdgeId e : graph->inEdges(v)) {
        if (routed[e])
            panic("unplaceNode: node ", v, " still has routed in-edge ", e);
    }
    if (txnActive && !txnReplaying)
        txnLog.push_back(TxnOp{TxnOp::Kind::Unplace, v, place[v], {}});
    removeInstance(rrg->fuId(place[v].pe, place[v].time),
                   instanceKey(v, place[v].time));
    place[v] = Placement{};
    --placedCount;
}

void
Mapping::setRoute(dfg::EdgeId e, std::vector<int> path)
{
    occupyRoute(e, path);
    routes[e] = std::move(path);
}

void
Mapping::assignRoute(dfg::EdgeId e, std::span<const int> path)
{
    occupyRoute(e, path);
    routes[e].assign(path.begin(), path.end());
}

void
Mapping::occupyRoute(dfg::EdgeId e, std::span<const int> path)
{
    if (routed[e])
        panic("setRoute: edge ", e, " already routed");
    const dfg::Edge &edge = graph->edge(e);
    if (!place[edge.src].mapped() || !place[edge.dst].mapped())
        panic("setRoute: edge ", e, " has unplaced endpoints");
    const int src_time = place[edge.src].time;
    for (size_t i = 0; i < path.size(); ++i) {
        addInstance(path[i],
                    instanceKey(edge.src,
                                AbsTime{src_time + static_cast<int>(i) +
                                        1}));
    }
    routeResourceCount += static_cast<int>(path.size());
    routed[e] = true;
    ++routedCount;
    if (txnActive && !txnReplaying)
        txnLog.push_back(TxnOp{TxnOp::Kind::SetRoute, e, {}, {}});
}

void
Mapping::clearRoute(dfg::EdgeId e)
{
    if (!routed[e])
        return;
    const dfg::Edge &edge = graph->edge(e);
    const int src_time = place[edge.src].time;
    for (size_t i = 0; i < routes[e].size(); ++i) {
        removeInstance(
            routes[e][i],
            instanceKey(edge.src,
                        AbsTime{src_time + static_cast<int>(i) + 1}));
    }
    routeResourceCount -= static_cast<int>(routes[e].size());
    if (txnActive && !txnReplaying)
        txnLog.push_back(
            TxnOp{TxnOp::Kind::ClearRoute, e, {}, std::move(routes[e])});
    routes[e].clear();
    routed[e] = false;
    --routedCount;
}

int
Mapping::requiredLength(dfg::EdgeId e) const
{
    if (!temporal)
        return -2;
    const dfg::Edge &edge = graph->edge(e);
    const Placement &src = place[edge.src];
    const Placement &dst = place[edge.dst];
    if (!src.mapped() || !dst.mapped())
        panic("requiredLength: edge ", e, " has unplaced endpoints");
    return dst.time + edge.iterDistance * rrg->ii() - 1 - src.time;
}

int
Mapping::resourceOveruse(int res) const
{
    return std::max(0, numInstancesOn(res) - 1);
}

std::vector<dfg::NodeId>
Mapping::valuesOn(int res) const
{
    std::vector<dfg::NodeId> out;
    out.reserve(occ[res].size());
    for (const InstanceRef &ir : occ[res])
        out.push_back(static_cast<dfg::NodeId>(ir.key / kTimeSpan));
    return out;
}

bool
Mapping::valid() const
{
    return placedCount == graph->numNodes() &&
           routedCount == graph->numEdges() && overuse == 0;
}

void
Mapping::beginTransaction()
{
    if (txnActive)
        panic("beginTransaction: transaction already active");
    txnActive = true;
    txnBase = costSnapshot();
    txnLog.clear();
}

void
Mapping::commitTransaction()
{
    if (!txnActive)
        panic("commitTransaction: no active transaction");
    txnActive = false;
    txnLog.clear();
}

void
Mapping::rollbackTransaction()
{
    if (!txnActive)
        panic("rollbackTransaction: no active transaction");
    txnReplaying = true;
    for (auto it = txnLog.rbegin(); it != txnLog.rend(); ++it) {
        switch (it->kind) {
          case TxnOp::Kind::Place:
            unplaceNode(static_cast<dfg::NodeId>(it->id));
            break;
          case TxnOp::Kind::Unplace:
            placeNode(static_cast<dfg::NodeId>(it->id), it->prevPlace.pe,
                      it->prevPlace.time);
            break;
          case TxnOp::Kind::SetRoute:
            clearRoute(static_cast<dfg::EdgeId>(it->id));
            break;
          case TxnOp::Kind::ClearRoute:
            setRoute(static_cast<dfg::EdgeId>(it->id),
                     std::move(it->prevPath));
            break;
        }
    }
    txnReplaying = false;
    txnActive = false;
    txnLog.clear();
}

const CostSnapshot &
Mapping::transactionBase() const
{
    if (!txnActive)
        panic("transactionBase: no active transaction");
    return txnBase;
}

void
Mapping::clear()
{
    if (txnActive)
        panic("clear: transaction still active");
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(graph->numEdges());
         ++e) {
        clearRoute(e);
    }
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(graph->numNodes());
         ++v) {
        unplaceNode(v);
    }
}

void
Mapping::addInstance(int res, int64_t key)
{
    auto &entries = occ[res];
    for (InstanceRef &ir : entries) {
        if (ir.key == key) {
            ++ir.refs;
            return;
        }
    }
    if (entries.empty())
        occFirst[static_cast<size_t>(res)] = key;
    else
        ++overuse;
    entries.push_back(InstanceRef{key, 1});
    ++occCount[static_cast<size_t>(res)];
}

void
Mapping::removeInstance(int res, int64_t key)
{
    auto &entries = occ[res];
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].key != key)
            continue;
        if (--entries[i].refs == 0) {
            entries.erase(entries.begin() + static_cast<long>(i));
            --occCount[static_cast<size_t>(res)];
            if (!entries.empty())
                --overuse;
            if (i == 0)
                occFirst[static_cast<size_t>(res)] =
                    entries.empty() ? kNoInstance : entries.front().key;
        }
        return;
    }
    panic("removeInstance: key ", key, " not on resource ", res);
}

} // namespace lisa::map
