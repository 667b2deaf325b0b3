#include "mapping/router_workspace.hh"

#include <algorithm>

namespace lisa::map {

namespace {

/** Min-heap comparator. Lexicographic like the std::greater<> the router
 *  historically used with std::priority_queue, so the pop order (and thus
 *  tie-breaking among equal-cost routes) is bit-identical. */
struct HeapGreater
{
    bool
    operator()(const std::pair<double, int> &a,
               const std::pair<double, int> &b) const
    {
        return a > b;
    }
};

} // namespace

void
RouterWorkspace::beginSpatial(int numResources)
{
    ++epoch;
    const size_t n = static_cast<size_t>(numResources);
    ensure(cost, n);
    ensure(parent, n);
    ensure(seedStep, n);
    ensure(seedEdge, n);
    ensure(stamp, n);
    ensure(goalStamp, n);
    ensure(memoCost, n);
    ensure(memoStamp, n);
    heap.clear();
}

RouterWorkspace::DpRows
RouterWorkspace::beginTemporal(int steps, int perLayer)
{
    dpPerLayer = static_cast<size_t>(perLayer);
    const size_t cells = static_cast<size_t>(steps) * dpPerLayer;
    ensure(dpCost, cells);
    ensure(dpParent, cells);
    ensure(dpSeedEdge, cells);
    ensure(memoCost, dpPerLayer);
    ensure(memoStamp, dpPerLayer);
    std::fill_n(dpCost.begin(), cells, kInf);
    return DpRows{dpCost.data(), dpParent.data(), dpSeedEdge.data(),
                  memoCost.data(), memoStamp.data()};
}

void
RouterWorkspace::pushHeap(double c, int res)
{
    if (heap.size() == heap.capacity())
        ++growthEvents;
    // lint:allow-growth (amortized heap storage, growth is counted)
    heap.emplace_back(c, res);
    std::push_heap(heap.begin(), heap.end(), HeapGreater{});
}

std::pair<double, int>
RouterWorkspace::popHeap()
{
    std::pop_heap(heap.begin(), heap.end(), HeapGreater{});
    auto item = heap.back();
    heap.pop_back();
    return item;
}

size_t
RouterWorkspace::capacityBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(typename std::decay_t<
                                     decltype(v)>::value_type);
    };
    return bytes(cost) + bytes(parent) + bytes(seedStep) + bytes(seedEdge) +
           bytes(stamp) + bytes(goalStamp) + bytes(heap) + bytes(dpCost) +
           bytes(dpParent) + bytes(dpSeedEdge) +
           bytes(memoCost) + bytes(memoStamp) + bytes(seeds) +
           bytes(result.path) + oracle.capacityBytes();
}

} // namespace lisa::map
