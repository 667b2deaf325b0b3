#include "verify/verify.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"

namespace lisa::verify {

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::PeOutOfRange:
        return "pe-out-of-range";
      case ViolationKind::TimeOutOfRange:
        return "time-out-of-range";
      case ViolationKind::OpUnsupported:
        return "op-unsupported";
      case ViolationKind::RouteEndpointUnplaced:
        return "route-endpoint-unplaced";
      case ViolationKind::RouteLengthMismatch:
        return "route-length-mismatch";
      case ViolationKind::RouteLayerMismatch:
        return "route-layer-mismatch";
      case ViolationKind::RouteBrokenChain:
        return "route-broken-chain";
      case ViolationKind::RouteBadLastHop:
        return "route-bad-last-hop";
      case ViolationKind::OccupancyMismatch:
        return "occupancy-mismatch";
      case ViolationKind::OveruseMismatch:
        return "overuse-mismatch";
      case ViolationKind::AccumulatorMismatch:
        return "accumulator-mismatch";
      case ViolationKind::NodeUnplaced:
        return "node-unplaced";
      case ViolationKind::EdgeUnrouted:
        return "edge-unrouted";
      case ViolationKind::InstanceConflict:
        return "instance-conflict";
    }
    return "unknown";
}

bool
VerifyReport::has(ViolationKind kind) const
{
    return count(kind) > 0;
}

int
VerifyReport::count(ViolationKind kind) const
{
    int n = 0;
    for (const Violation &v : violations)
        if (v.kind == kind)
            ++n;
    return n;
}

std::string
VerifyReport::toString() const
{
    if (ok())
        return "ok";
    std::ostringstream os;
    os << violations.size() << " violation(s):";
    for (const Violation &v : violations)
        os << "\n  [" << violationKindName(v.kind) << "] " << v.detail;
    return os.str();
}

namespace {

/**
 * Occupancy table re-derived from placements and routes only: per
 * resource, the distinct (producer, absolute-time) instance keys living
 * on it. Vectors stay tiny (overuse is rare), so linear scans beat
 * hashing.
 */
class DerivedOccupancy
{
  public:
    explicit DerivedOccupancy(size_t num_resources) : keys(num_resources) {}

    void
    add(int res, int64_t key)
    {
        auto &k = keys[static_cast<size_t>(res)];
        if (std::find(k.begin(), k.end(), key) == k.end())
            k.push_back(key);
    }

    const std::vector<int64_t> &
    at(int res) const
    {
        return keys[static_cast<size_t>(res)];
    }

    size_t size() const { return keys.size(); }

    int
    totalOveruse() const
    {
        int total = 0;
        for (const auto &k : keys)
            total += std::max<int>(0, static_cast<int>(k.size()) - 1);
        return total;
    }

  private:
    std::vector<std::vector<int64_t>> keys;
};

/** Verification pass state shared by the check groups. */
struct Checker
{
    const dfg::Dfg &dfg;
    const arch::Mrrg &mrrg;
    const map::Mapping &mapping;
    const VerifyOptions &options;
    VerifyReport report;
    DerivedOccupancy derived;
    bool temporal;

    Checker(const dfg::Dfg &d, const arch::Mrrg &m, const map::Mapping &mp,
            const VerifyOptions &o)
        : dfg(d), mrrg(m), mapping(mp), options(o),
          derived(static_cast<size_t>(m.numResources())),
          temporal(m.accel().temporalMapping())
    {
    }

    template <typename... Args>
    void
    violate(ViolationKind kind, Args &&...args)
    {
        std::ostringstream os;
        (os << ... << args);
        report.violations.push_back(Violation{kind, os.str()});
    }

    /**
     * Instance key of producer @p v live at absolute time @p abs_time,
     * computed from the documented rule rather than through
     * Mapping::instanceKey: spatial-only architectures collapse the time
     * component, temporal ones key by (producer, absolute time).
     */
    int64_t
    keyOf(dfg::NodeId v, int abs_time) const
    {
        const int64_t t = temporal ? abs_time : 0;
        return static_cast<int64_t>(v) * map::Mapping::kTimeSpan + t;
    }

    /** True when a value resident on @p from can move to @p to in one
     *  cycle, straight from the MRRG's move-edge lists. */
    bool
    canMove(int from, int to) const
    {
        const auto targets = mrrg.moveTargets(from);
        return std::find(targets.begin(), targets.end(), to) !=
               targets.end();
    }

    /** True when @p p names a PE and time the MRRG can index, i.e.
     *  checkPlacements reported nothing out of range for it. */
    bool
    inRange(const map::Placement &p) const
    {
        return p.pe >= 0 && p.pe < mrrg.accel().numPes() && p.time >= 0 &&
               p.time < mapping.horizon() && (temporal || p.time == 0);
    }

    void checkPlacements();
    void checkRoutes();
    void checkRoute(dfg::EdgeId e);
    void checkBookkeeping();
    void checkCompleteness();
};

void
Checker::checkPlacements()
{
    const int num_pes = mrrg.accel().numPes();
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(dfg.numNodes());
         ++v) {
        if (!mapping.isPlaced(v))
            continue;
        const map::Placement &p = mapping.placement(v);
        if (p.pe < 0 || p.pe >= num_pes) {
            violate(ViolationKind::PeOutOfRange, "node ", v, " on PE ",
                    p.pe, ", array has ", num_pes);
        }
        if (p.time < 0 || p.time >= mapping.horizon() ||
            (!temporal && p.time != 0)) {
            violate(ViolationKind::TimeOutOfRange, "node ", v, " at time ",
                    p.time, ", horizon ", mapping.horizon());
        }
        if (!inRange(p))
            continue;
        if (!mrrg.accel().supportsOp(p.pe, dfg.node(v).op)) {
            violate(ViolationKind::OpUnsupported, "node ", v, " (",
                    dfg::opName(dfg.node(v).op), ") on PE ", p.pe);
        }
        derived.add(mrrg.fuId(p.pe, p.time), keyOf(v, p.time));
    }
}

void
Checker::checkRoutes()
{
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (mapping.isRouted(e))
            checkRoute(e);
    }
}

void
Checker::checkRoute(dfg::EdgeId e)
{
    const dfg::Edge &edge = dfg.edge(e);
    if (!mapping.isPlaced(edge.src) || !mapping.isPlaced(edge.dst)) {
        violate(ViolationKind::RouteEndpointUnplaced, "edge ", e, " (",
                edge.src, " -> ", edge.dst, ") routed with unplaced ",
                mapping.isPlaced(edge.src) ? "dst" : "src");
        return;
    }
    const map::Placement &src = mapping.placement(edge.src);
    const map::Placement &dst = mapping.placement(edge.dst);
    // checkPlacements already reports an out-of-range endpoint, and the
    // checks below index the MRRG by the endpoints' PE and time, so they
    // would read out of bounds.
    if (!inRange(src) || !inRange(dst))
        return;
    const auto &path = mapping.route(e);
    const int num_resources = mrrg.numResources();
    const int ii = mrrg.ii();

    // Schedule-time coherence: on temporal architectures the hop count is
    // fully determined by the endpoint times and the iteration distance.
    if (temporal) {
        const int required =
            dst.time + edge.iterDistance * ii - 1 - src.time;
        if (required < 0 ||
            static_cast<int>(path.size()) != required) {
            violate(ViolationKind::RouteLengthMismatch, "edge ", e, " has ",
                    path.size(), " hops, schedule requires ", required);
            return; // hop-by-hop checks would only cascade
        }
    } else if (edge.src == edge.dst && !path.empty()) {
        violate(ViolationKind::RouteLengthMismatch, "edge ", e,
                " is a spatial self-loop but has ", path.size(), " hops");
        return;
    }

    // Connectivity: a contiguous move chain from the producer FU.
    int prev = mrrg.fuId(src.pe, src.time);
    bool chain_ok = true;
    for (size_t i = 0; i < path.size(); ++i) {
        const int res = path[i];
        if (res < 0 || res >= num_resources) {
            violate(ViolationKind::RouteBrokenChain, "edge ", e, " hop ", i,
                    " names resource ", res, ", graph has ", num_resources);
            chain_ok = false;
            break;
        }
        if (temporal) {
            const int want_layer =
                (src.time + static_cast<int>(i) + 1) % ii;
            if (mrrg.layerOfResource(res) != want_layer) {
                violate(ViolationKind::RouteLayerMismatch, "edge ", e,
                        " hop ", i, " on layer ",
                        mrrg.layerOfResource(res), ", II folding requires ",
                        want_layer);
                chain_ok = false;
            }
        }
        if (!canMove(prev, res)) {
            violate(ViolationKind::RouteBrokenChain, "edge ", e, " hop ", i,
                    ": resource ", res, " is not a move target of ", prev);
            chain_ok = false;
        }
        prev = res;
    }

    // The final holder (last hop, or the producer FU for direct feeds)
    // must be readable by the consumer op. In-PE self-loops on spatial
    // arrays execute inside the PE and need no feeder.
    if (chain_ok && !(edge.src == edge.dst && !temporal)) {
        if (!mrrg.canFeed(RrId{prev}, dst.pe, dst.time)) {
            violate(ViolationKind::RouteBadLastHop, "edge ", e,
                    ": holder ", prev, " cannot feed node ", edge.dst,
                    " at FU(", dst.pe, ", ", dst.time, ")");
        }
    }

    // Occupancy contribution, keyed by (producer, absolute time).
    for (size_t i = 0; i < path.size(); ++i) {
        if (path[i] < 0 || path[i] >= num_resources)
            break;
        derived.add(path[i],
                    keyOf(edge.src, src.time + static_cast<int>(i) + 1));
    }
}

void
Checker::checkBookkeeping()
{
    // Cached per-resource instances must match the re-derived table in
    // both directions (a missing *and* a phantom instance is a bug).
    for (int res = 0; res < mrrg.numResources(); ++res) {
        const auto &want = derived.at(res);
        if (mapping.numInstancesOn(res) !=
            static_cast<int>(want.size())) {
            violate(ViolationKind::OccupancyMismatch, "resource ", res,
                    " caches ", mapping.numInstancesOn(res),
                    " instance(s), placements/routes imply ", want.size());
            continue;
        }
        for (int64_t key : want) {
            if (!mapping.holdsInstance(res, key)) {
                violate(ViolationKind::OccupancyMismatch, "resource ", res,
                        " is missing instance key ", key);
            }
        }
    }

    if (mapping.totalOveruse() != derived.totalOveruse()) {
        violate(ViolationKind::OveruseMismatch, "cached overuse ",
                mapping.totalOveruse(), ", re-derived ",
                derived.totalOveruse());
    }

    size_t placed = 0;
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(dfg.numNodes());
         ++v) {
        if (mapping.isPlaced(v))
            ++placed;
    }
    size_t routed = 0;
    int route_slots = 0;
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (mapping.isRouted(e)) {
            ++routed;
            route_slots += static_cast<int>(mapping.route(e).size());
        }
    }
    if (placed != mapping.numPlaced()) {
        violate(ViolationKind::AccumulatorMismatch, "cached placed count ",
                mapping.numPlaced(), ", re-derived ", placed);
    }
    if (routed != mapping.numRouted()) {
        violate(ViolationKind::AccumulatorMismatch, "cached routed count ",
                mapping.numRouted(), ", re-derived ", routed);
    }
    if (route_slots != mapping.totalRouteResources()) {
        violate(ViolationKind::AccumulatorMismatch,
                "cached route-resource count ",
                mapping.totalRouteResources(), ", re-derived ",
                route_slots);
    }
}

void
Checker::checkCompleteness()
{
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(dfg.numNodes());
         ++v) {
        if (!mapping.isPlaced(v))
            violate(ViolationKind::NodeUnplaced, "node ", v, " (",
                    dfg::opName(dfg.node(v).op), ") unplaced");
    }
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (!mapping.isRouted(e))
            violate(ViolationKind::EdgeUnrouted, "edge ", e, " (",
                    dfg.edge(e).src, " -> ", dfg.edge(e).dst, ") unrouted");
    }
    for (int res = 0; res < mrrg.numResources(); ++res) {
        const auto &keys = derived.at(res);
        if (keys.size() > 1) {
            std::ostringstream os;
            for (int64_t key : keys) {
                os << ' '
                   << key / map::Mapping::kTimeSpan << '@'
                   << key % map::Mapping::kTimeSpan;
            }
            violate(ViolationKind::InstanceConflict, "resource ", res,
                    " carries ", keys.size(),
                    " distinct instances (producer@time):", os.str());
        }
    }
}

} // namespace

VerifyReport
verifyMapping(const dfg::Dfg &dfg, const arch::Mrrg &mrrg,
              const map::Mapping &mapping, const VerifyOptions &options)
{
    if (&mapping.dfg() != &dfg || &mapping.mrrg() != &mrrg)
        panic("verifyMapping: mapping was built against a different "
              "DFG/MRRG");
    Checker checker(dfg, mrrg, mapping, options);
    checker.checkPlacements();
    checker.checkRoutes();
    checker.checkBookkeeping();
    if (options.requireComplete)
        checker.checkCompleteness();
    return std::move(checker.report);
}

void
checkOrDie(const map::Mapping &mapping, const VerifyOptions &options,
           const char *where)
{
    VerifyReport report =
        verifyMapping(mapping.dfg(), mapping.mrrg(), mapping, options);
    if (!report.ok())
        panic("mapping verification failed at ", where, ": ",
              report.toString());
}

} // namespace lisa::verify
