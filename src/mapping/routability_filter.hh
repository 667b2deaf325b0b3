/**
 * @file
 * Learned routability filter: reject hopeless route attempts before the
 * router runs.
 *
 * Most route calls in an annealing sweep fail (the checked-in fig9a
 * baseline fails ~58% of them), and every failure still pays seed
 * collection, an oracle fetch and — for the congestion-driven cases — a
 * full DP sweep. The filter sits in front of routeEdge and predicts route
 * feasibility from cheap, pure functions of the mapping state:
 *
 *  - tier 0, the router's exact structural rule provablyUnroutable()
 *    (router.hh): a negative required length, or a producer FU whose
 *    oracle min-hop distance to the destination's feeder set exceeds the
 *    length budget. These rejections are provably identical to a router
 *    failure.
 *  - tier 1, a learned admission score: a tiny MLP (one ReLU hidden
 *    layer, flattened weights, allocation-free inference) over a
 *    10-feature vector — length, min-hops and slack (II headroom), layer
 *    distance mod II, II, producer fanout, destination-feeder and
 *    producer-neighbourhood occupancy, global overuse, and the
 *    allow-overuse cost mode. Trained offline (tools/train_routability)
 *    on (features, routed?) pairs logged by the --collect-routability
 *    bench mode. The learned tier only runs for contested
 *    (hard-capacity) calls: with overuse allowed, occupancy softens to
 *    costs and structurally feasible candidates always route, so those
 *    are admitted after tier 0 without features or inference.
 *
 * Admission semantics (LISA_ROUTE_FILTER knob):
 *  - off:     never consulted (historical behavior).
 *  - on:      a rejected edge is treated as a failed route without
 *             invoking the router; a deterministic 1-in-N sample of
 *             learned rejects is shadow-routed to estimate the
 *             false-reject rate (the verdict stands either way, so the
 *             sample spends time but never changes results).
 *  - strict:  consulted and counted, but every predicted reject is still
 *             routed for real and the router's answer wins — behavior is
 *             bit-identical to off (tests/test_routability_filter.cc
 *             pins this across SA/LISA).
 *  - collect: consulted for features only; every admitted call is routed
 *             and logged with its true outcome to the collection file.
 *
 * Determinism: a filter decision is a pure function of (mapping state,
 * model weights), and the shadow sample is a per-workspace counter, so
 * (seed, threads) reproducibility is preserved in every mode. The exact
 * router remains the authority — the filter only prunes candidate
 * generation, a filtered-out candidate is never committed as a route, and
 * final answers still pass the unconditional verifier.
 *
 * Models live beside the GNN label models (lisa_models/<accel>.routability
 * plus a .routability.meta carrying the ArchContext fabric fingerprint,
 * the PR 7 stale-model guard): a corrupt file or a foreign fingerprint
 * disables the filter instead of aborting. The loaded model is held by the
 * ArchContext so every workspace mapping on the fabric shares one
 * immutable copy.
 *
 * This header and routability_filter.cc are on the tools/lint.sh hot-file
 * list: the inference and feature paths (score / assess) must stay
 * allocation-free.
 */

#ifndef LISA_MAPPING_ROUTABILITY_FILTER_HH
#define LISA_MAPPING_ROUTABILITY_FILTER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "mapping/router.hh"

namespace lisa::arch {
class ArchContext;
}

namespace lisa::nn {
class Mlp;
}

namespace lisa::map {

class RouterWorkspace;

/** Admission modes of the LISA_ROUTE_FILTER knob. */
enum class RoutabilityMode { Off, On, Strict, Collect };

/**
 * Flattened per-accelerator admission model: one ReLU hidden layer over
 * the fixed feature vector, inference on stack scratch only. Immutable
 * once installed into an ArchContext.
 */
struct RoutabilityModel
{
    static constexpr int kFeatureCount = 10;
    /** Bump when the feature vector changes; stale models are rejected. */
    static constexpr int kFeatureVersion = 1;
    static constexpr int kMaxHidden = 256;

    /** ArchContext::fingerprint() of the fabric this was trained on. */
    uint64_t fingerprint = 0;
    /** Admission threshold: scores below it predict "unroutable". */
    double threshold = 0.5;
    int hidden = 0;
    std::vector<double> w1; ///< [hidden][kFeatureCount], hidden-major
    std::vector<double> b1; ///< [hidden]
    std::vector<double> w2; ///< [hidden]
    double b2 = 0.0;

    /** Feasibility score of feature vector @p f (higher = routable). */
    double
    score(const double *f) const
    {
        double out = b2;
        const double *w = w1.data();
        for (int j = 0; j < hidden; ++j, w += kFeatureCount) {
            double z = b1[static_cast<size_t>(j)];
            for (int i = 0; i < kFeatureCount; ++i)
                z += w[i] * f[i];
            if (z > 0.0)
                out += w2[static_cast<size_t>(j)] * z;
        }
        return out;
    }
};

/** Outcome of one admission query. */
struct RoutabilityVerdict
{
    /** The filter applied to this call (temporal edge, filter active). */
    bool consulted = false;
    /** Predicted infeasible at this placement. */
    bool reject = false;
    /** The reject is a tier-0 structural rule (exact, never shadowed). */
    bool provable = false;
};

/**
 * Per-workspace admission front. bind() resolves the mode knob and the
 * context-held model once per attempt stream; assess() is the hot query.
 * Not thread-safe (part of a RouterWorkspace).
 */
class RoutabilityFilter
{
  public:
    /** Shadow-route every Nth learned reject (deterministic per stream). */
    static constexpr uint64_t kShadowStride = 256;

    /**
     * Resolve mode and model against @p ctx (null disables). Modes that
     * need a model (on / strict) degrade to off when @p ctx holds none.
     */
    void bind(arch::ArchContext *ctx);

    /** True when assess() should be consulted at all. */
    bool
    enabled() const
    {
        return mode_ != RoutabilityMode::Off;
    }

    RoutabilityMode mode() const { return mode_; }

    /**
     * Disable the learned tier for this workspace: only the exact
     * tier-0 structural rules may reject. Completeness-sensitive
     * searches (the exhaustive exact mapper) use this so a learned
     * false reject can never prune a route the enumeration needed —
     * tier-0 rejects are router-identical, so optimality is preserved.
     * Sticky across bind() calls.
     */
    void restrictToProvable() { provableOnly_ = true; }

    /** Deterministic 1-in-kShadowStride sampling of learned rejects. */
    bool shadowDue() { return (rejectTick_++ % kShadowStride) == 0; }

    /**
     * Learned (tier-1, non-provable) vetoes issued since bind(). Every
     * `on`-mode learned reject passes through shadowDue(), so this is
     * exact there; tier-0 rejects never tick it. Completeness-sensitive
     * callers use it to detect that a failed search may have been pruned
     * by a fallible prediction (see ExactMapper's fail-closed rerun).
     */
    uint64_t learnedRejects() const { return rejectTick_; }

    /**
     * Decide admission for edge @p e of @p mapping and fill @p f (size
     * kFeatureCount) with the feature vector when the learned tier ran.
     * Tier 0 is provablyUnroutable() (router.hh), so a tier-0 reject is
     * exactly a call the router would fail. Pure over the mapping state
     * (binds @p ws's oracle); performs no allocation.
     */
    RoutabilityVerdict assess(const Mapping &mapping, dfg::EdgeId e,
                              const RouterCosts &costs, RouterWorkspace &ws,
                              double *f);

    /** Append one (features, routed?) pair to the collection sink. */
    void logSample(const double *f, bool routed) const;

  private:
    static double
    busyFraction(const Mapping &mapping, std::span<const int> resources)
    {
        if (resources.empty())
            return 0.0;
        int busy = 0;
        for (int r : resources)
            busy += mapping.numInstancesOn(r) > 0 ? 1 : 0;
        return static_cast<double>(busy) /
               static_cast<double>(resources.size());
    }

    std::shared_ptr<const RoutabilityModel> keepalive_;
    const RoutabilityModel *model_ = nullptr;
    const arch::ArchContext *boundCtx_ = nullptr;
    RoutabilityMode mode_ = RoutabilityMode::Off;
    bool provableOnly_ = false;
    uint64_t rejectTick_ = 0;
};

/** @{ Mode knob: LISA_ROUTE_FILTER={off,on,strict,collect}; unset = on
 *  (inactive until a model is installed). The setter overrides the
 *  environment for tests and the bench collect flag. */
RoutabilityMode routabilityMode();
void setRoutabilityMode(RoutabilityMode mode);
/** @} */

namespace detail {
/** Test-only: forget any resolved/overridden mode so the next
 *  routabilityMode() call re-runs the lazy env resolve. Exists for the
 *  TSan regression racing the resolve against setRoutabilityMode(); never
 *  call while mapping is in flight. */
void resetRoutabilityModeForTest();
} // namespace detail

/** @{ Collection sink for --collect-routability ("" disables). The file
 *  is truncated on first write and starts with a header carrying the
 *  accelerator name, fabric fingerprint and feature version. Failures are
 *  logged unconditionally, successes 1-in-4 (rebalances the classes; the
 *  trainer's threshold selection is ratio-invariant). */
void setRoutabilityCollection(std::string path);
bool routabilityCollecting();
/** @} */

/**
 * Flatten a trained nn::Mlp(kFeatureCount, hidden, 1) into @p out
 * (weights only; fingerprint/threshold are the caller's).
 */
bool flattenRoutabilityMlp(const nn::Mlp &mlp, RoutabilityModel &out);

/**
 * Save @p mlp and its admission metadata as
 * dir/<accel>.routability + dir/<accel>.routability.meta.
 */
bool saveRoutabilityModel(const nn::Mlp &mlp, uint64_t fingerprint,
                          double threshold, const std::string &dir,
                          const std::string &accel_name);

/**
 * Read dir/<accel>.routability(.meta) without installing it. Returns null
 * and sets @p error on a missing/corrupt/foreign-version file.
 */
std::shared_ptr<const RoutabilityModel>
readRoutabilityModel(const std::string &dir, const std::string &accel_name,
                     std::string *error);

/**
 * Lazily load the admission model for @p ctx's accelerator from @p dir
 * into the context slot (at most one attempt per context). A missing,
 * corrupt or foreign-fingerprint file leaves the filter disabled; this
 * never aborts. Returns true when a model is installed after the call.
 */
bool loadRoutabilityModel(arch::ArchContext &ctx, const std::string &dir);

} // namespace lisa::map

#endif // LISA_MAPPING_ROUTABILITY_FILTER_HH
