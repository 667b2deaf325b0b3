/**
 * @file
 * Learned routability filter: reject hopeless route attempts before the
 * router runs.
 *
 * Most route calls in an annealing sweep fail (the checked-in fig9a
 * baseline fails ~58% of them), and every failure still pays seed
 * collection, an oracle fetch and — for the congestion-driven cases — a
 * full DP sweep. Two tiers at the top of routeEdge predict route
 * feasibility from cheap, pure functions of the mapping state:
 *
 *  - tier 0, the router's exact structural rule provablyUnroutable()
 *    (router.hh): a negative required length, or a producer FU whose
 *    oracle min-hop distance to the destination's feeder set exceeds the
 *    length budget. routeEdge answers it itself on every temporal call,
 *    for every caller, with or without a model; its rejects are provably
 *    identical to a router failure.
 *  - tier 1, a learned admission score: a tiny MLP (one ReLU hidden
 *    layer, flattened weights, allocation-free inference) over a
 *    10-feature vector — length, min-hops and slack (II headroom), layer
 *    distance mod II, II, producer fanout, destination-feeder and
 *    producer-neighbourhood occupancy, global overuse, and the
 *    allow-overuse cost mode. Trained offline (tools/train_routability)
 *    on (features, routed?) pairs logged by the --collect-routability
 *    bench flag. The learned tier only adjudicates contested
 *    (hard-capacity) calls: with overuse allowed, occupancy softens to
 *    costs and structurally feasible candidates always route. Only the
 *    exact mapper routes with hard capacity, so only it arms the tier
 *    (LearnedAdmission below) whenever the context holds a model.
 *
 * Admission on an armed workspace, after tier 0 admitted the call:
 *  - collecting (a sink path is set, setRoutabilityCollection): the call
 *    is routed and logged with its real outcome; no veto is taken.
 *  - otherwise a score below the model threshold is treated as a failed
 *    route without invoking the router. A deterministic 1-in-N sample of
 *    these vetoes is shadow-routed to estimate the false-reject rate (the
 *    veto stands either way, so the sample spends time but never changes
 *    results). The exact mapper reruns a search that completed
 *    empty-handed after vetoes without the model, so a false reject can
 *    never become an "unmappable" verdict.
 *
 * Determinism: a decision is a pure function of (mapping state, model
 * weights), and the shadow sample is a per-workspace counter, so
 * (seed, threads) reproducibility is preserved. The exact router remains
 * the authority — the filter only prunes candidate generation, a
 * filtered-out candidate is never committed as a route, and final answers
 * still pass the unconditional verifier.
 *
 * Models live beside the GNN label models (lisa_models/<accel>.routability
 * plus a .routability.meta carrying the ArchContext fabric fingerprint,
 * the PR 7 stale-model guard): a corrupt file or a foreign fingerprint
 * leaves the learned tier unarmed instead of aborting. The loaded model
 * is held by the ArchContext so every search on the fabric shares one
 * immutable copy.
 *
 * This header and routability_filter.cc are on the tools/lint.sh hot-file
 * list: the inference and feature paths (score /
 * fillRoutabilityFeatures) must stay allocation-free.
 */

#ifndef LISA_MAPPING_ROUTABILITY_FILTER_HH
#define LISA_MAPPING_ROUTABILITY_FILTER_HH

#include <cstdint>
#include <memory>
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

/**
 * The learned tier's per-workspace state. Idle by default; the exact
 * mapper arms it once per search (ExactMapper::tryMap). routeEdge
 * consults it on contested (allowOveruse == false) temporal calls that
 * tier 0 admitted.
 */
struct LearnedAdmission
{
    /** Shadow-route every Nth learned veto (deterministic per search). */
    static constexpr uint64_t kShadowStride = 256;

    /** Veto calls this model scores below its threshold (null: none). */
    const RoutabilityModel *model = nullptr;
    /** Log contested calls with their real outcome to the collection
     *  sink, headed with this fabric (null: no logging). A logging
     *  workspace takes no veto. */
    const arch::ArchContext *collectFor = nullptr;
    /** Learned vetoes issued; tier-0 rejects never count. The exact
     *  mapper reads it to tell whether a failed search may have been
     *  pruned by a fallible prediction. */
    uint64_t vetoes = 0;

    bool armed() const { return model != nullptr || collectFor != nullptr; }
};

/**
 * Fill @p f (size kFeatureCount) with the learned tier's feature vector
 * for edge @p e of @p mapping. Pure over the mapping state (binds
 * @p ws's oracle); performs no allocation.
 */
void fillRoutabilityFeatures(const Mapping &mapping, dfg::EdgeId e,
                             const RouterCosts &costs, RouterWorkspace &ws,
                             double *f);

/** @{ Collection sink for --collect-routability ("" disables). The file
 *  is truncated on first write and starts with a header carrying the
 *  accelerator name, fabric fingerprint and feature version. Failures are
 *  logged unconditionally, successes 1-in-4 (rebalances the classes; the
 *  trainer's threshold selection is ratio-invariant). logRoutabilitySample
 *  appends one (features, routed?) pair for fabric @p ctx, and is a no-op
 *  while no sink path is set. */
void setRoutabilityCollection(std::string path);
bool routabilityCollecting();
void logRoutabilitySample(const arch::ArchContext &ctx, const double *f,
                          bool routed);
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
 * corrupt or foreign-fingerprint file leaves the learned tier unarmed; this
 * never aborts. Returns true when a model is installed after the call.
 */
bool loadRoutabilityModel(arch::ArchContext &ctx, const std::string &dir);

} // namespace lisa::map

#endif // LISA_MAPPING_ROUTABILITY_FILTER_HH
