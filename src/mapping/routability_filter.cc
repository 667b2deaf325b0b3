/**
 * @file
 * The routability filter's admission query (assess, hot and
 * allocation-free) and its cold paths: mode-knob resolution, the
 * --collect-routability sample sink, and model (de)serialization with the
 * fabric-fingerprint stale-model guard.
 */

#include "mapping/routability_filter.hh"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "arch/arch_context.hh"
#include "mapping/router_workspace.hh"
#include "nn/module.hh"
#include "nn/serialize.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/thread_annotations.hh"

namespace lisa::map {

namespace {

constexpr int kModeUnresolved = -1;
/** Process-wide mode cell. Ordering contract: the cell carries a plain
 *  enum with no dependent data, so every access is relaxed; the only
 *  invariant is write-atomicity plus the compare_exchange in
 *  routabilityMode() that keeps a concurrent setRoutabilityMode() from
 *  being overwritten by the lazy env resolve (PR 8's lost-update fix,
 *  pinned by RoutabilityModeRace.ExplicitOverrideBeatsEnvResolve). */
std::atomic<int> g_mode{kModeUnresolved};

// lint:cold-begin(env knob: read once per process by routabilityMode())
int
parseModeEnv()
{
    const char *env = std::getenv("LISA_ROUTE_FILTER");
    if (env == nullptr)
        return static_cast<int>(RoutabilityMode::On);
    const std::string v(env);
    if (v.empty() || v == "on" || v == "1")
        return static_cast<int>(RoutabilityMode::On);
    if (v == "off" || v == "0")
        return static_cast<int>(RoutabilityMode::Off);
    if (v == "strict")
        return static_cast<int>(RoutabilityMode::Strict);
    if (v == "collect")
        return static_cast<int>(RoutabilityMode::Collect);
    warn("LISA_ROUTE_FILTER='", v,
         "' is not off/on/strict/collect; filter disabled");
    return static_cast<int>(RoutabilityMode::Off);
}
// lint:cold-end

/** Serialized sample sink shared by every collecting workspace. */
struct Collector
{
    support::Mutex mu;
    std::string path LISA_GUARDED_BY(mu);
    std::ofstream out LISA_GUARDED_BY(mu);
    bool headerWritten LISA_GUARDED_BY(mu) = false;
    uint64_t successTick LISA_GUARDED_BY(mu) = 0;
};

Collector &
collector()
{
    static Collector c;
    return c;
}

std::string
modelPath(const std::string &dir, const std::string &accel_name)
{
    return dir + "/" + accel_name + ".routability";
}

} // namespace

RoutabilityVerdict
RoutabilityFilter::assess(const Mapping &mapping, dfg::EdgeId e,
                          const RouterCosts &costs, RouterWorkspace &ws,
                          double *f)
{
    RoutabilityVerdict v;
    const bool collect = mode_ == RoutabilityMode::Collect;
    if (provablyUnroutable(mapping, e, costs, ws)) {
        // Tier 0: the router fails these on its own structural check.
        // Trivially predictable, so collect mode does not log them.
        if (!collect) {
            v.consulted = true;
            v.reject = true;
            v.provable = true;
        }
        return v;
    }
    // Tier 1 runs only for contested (hard-capacity) calls. With
    // overuse allowed the occupancy constraints soften to costs, so
    // any structurally feasible candidate (tier 0 above) routes —
    // across millions of collected samples not one overuse-allowed
    // call failed — and admitting is always safe regardless.
    // provableOnly_ workspaces (exhaustive search) take no learned
    // vetoes either. Neither case is consulted or collected: the
    // model only ever adjudicates the contested regime.
    if (costs.allowOveruse || provableOnly_ || (!model_ && !collect))
        return v; // admit without spending the learned tier

    const dfg::Edge &edge = mapping.dfg().edge(e);
    const Placement &src = mapping.placement(edge.src);
    const Placement &dst = mapping.placement(edge.dst);
    const auto &mrrg = mapping.mrrg();
    const int ii = mrrg.ii();
    const int len = mapping.requiredLength(e);
    const int fu = mrrg.fuId(src.pe, src.time);
    const int32_t h = ws.oracle.minHopsTo(dst.pe, dst.time,
                                          ws.counters)[static_cast<size_t>(fu)];
    const double dii = static_cast<double>(ii);
    f[0] = static_cast<double>(len) / dii;
    f[1] = static_cast<double>(h) / dii;
    f[2] = static_cast<double>(len - h) / dii;
    const int ld =
        ((static_cast<int>(dst.time) - static_cast<int>(src.time)) % ii +
         ii) %
        ii;
    f[3] = static_cast<double>(ld) / dii;
    f[4] = 1.0 / dii;
    const double fanout =
        static_cast<double>(mapping.dfg().outEdges(edge.src).size());
    f[5] = std::min(fanout, 8.0) / 8.0;
    f[6] = busyFraction(mapping, mrrg.feeders(dst.pe, dst.time));
    f[7] = busyFraction(mapping, mrrg.moveTargets(fu));
    f[8] = std::min(static_cast<double>(mapping.totalOveruse()), 32.0) / 32.0;
    // Constant 0 under the overuse bypass above; the slot stays so the
    // feature version survives if that bypass is ever lifted.
    f[9] = costs.allowOveruse ? 1.0 : 0.0;

    v.consulted = true;
    if (collect)
        return v; // label comes from the real route outcome
    if (model_->score(f) < model_->threshold)
        v.reject = true;
    return v;
}

RoutabilityMode
routabilityMode()
{
    // relaxed: the mode is a standalone enum cell — no other memory is
    // published through it, so no acquire/release pairing is needed.
    int m = g_mode.load(std::memory_order_relaxed);
    if (m == kModeUnresolved) {
        // First resolver publishes the env value, but a concurrent
        // setRoutabilityMode() must win: a plain store here could
        // overwrite a programmatic override installed between our load
        // and the parse (lost update). On CAS failure `m` reloads the
        // setter's value.
        const int parsed = parseModeEnv();
        // relaxed: see above — atomicity of the CAS is the whole contract.
        if (g_mode.compare_exchange_strong(m, parsed,
                                           std::memory_order_relaxed))
            m = parsed;
    }
    return static_cast<RoutabilityMode>(m);
}

void
setRoutabilityMode(RoutabilityMode mode)
{
    // relaxed: standalone cell, atomicity only (see g_mode contract).
    g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace detail {

void
resetRoutabilityModeForTest()
{
    // relaxed: test-only hook re-arming the lazy env resolve so the
    // resolve-vs-override race stays exercisable under TSan.
    g_mode.store(kModeUnresolved, std::memory_order_relaxed);
}

} // namespace detail

void
setRoutabilityCollection(std::string path)
{
    Collector &c = collector();
    const support::LockGuard lock(c.mu);
    if (c.out.is_open())
        c.out.close();
    c.path = std::move(path);
    c.headerWritten = false;
    c.successTick = 0;
}

bool
routabilityCollecting()
{
    Collector &c = collector();
    const support::LockGuard lock(c.mu);
    return !c.path.empty();
}

void
RoutabilityFilter::bind(arch::ArchContext *ctx)
{
    boundCtx_ = ctx;
    keepalive_ = ctx != nullptr ? ctx->routabilityModel() : nullptr;
    model_ = keepalive_.get();
    mode_ = ctx != nullptr ? routabilityMode() : RoutabilityMode::Off;
    if ((mode_ == RoutabilityMode::On ||
         mode_ == RoutabilityMode::Strict) &&
        model_ == nullptr)
        mode_ = RoutabilityMode::Off;
    rejectTick_ = 0;
}

void
RoutabilityFilter::logSample(const double *f, bool routed) const
{
    Collector &c = collector();
    const support::LockGuard lock(c.mu);
    if (c.path.empty())
        return;
    // Failures are kept unconditionally; successes 1-in-4 to rebalance
    // the classes (the trainer's threshold sweep is ratio-invariant).
    if (routed && c.successTick++ % 4 != 0)
        return;
    if (!c.out.is_open()) {
        c.out.open(c.path, std::ios::trunc);
        if (!c.out) {
            warn("routability: cannot open collection file '", c.path,
                 "'; collection disabled");
            c.path.clear();
            return;
        }
    }
    if (!c.headerWritten) {
        c.out << "# lisa-routability "
              << (boundCtx_ != nullptr ? boundCtx_->accel().name() : "?")
              << ' '
              << (boundCtx_ != nullptr ? boundCtx_->fingerprint() : 0)
              << ' ' << RoutabilityModel::kFeatureVersion << '\n';
        c.headerWritten = true;
    }
    c.out << (routed ? 1 : 0);
    for (int i = 0; i < RoutabilityModel::kFeatureCount; ++i)
        c.out << ' ' << f[i];
    c.out << '\n';
}

// lint:cold-begin(model flatten/save/load: runs once per accelerator at
// startup or from the offline trainer, never on the routing path)
bool
flattenRoutabilityMlp(const nn::Mlp &mlp, RoutabilityModel &out)
{
    const nn::Tensor *w1 = nullptr;
    const nn::Tensor *b1 = nullptr;
    const nn::Tensor *w2 = nullptr;
    const nn::Tensor *b2 = nullptr;
    for (const auto &[name, t] : mlp.parameters()) {
        if (name == "routability.fc1.w")
            w1 = &t;
        else if (name == "routability.fc1.b")
            b1 = &t;
        else if (name == "routability.fc2.w")
            w2 = &t;
        else if (name == "routability.fc2.b")
            b2 = &t;
    }
    if (w1 == nullptr || b1 == nullptr || w2 == nullptr || b2 == nullptr)
        return false;
    const int hidden = w1->cols();
    if (w1->rows() != RoutabilityModel::kFeatureCount || hidden < 1 ||
        hidden > RoutabilityModel::kMaxHidden)
        return false;
    if (b1->rows() != 1 || b1->cols() != hidden || w2->rows() != hidden ||
        w2->cols() != 1 || b2->rows() != 1 || b2->cols() != 1)
        return false;
    out.hidden = hidden;
    const size_t h = static_cast<size_t>(hidden);
    out.w1.assign(h * RoutabilityModel::kFeatureCount, 0.0);
    out.b1.assign(h, 0.0);
    out.w2.assign(h, 0.0);
    for (int j = 0; j < hidden; ++j) {
        for (int i = 0; i < RoutabilityModel::kFeatureCount; ++i)
            out.w1[static_cast<size_t>(j) *
                       RoutabilityModel::kFeatureCount +
                   static_cast<size_t>(i)] = w1->at(i, j);
        out.b1[static_cast<size_t>(j)] = b1->at(0, j);
        out.w2[static_cast<size_t>(j)] = w2->at(j, 0);
    }
    out.b2 = b2->at(0, 0);
    return true;
}

bool
saveRoutabilityModel(const nn::Mlp &mlp, uint64_t fingerprint,
                     double threshold, const std::string &dir,
                     const std::string &accel_name)
{
    RoutabilityModel flat;
    if (!flattenRoutabilityMlp(mlp, flat))
        return false;
    const std::string path = modelPath(dir, accel_name);
    if (!nn::saveModuleFile(mlp, "routability", path))
        return false;
    std::ofstream meta(path + ".meta", std::ios::trunc);
    if (!meta)
        return false;
    meta.precision(17);
    meta << fingerprint << '\n' << RoutabilityModel::kFeatureVersion
         << '\n' << flat.hidden << '\n' << threshold << '\n';
    return static_cast<bool>(meta);
}

std::shared_ptr<const RoutabilityModel>
readRoutabilityModel(const std::string &dir, const std::string &accel_name,
                     std::string *error)
{
    const std::string path = modelPath(dir, accel_name);
    std::ifstream meta(path + ".meta");
    uint64_t fp = 0;
    int version = 0;
    int hidden = 0;
    double threshold = 0.0;
    if (!meta || !(meta >> fp >> version >> hidden >> threshold)) {
        if (error != nullptr)
            *error = "missing or malformed meta file " + path + ".meta";
        return nullptr;
    }
    if (version != RoutabilityModel::kFeatureVersion) {
        if (error != nullptr)
            *error = "feature version " + std::to_string(version) +
                     " != " +
                     std::to_string(RoutabilityModel::kFeatureVersion);
        return nullptr;
    }
    if (hidden < 1 || hidden > RoutabilityModel::kMaxHidden) {
        if (error != nullptr)
            *error = "implausible hidden width " + std::to_string(hidden);
        return nullptr;
    }
    Rng rng(1);
    nn::Mlp mlp(RoutabilityModel::kFeatureCount, hidden, 1, rng,
                "routability");
    std::string load_error;
    if (!nn::loadModuleFile(mlp, path, &load_error)) {
        if (error != nullptr)
            *error = load_error.empty() ? "unreadable model file"
                                        : load_error;
        return nullptr;
    }
    auto model = std::make_shared<RoutabilityModel>();
    if (!flattenRoutabilityMlp(mlp, *model)) {
        if (error != nullptr)
            *error = "model file has unexpected parameter shapes";
        return nullptr;
    }
    model->fingerprint = fp;
    model->threshold = threshold;
    return model;
}

bool
loadRoutabilityModel(arch::ArchContext &ctx, const std::string &dir)
{
    if (!ctx.claimRoutabilityLoad())
        return ctx.routabilityModel() != nullptr;
    if (dir.empty())
        return false;
    const std::string path = modelPath(dir, ctx.accel().name());
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return false; // no model shipped for this accelerator: stay quiet
    std::string error;
    auto model = readRoutabilityModel(dir, ctx.accel().name(), &error);
    if (model == nullptr) {
        inform("routability: ignoring ", path, " (", error,
               "); filter disabled");
        return false;
    }
    if (model->fingerprint != ctx.fingerprint()) {
        inform("routability: ignoring ", path,
               " (fabric fingerprint mismatch); filter disabled");
        return false;
    }
    ctx.setRoutabilityModel(std::move(model));
    return true;
}
// lint:cold-end

} // namespace lisa::map
