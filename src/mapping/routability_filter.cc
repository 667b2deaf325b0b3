/**
 * @file
 * The learned tier's feature fill (hot and allocation-free) and its cold
 * paths: the --collect-routability sample sink, and model
 * (de)serialization with the fabric-fingerprint stale-model guard.
 */

#include "mapping/routability_filter.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
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

double
busyFraction(const Mapping &mapping, std::span<const int> resources)
{
    if (resources.empty())
        return 0.0;
    int busy = 0;
    for (int r : resources)
        busy += mapping.numInstancesOn(r) > 0 ? 1 : 0;
    return static_cast<double>(busy) / static_cast<double>(resources.size());
}

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

void
fillRoutabilityFeatures(const Mapping &mapping, dfg::EdgeId e,
                        const RouterCosts &costs, RouterWorkspace &ws,
                        double *f)
{
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
    // Constant 0: only contested calls reach the learned tier. The slot
    // stays so the feature version survives if that is ever lifted.
    f[9] = costs.allowOveruse ? 1.0 : 0.0;
}

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
logRoutabilitySample(const arch::ArchContext &ctx, const double *f,
                     bool routed)
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
        c.out << "# lisa-routability " << ctx.accel().name() << ' '
              << ctx.fingerprint() << ' '
              << RoutabilityModel::kFeatureVersion << '\n';
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
               "); learned tier unarmed");
        return false;
    }
    if (model->fingerprint != ctx.fingerprint()) {
        inform("routability: ignoring ", path,
               " (fabric fingerprint mismatch); learned tier unarmed");
        return false;
    }
    ctx.setRoutabilityModel(std::move(model));
    return true;
}
// lint:cold-end

} // namespace lisa::map
