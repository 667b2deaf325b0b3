#include "core/framework.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "arch/arch_context.hh"
#include "mapping/routability_filter.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "nn/serialize.hh"
#include "support/logging.hh"

namespace lisa::core {

namespace {

/** Held-out fraction for the Table II accuracy numbers. */
constexpr double kTestFraction = 0.15;

} // namespace

size_t
heldOutCount(size_t kept)
{
    if (kept < 2)
        return 0;
    const auto share =
        static_cast<size_t>(static_cast<double>(kept) * kTestFraction);
    return std::clamp<size_t>(share, 1, kept - 1);
}

LisaFramework::LisaFramework(const arch::Accelerator &accel,
                             FrameworkConfig config)
    : arch(&accel), cfg(std::move(config)), rng(cfg.seed)
{
    if (cfg.archContext) {
        ctx = cfg.archContext;
    } else {
        ownedCtx = std::make_unique<arch::ArchContext>(accel);
        ctx = ownedCtx.get();
    }
    nets = std::make_unique<gnn::LabelModels>(rng);
}

LisaFramework::~LisaFramework() = default;

gnn::LabelModels &
LisaFramework::models()
{
    return *nets;
}

std::string
LisaFramework::cachePath(const std::string &suffix) const
{
    return cfg.cacheDir + "/" + arch->name() + "." + suffix;
}

bool
LisaFramework::loadFromCache()
{
    if (cfg.cacheDir.empty())
        return false;
    if (!nn::loadModuleFile(nets->scheduleOrder, cachePath("label1")) ||
        !nn::loadModuleFile(nets->association, cachePath("label2")) ||
        !nn::loadModuleFile(nets->spatialDist, cachePath("label3")) ||
        !nn::loadModuleFile(nets->temporalDist, cachePath("label4"))) {
        return false;
    }
    std::ifstream meta(cachePath("meta"));
    if (!meta)
        return false;
    // The cache file name keys on the accelerator's *name* only; two
    // fabrics can share a name (e.g. the same grid at a different config
    // depth). The content fingerprint recorded at save time catches that:
    // a mismatch means the models were trained for a different fabric, so
    // the cache is stale and the caller retrains.
    uint64_t fp = 0;
    if (!(meta >> fp))
        return false;
    if (fp != ctx->fingerprint()) {
        inform("model cache for ", arch->name(),
               " was trained for a different fabric "
               "(fingerprint mismatch); retraining");
        return false;
    }
    accuracies.assign(4, 0.0);
    for (double &a : accuracies)
        if (!(meta >> a))
            return false;
    return true;
}

void
LisaFramework::saveToCache() const
{
    if (cfg.cacheDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(cfg.cacheDir, ec);
    if (ec) {
        warn("cannot create model cache dir '", cfg.cacheDir, "': ",
             ec.message());
        return;
    }
    nn::saveModuleFile(nets->scheduleOrder, "label1", cachePath("label1"));
    nn::saveModuleFile(nets->association, "label2", cachePath("label2"));
    nn::saveModuleFile(nets->spatialDist, "label3", cachePath("label3"));
    nn::saveModuleFile(nets->temporalDist, "label4", cachePath("label4"));
    std::ofstream meta(cachePath("meta"));
    meta << ctx->fingerprint() << '\n';
    for (double a : accuracies)
        meta << a << '\n';
}

void
LisaFramework::prepare()
{
    if (ready)
        return;
    // Best-effort load of the routability admission model shipped beside
    // the label models (claim-once per context; a missing, corrupt or
    // foreign-fingerprint file just leaves the filter disabled).
    if (!cfg.cacheDir.empty())
        map::loadRoutabilityModel(*ctx, cfg.cacheDir);
    if (loadFromCache()) {
        inform("loaded cached models for ", arch->name());
        ready = true;
        return;
    }

    inform("generating training data for ", arch->name());
    auto samples = generateTrainingSet(*ctx, cfg.trainingData, rng);
    if (samples.empty())
        fatal("no training samples survived the filter for ", arch->name());

    // Held-out split for the Table II accuracy numbers.
    rng.shuffle(samples);
    const size_t test_count = heldOutCount(samples.size());
    std::vector<gnn::LabeledSample> test(
        samples.end() - static_cast<long>(test_count), samples.end());
    samples.resize(samples.size() - test_count);

    if (test.empty())
        inform("training label models on 1 graph (0 held out; label "
               "accuracy is measured on the training graph)");
    else
        inform("training label models on ", samples.size(), " graphs (",
               test.size(), " held out)");
    gnn::trainAll(*nets, samples, cfg.training);
    accuracies = gnn::evaluateAccuracy(*nets, test.empty() ? samples : test);

    saveToCache();
    ready = true;
}

Labels
LisaFramework::predictLabels(const dfg::Dfg &dfg,
                             const dfg::Analysis &analysis) const
{
    if (!ready)
        panic("predictLabels: call prepare() first");

    gnn::GraphAttributes attrs = gnn::computeAttributes(dfg, analysis);
    Labels labels;

    nn::Tensor order = nets->scheduleOrder.forward(attrs);
    for (int v = 0; v < order.rows(); ++v)
        labels.scheduleOrder.push_back(order.at(v, 0));

    if (!analysis.sameLevelPairs().empty()) {
        nn::Tensor assoc = nets->association.forward(attrs);
        for (int i = 0; i < assoc.rows(); ++i)
            labels.association.push_back(std::max(0.0, assoc.at(i, 0)));
    }

    if (dfg.numEdges() > 0) {
        nn::Tensor spatial = nets->spatialDist.forward(attrs);
        nn::Tensor temporal = nets->temporalDist.forward(attrs);
        for (size_t e = 0; e < dfg.numEdges(); ++e) {
            labels.spatialDist.push_back(
                std::max(0.0, spatial.at(static_cast<int>(e), 0)));
            labels.temporalDist.push_back(
                std::max(1.0, temporal.at(static_cast<int>(e), 0)));
        }
    }
    return labels;
}

map::SearchResult
LisaFramework::compile(const dfg::Dfg &dfg,
                       const map::SearchOptions &options) const
{
    if (!ready)
        panic("compile: call prepare() first");
    dfg::Analysis analysis(dfg);
    LisaMapper mapper(predictLabels(dfg, analysis));
    return map::searchMinIi(mapper, dfg, *ctx, options);
}

map::PortfolioResult
LisaFramework::compilePortfolio(const dfg::Dfg &dfg,
                                const PortfolioConfig &config) const
{
    if (!ready)
        panic("compilePortfolio: call prepare() first");
    dfg::Analysis analysis(dfg);
    map::PortfolioSearch race(*ctx);
    // Registration order is the II tie-break: LISA first, so the
    // guided mapper's success cancels same-II baseline attempts.
    race.addMember("LISA",
                   std::make_unique<LisaMapper>(predictLabels(dfg, analysis)),
                   config.lisa);
    race.addMember("SA", std::make_unique<map::SaMapper>(), config.sa);
    race.addMember("ILP*", std::make_unique<map::ExactMapper>(),
                   config.ilp);
    return race.run(dfg);
}

} // namespace lisa::core
