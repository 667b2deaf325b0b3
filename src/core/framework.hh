/**
 * @file
 * LisaFramework — the end-to-end portable compiler (Fig 2 of the paper).
 *
 * For a target accelerator, prepare() either loads cached GNN models or
 * runs the one-off pipeline: synthesize DFGs, refine labels iteratively,
 * train the four label networks, measure held-out accuracy (Table II), and
 * cache everything on disk. compile() then maps any new DFG: the trained
 * GNNs predict its labels and the label-aware SA searches the minimum II.
 */

#ifndef LISA_CORE_FRAMEWORK_HH
#define LISA_CORE_FRAMEWORK_HH

#include <memory>
#include <string>
#include <vector>

#include "core/lisa_mapper.hh"
#include "core/training_data.hh"
#include "gnn/accuracy.hh"
#include "mapping/ii_search.hh"
#include "mapping/portfolio.hh"

namespace lisa::arch {
class ArchContext;
} // namespace lisa::arch

namespace lisa::core {

/** Framework-level configuration. */
struct FrameworkConfig
{
    TrainingDataConfig trainingData;
    gnn::TrainConfig training;
    /** Directory for cached models ("" disables caching). */
    std::string cacheDir = "lisa_models";
    uint64_t seed = 7;
    /** Shared arch-artifact cache (MRRGs, distance-oracle tables). When
     *  null the framework owns a private one; pass a context to share
     *  artifacts with other consumers of the same accelerator. Must
     *  outlive the framework. */
    arch::ArchContext *archContext = nullptr;
};

/**
 * Budgets for compilePortfolio's fixed member set: LISA at rank 0 (its
 * successes break II ties), then SA and ILP*, the paper's baselines.
 * Each member's SearchOptions carries its own budgets and base seed;
 * threads and incumbent wiring are managed by the race itself.
 */
struct PortfolioConfig
{
    map::SearchOptions lisa;
    map::SearchOptions sa;
    map::SearchOptions ilp;
};

/**
 * How many of @p kept training graphs prepare() holds out for the Table II
 * accuracy: 15% rounded down, but at least one whenever two or more
 * survive the filter, and never all of them. With one survivor none is
 * held out, and the accuracy is measured on that training graph.
 */
size_t heldOutCount(size_t kept);

/**
 * Portable compiler instance for one accelerator.
 *
 * Concurrency contract: a LisaFramework is *externally synchronized* —
 * prepare() mutates the model cache and even the const entry points
 * (compile, predictLabels) draw from the mutable `rng` member, so two
 * threads may not share one instance without a lock. What *is* safe to
 * share is everything the framework hands out: the ArchContext is
 * internally synchronized (see arch/arch_context.hh), the trained
 * LabelModels are immutable after prepare(), and compile()'s inner
 * parallelism (attempt streams, portfolio members) runs on private
 * per-stream state by construction. The bench harness follows this rule
 * by giving each worker its own framework while sharing one ArchContext
 * per accelerator.
 */
class LisaFramework
{
  public:
    LisaFramework(const arch::Accelerator &accel,
                  FrameworkConfig config = {});
    ~LisaFramework();

    /** Train or load the label models; idempotent. */
    void prepare();

    bool isPrepared() const { return ready; }

    const arch::Accelerator &accel() const { return *arch; }

    /** The arch-artifact cache every compile()/prepare() runs through
     *  (either the one injected via FrameworkConfig or the framework's
     *  own). */
    arch::ArchContext &archContext() const { return *ctx; }

    /** Predict the four labels of a DFG with the trained GNNs. */
    Labels predictLabels(const dfg::Dfg &dfg,
                         const dfg::Analysis &analysis) const;

    /** Map a DFG: GNN label prediction + label-aware SA + II sweep. */
    map::SearchResult compile(const dfg::Dfg &dfg,
                              const map::SearchOptions &options) const;

    /**
     * Map a DFG by racing LISA against the baseline mappers (SA, ILP*)
     * over the process thread pool, all sharing this framework's
     * ArchContext and one best-II incumbent. Deterministic for fixed
     * (config seeds, threads): the winner is the lex-min (ii, rank)
     * achiever, not the first finisher.
     */
    map::PortfolioResult
    compilePortfolio(const dfg::Dfg &dfg,
                     const PortfolioConfig &config) const;

    /** Held-out accuracy per label (1..4), available after prepare();
     *  see heldOutCount(). */
    const std::vector<double> &labelAccuracy() const { return accuracies; }

    /** Access to the trained models (after prepare()). */
    gnn::LabelModels &models();

  private:
    std::string cachePath(const std::string &suffix) const;
    bool loadFromCache();
    void saveToCache() const;

    const arch::Accelerator *arch;
    FrameworkConfig cfg;
    std::unique_ptr<arch::ArchContext> ownedCtx;
    arch::ArchContext *ctx;
    mutable Rng rng;
    std::unique_ptr<gnn::LabelModels> nets;
    std::vector<double> accuracies;
    bool ready = false;
};

} // namespace lisa::core

#endif // LISA_CORE_FRAMEWORK_HH
