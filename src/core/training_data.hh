/**
 * @file
 * GNN training-data generation (Section V of the paper).
 *
 * Per accelerator: generate random synthetic DFGs, initialize their labels,
 * and refine them with the iterative partial label-aware SA — labels seed
 * the initial mapping, random movements explore, and labels extracted from
 * better mappings replace the current ones. Candidate labels are the
 * best-II mappings whose routing cost is within 1.15x of the cheapest;
 * their average becomes the final label. The filter metric
 * e = O + sigma * N (O = closeness to the theoretical minimum II, N =
 * candidate count) drops DFGs whose labels are unreliable.
 */

#ifndef LISA_CORE_TRAINING_DATA_HH
#define LISA_CORE_TRAINING_DATA_HH

#include <optional>
#include <vector>

#include "arch/accelerator.hh"
#include "core/labels.hh"
#include "dfg/generator.hh"
#include "gnn/trainer.hh"

namespace lisa::arch {
class ArchContext;
} // namespace lisa::arch

namespace lisa::core {

/** Knobs of the training-data pipeline. */
struct TrainingDataConfig
{
    /** Synthetic DFGs generated (the paper uses 1,000; benches scale it
     *  down since label generation is the expensive one-off step). */
    size_t numDfgs = 120;
    /** Label-refinement rounds per DFG. */
    int refinements = 5;
    /** Mapping budget per II attempt / per compilation, seconds. */
    double perIiBudget = 0.25;
    double totalBudget = 1.5;
    /** Parallelism of the pipeline: refinement rounds run in waves of
     *  this many concurrent attempts, and DFGs are refined concurrently
     *  across the global thread pool. 1 = fully serial. */
    int threads = 1;
    dfg::GeneratorConfig generator;
};

/** Labels refined for one DFG, with the quality data the filter needs. */
struct RefinedLabels
{
    Labels labels;
    int bestIi = 0;
    int mii = 0;
    int candidates = 0;
};

/**
 * Run the iterative label-refinement loop for one DFG. All refinement
 * sweeps draw their MRRGs and distance-oracle tables from @p context, so
 * refining many DFGs against one context derives each artifact once.
 * @return std::nullopt when no mapping was ever found.
 */
std::optional<RefinedLabels> refineLabels(const dfg::Dfg &dfg,
                                          arch::ArchContext &context,
                                          const TrainingDataConfig &config,
                                          Rng &rng);

/** Filter metric e = O + sigma*N with the paper's sigma = 0.1; kept when
 *  e >= 0.8 or bestIi == mii. */
bool passesFilter(const RefinedLabels &refined);

/**
 * Full pipeline: generate DFGs, refine labels, filter, and package
 * attribute/label samples for the GNN trainer. Every concurrent
 * refinement shares @p context, so the whole set amortizes one MRRG and
 * one oracle-table build per II.
 */
std::vector<gnn::LabeledSample>
generateTrainingSet(arch::ArchContext &context,
                    const TrainingDataConfig &config, Rng &rng);

} // namespace lisa::core

#endif // LISA_CORE_TRAINING_DATA_HH
