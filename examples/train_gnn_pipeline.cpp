/**
 * @file
 * The training pipeline, step by step (Sections IV-V of the paper):
 * synthesize raw DFGs, refine labels with the iterative partial
 * label-aware SA, filter with e = O + sigma*N, train the four GNNs, and
 * inspect predictions against the iteratively-derived ground truth for
 * one held-out graph.
 *
 * Run: ./train_gnn_pipeline
 */

#include <cstdio>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "core/training_data.hh"
#include "gnn/accuracy.hh"
#include "gnn/trainer.hh"

using namespace lisa;

int
main()
{
    arch::CgraArch cgra(arch::baselineCgra(4, 4));
    Rng rng(42);

    // Step 1-3: raw DFG generation + iterative label refinement + filter.
    core::TrainingDataConfig data_cfg;
    data_cfg.numDfgs = 30;
    data_cfg.refinements = 4;
    std::printf("generating %zu synthetic DFGs and refining labels on %s "
                "(this is the paper's one-off step)...\n",
                data_cfg.numDfgs, cgra.name().c_str());
    arch::ArchContext context(cgra);
    auto samples = core::generateTrainingSet(context, data_cfg, rng);
    std::printf("  %zu samples survived the e = O + sigma*N filter\n",
                samples.size());
    if (samples.size() < 4) {
        std::printf("too few samples; rerun with a bigger numDfgs\n");
        return 1;
    }

    // Step 4: train one network per label.
    auto held_out = samples.back();
    samples.pop_back();
    gnn::LabelModels models(rng);
    gnn::TrainConfig train_cfg;
    train_cfg.epochs = 150;
    std::printf("training 4 label networks for %d epochs on %zu graphs\n",
                train_cfg.epochs, samples.size());
    auto losses = gnn::trainAll(models, samples, train_cfg);
    for (int i = 0; i < 4; ++i)
        std::printf("  label %d final MSE: %.4f\n", i + 1, losses[i]);

    // Step 5: predictions vs iteratively-derived labels on held-out graph.
    auto acc = gnn::evaluateAccuracy(models, {held_out});
    std::printf("\nheld-out graph accuracy (paper's tolerance rules):\n");
    const char *names[4] = {"schedule order", "association",
                            "spatial distance", "temporal distance"};
    for (int i = 0; i < 4; ++i)
        std::printf("  label %d (%s): %.3f\n", i + 1, names[i], acc[i]);

    nn::Tensor pred = models.scheduleOrder.forward(held_out.attrs);
    std::printf("\nschedule order, prediction vs ground truth:\n");
    for (size_t v = 0; v < held_out.scheduleOrder.size(); ++v) {
        std::printf("  node %2zu: %.2f vs %.2f\n", v,
                    pred.at(static_cast<int>(v), 0),
                    held_out.scheduleOrder[v]);
    }
    return 0;
}
