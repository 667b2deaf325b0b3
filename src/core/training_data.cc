#include "core/training_data.hh"

#include <algorithm>
#include <limits>

#include "arch/arch_context.hh"
#include "core/label_extract.hh"
#include "core/lisa_mapper.hh"
#include "mapping/ii_search.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace lisa::core {

namespace {

/** Candidate labels come from mappings whose routing cost is within this
 *  factor of the cheapest best-II mapping (1.15 in the paper). */
constexpr double kRoutingSlack = 1.15;
/** @{ Filter: keep when mii/bestIi + kFilterSigma * candidates >=
 *  kFilterThreshold (the paper's values). */
constexpr double kFilterSigma = 0.1;
constexpr double kFilterThreshold = 0.8;
/** @} */

/** One refinement candidate: labels plus the quality of their mapping. */
struct Candidate
{
    Labels labels;
    int ii;
    int routing;
};

} // namespace

std::optional<RefinedLabels>
refineLabels(const dfg::Dfg &dfg, arch::ArchContext &context,
             const TrainingDataConfig &config, Rng &rng)
{
    dfg::Analysis analysis(dfg);
    Labels current = initialLabels(dfg, analysis);
    std::vector<Candidate> candidates;

    int best_ii = std::numeric_limits<int>::max();
    int best_routing = std::numeric_limits<int>::max();
    int mii = 1;

    // Refinement rounds run in waves of up to `threads` concurrent
    // attempts. Every attempt in a wave starts from the wave's current
    // labels with its own seed; the wave's results are then merged in
    // attempt order, so a given (seed, threads) pair is reproducible.
    const int wave_width = std::max(1, config.threads);
    int rounds_left = config.refinements;
    while (rounds_left > 0) {
        const int wave = std::min(wave_width, rounds_left);
        rounds_left -= wave;

        std::vector<uint64_t> seeds(static_cast<size_t>(wave));
        for (uint64_t &s : seeds)
            s = rng.raw()();
        std::vector<std::optional<Candidate>> results(
            static_cast<size_t>(wave));
        std::vector<int> miis(static_cast<size_t>(wave), 1);

        ThreadPool::global().parallelFor(
            static_cast<size_t>(wave), [&](size_t i) {
                LisaConfig mapper_cfg;
                mapper_cfg.labelsOnlyForInit = true;
                LisaMapper mapper(current, mapper_cfg);

                map::SearchOptions opts;
                opts.perIiBudget = config.perIiBudget;
                opts.totalBudget = config.totalBudget;
                opts.seed = seeds[i];
                map::SearchResult result =
                    map::searchMinIi(mapper, dfg, context, opts);
                miis[i] = std::max(1, result.mii);
                if (!result.success)
                    return; // keep previous labels (SA is random)
                results[i] = Candidate{
                    extractLabels(*result.mapping, analysis), result.ii,
                    routingCost(*result.mapping)};
            });

        for (int i = 0; i < wave; ++i) {
            mii = std::max(mii, miis[static_cast<size_t>(i)]);
            auto &res = results[static_cast<size_t>(i)];
            if (!res)
                continue;
            candidates.push_back(*res);
            // Only adopt labels that improved the mapping (Section V-B).
            if (res->ii < best_ii ||
                (res->ii == best_ii && res->routing < best_routing)) {
                best_ii = res->ii;
                best_routing = res->routing;
                current = std::move(res->labels);
            }
        }
    }

    if (candidates.empty())
        return std::nullopt;

    // Round 1: lowest II only. Round 2: routing cost within the slack of
    // the cheapest. The final label is the candidates' average.
    std::vector<Labels> selected;
    int min_routing = std::numeric_limits<int>::max();
    for (const Candidate &c : candidates)
        if (c.ii == best_ii)
            min_routing = std::min(min_routing, c.routing);
    for (const Candidate &c : candidates) {
        if (c.ii == best_ii &&
            c.routing <= kRoutingSlack * min_routing) {
            selected.push_back(c.labels);
        }
    }

    RefinedLabels refined;
    refined.labels = averageLabels(selected);
    refined.bestIi = best_ii;
    refined.mii = mii;
    refined.candidates = static_cast<int>(selected.size());
    return refined;
}

bool
passesFilter(const RefinedLabels &refined)
{
    // "As long as we get the minimum II for a DFG, only one candidate
    // label is sufficient."
    if (refined.bestIi == refined.mii)
        return true;
    const double closeness =
        static_cast<double>(refined.mii) / refined.bestIi;
    const double e = closeness + kFilterSigma * refined.candidates;
    return e >= kFilterThreshold;
}

std::vector<gnn::LabeledSample>
generateTrainingSet(arch::ArchContext &context,
                    const TrainingDataConfig &config, Rng &rng)
{
    const arch::Accelerator &accel = context.accel();
    dfg::GeneratorConfig gen = config.generator;
    // Spatial-only accelerators can't host DFGs bigger than the PE count
    // (stores are appended on top of the core budget, and loads compete
    // for the input column), so stay well below the PE count.
    if (!accel.temporalMapping()) {
        gen.maxNodes = std::min(gen.maxNodes, accel.numPes() / 2);
        gen.minNodes = std::min(gen.minNodes, gen.maxNodes - 2);
    }
    gen.computeOps.erase(
        std::remove_if(gen.computeOps.begin(), gen.computeOps.end(),
                       [&](dfg::OpCode op) {
                           return !accel.supportsOpAnywhere(op);
                       }),
        gen.computeOps.end());
    if (gen.computeOps.empty())
        fatal("generateTrainingSet: accelerator supports no compute ops");

    // Generate the graphs and per-graph seeds serially so the synthetic
    // set is identical for every thread count, then fan the expensive
    // label refinement across the pool. Each graph refines with its own
    // split Rng; results keep generation order.
    std::vector<dfg::Dfg> graphs;
    std::vector<uint64_t> seeds;
    graphs.reserve(config.numDfgs);
    seeds.reserve(config.numDfgs);
    for (size_t i = 0; i < config.numDfgs; ++i) {
        graphs.push_back(dfg::generateRandomDfg(gen, rng));
        graphs.back().setName("train" + std::to_string(i));
        seeds.push_back(rng.raw()());
    }

    std::vector<std::optional<gnn::LabeledSample>> refined_samples(
        config.numDfgs);
    ThreadPool::global().parallelFor(config.numDfgs, [&](size_t i) {
        const dfg::Dfg &graph = graphs[i];
        Rng sub(seeds[i]);
        auto refined = refineLabels(graph, context, config, sub);
        if (!refined || !passesFilter(*refined))
            return;
        dfg::Analysis analysis(graph);
        gnn::LabeledSample sample;
        sample.attrs = gnn::computeAttributes(graph, analysis);
        sample.scheduleOrder = refined->labels.scheduleOrder;
        sample.association = refined->labels.association;
        sample.spatialDist = refined->labels.spatialDist;
        sample.temporalDist = refined->labels.temporalDist;
        refined_samples[i] = std::move(sample);
    });

    std::vector<gnn::LabeledSample> samples;
    size_t kept = 0, dropped = 0;
    for (auto &s : refined_samples) {
        if (s) {
            ++kept;
            samples.push_back(std::move(*s));
        } else {
            ++dropped;
        }
    }
    inform("training set for ", accel.name(), ": kept ", kept, ", dropped ",
           dropped);
    return samples;
}

} // namespace lisa::core
