/**
 * @file
 * Label-aware simulated annealing (Algorithm 1 of the paper).
 *
 * Each iteration unmaps one or more nodes (all nodes on the first
 * iteration), sorts them by the schedule-order label, and re-places each
 * at a PE/time candidate chosen by a normal distribution over the
 * label-cost ranking: cost = sum over placed neighbours of
 * |actual distance - expected label distance| across labels 2, 3, 4. The
 * deviation sigma = max{1, alpha*T - Acc} widens when few movements are
 * accepted, injecting randomness to escape invalid regions. Un-routed data
 * is then routed in descending label-4 priority (edges that need more
 * routing resources go first) using the shortest-path router.
 *
 * The training pipeline uses the same mapper in "partial" mode
 * (labelsOnlyForInit): labels steer only the initial iteration and later
 * movements fall back to random choices, matching Section V-B.
 */

#ifndef LISA_CORE_LISA_MAPPER_HH
#define LISA_CORE_LISA_MAPPER_HH

#include "core/labels.hh"
#include "mapping/router_workspace.hh"
#include "mappers/mapper.hh"

namespace lisa::core {

/** What the label ablations vary; the schedule and the other placement
 *  weights are constants in lisa_mapper.cc. */
struct LisaConfig
{
    /** Placement-cost weights for labels 2 (association) and 4
     *  (temporal distance); label 3's spatial weight is fixed at 1. */
    double associationWeight = 0.6;
    double temporalWeight = 1.0;
    /** Partial mode for training-data generation: labels guide only the
     *  initial mapping; later movements are random. */
    bool labelsOnlyForInit = false;
};

/** The LISA mapper: Algorithm 1 over externally supplied labels. */
class LisaMapper : public map::Mapper
{
  public:
    LisaMapper(Labels labels, LisaConfig config = {});

    std::string name() const override;
    std::optional<map::Mapping> tryMap(const map::MapContext &ctx) override;

    const Labels &labels() const { return lbls; }

  private:
    /** One attempt stream (serial Algorithm 1 under a budget/cancel). */
    std::optional<map::Mapping> attemptStream(const map::MapContext &ctx);

    /** Nodes to unmap this iteration: conflict-involved plus random. */
    std::vector<dfg::NodeId> selectUnmapSet(const map::Mapping &mapping,
                                            Rng &rng) const;

    /** Place one node by label-cost ranking with normal selection. */
    bool placeNodeByLabels(const map::MapContext &ctx,
                           map::Mapping &mapping, dfg::NodeId v,
                           double sigma, bool use_labels) const;

    /** Route all un-routed edges in descending label-4 priority. */
    void routeByPriority(map::Mapping &mapping,
                         map::RouterWorkspace &ws) const;

    Labels lbls;
    LisaConfig cfg;
};

} // namespace lisa::core

#endif // LISA_CORE_LISA_MAPPER_HH
