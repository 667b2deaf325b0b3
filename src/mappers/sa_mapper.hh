/**
 * @file
 * Vanilla simulated-annealing mapper in the style of CGRA-ME.
 *
 * Random initial placement, relocate-one-node movements with rip-up and
 * re-route of incident edges, Metropolis acceptance over the incremental
 * mapping-cost delta (moves run inside a Mapping transaction; reject is a
 * rollback, and routeMove stops routing a move once its reject is
 * certain), geometric cooling with a fixed number of movements per
 * temperature, and random restarts while the time budget lasts. With
 * MapContext::parallelism > 1, tryMap runs that many independent seed
 * streams concurrently with first-success cancellation.
 *
 * Two paper ablations are configuration flags:
 *  - movementMultiplier = 10 gives SA-M (Fig 13);
 *  - routingPriority = true routes long-latency edges first (Fig 12), the
 *    label-4-style priority added to otherwise vanilla SA.
 */

#ifndef LISA_MAPPERS_SA_MAPPER_HH
#define LISA_MAPPERS_SA_MAPPER_HH

#include "mapping/router_workspace.hh"
#include "mappers/mapper.hh"

namespace lisa::map {

/** The two paper ablations; the annealing schedule itself is fixed
 *  (constants in sa_mapper.cc). */
struct SaConfig
{
    /** SA-M multiplies the movements per temperature by 10. */
    int movementMultiplier = 1;
    /** Route un-routed edges longest-required-length first. */
    bool routingPriority = false;
};

/** CGRA-ME-style simulated annealing. */
class SaMapper : public Mapper
{
  public:
    explicit SaMapper(SaConfig config = {});

    std::string name() const override;
    std::optional<Mapping> tryMap(const MapContext &ctx) override;

  private:
    /** One attempt stream: annealing restarts until budget/cancel. */
    std::optional<Mapping> attemptStream(const MapContext &ctx);

    /** One annealing run from a fresh random start, within @p budget
     *  seconds. Moves are transactional: reject rolls the move back and
     *  accept reads the incremental cost delta. @p ws is the stream's
     *  router scratch state; @p stats accumulates move/phase counters. */
    bool annealOnce(const MapContext &ctx, Mapping &mapping, double budget,
                    RouterWorkspace &ws, MapperStats &stats);

    void randomInit(const MapContext &ctx, Mapping &mapping,
                    RouterWorkspace &ws);
    void routeInOrder(Mapping &mapping, RouterWorkspace &ws);

    SaConfig cfg;
};

} // namespace lisa::map

#endif // LISA_MAPPERS_SA_MAPPER_HH
