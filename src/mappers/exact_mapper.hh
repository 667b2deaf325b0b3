/**
 * @file
 * Exact branch-and-bound mapper: the repo's stand-in for the ILP baseline.
 *
 * Enumerates placements in topological order (every capable PE x every
 * schedule time within a bounded slack window), routing each dependency
 * with a strict no-overuse router as soon as both endpoints are placed,
 * and backtracking on failure. Like the ILP formulation it emulates, it is
 * exhaustive (within its schedule window) and therefore finds a mapping at
 * the lowest feasible II when given enough time — and fails by timeout on
 * large or deeply-connected instances, which is exactly the behaviour the
 * paper reports for ILP.
 */

#ifndef LISA_MAPPERS_EXACT_MAPPER_HH
#define LISA_MAPPERS_EXACT_MAPPER_HH

#include "mappers/mapper.hh"

namespace lisa::map {

/**
 * Exhaustive depth-first placement-and-routing with backtracking. Each
 * node tries the schedule times [window.lo, window.lo + II + 2]. When the
 * ArchContext holds a routability model, its learned tier
 * (routability_filter.hh) vetoes candidates during the enumeration. The
 * search stays fail-closed: an enumeration that completes without a
 * mapping while learned vetoes fired is rerun without the model within
 * the remaining time budget, so a false reject can never flip a feasible
 * instance to "unmappable" — only a timeout can (as without the model).
 * A context without a model takes the router's tier-0 structural rejects
 * only, which are provably router-identical.
 */
class ExactMapper : public Mapper
{
  public:
    std::string name() const override { return "ILP*"; }
    std::optional<Mapping> tryMap(const MapContext &ctx) override;
};

} // namespace lisa::map

#endif // LISA_MAPPERS_EXACT_MAPPER_HH
