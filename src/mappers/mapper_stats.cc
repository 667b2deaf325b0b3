#include "mappers/mapper_stats.hh"

#include <sstream>

namespace lisa::map {

void
MapperStats::merge(const MapperStats &o)
{
    router.merge(o.router);
    movesCommitted += o.movesCommitted;
    movesRolledBack += o.movesRolledBack;
    movesEarlyRejected += o.movesEarlyRejected;
    routeCallsSkipped += o.routeCallsSkipped;
    restarts += o.restarts;
    incumbentCancels += o.incumbentCancels;
    initSeconds += o.initSeconds;
    moveSeconds += o.moveSeconds;
    mapSeconds += o.mapSeconds;
}

std::string
MapperStats::toJson() const
{
    // Derived filter quality estimates from the shadow-routed sample:
    // precision = fraction of audited rejects the router agreed with;
    // recall = estimated share of all would-be failures the filter
    // caught (true rejects never reach the router, so the estimate
    // scales the reject count by the sampled precision).
    const double shadow = static_cast<double>(router.filterShadowRoutes);
    const double precision =
        shadow > 0.0
            ? 1.0 - static_cast<double>(router.filterFalseRejects) / shadow
            : 1.0;
    const double caught =
        static_cast<double>(router.filterRejects) * precision;
    const double failures =
        caught + static_cast<double>(router.routeFailures);
    const double recall = failures > 0.0 ? caught / failures : 0.0;
    const uint64_t saved =
        router.filterRejects - router.filterShadowRoutes;

    std::ostringstream os;
    os << "{"
       << "\"routeEdgeCalls\":" << router.routeEdgeCalls << ","
       << "\"routeFailures\":" << router.routeFailures << ","
       << "\"pqPops\":" << router.pqPops << ","
       << "\"relaxations\":" << router.relaxations << ","
       << "\"heuristicPrunes\":" << router.heuristicPrunes << ","
       << "\"dpCellsSkipped\":" << router.dpCellsSkipped << ","
       << "\"oracleBuilds\":" << router.oracleBuilds << ","
       << "\"oracleHits\":" << router.oracleHits << ","
       << "\"contextHits\":" << router.contextHits << ","
       << "\"contextMisses\":" << router.contextMisses << ","
       << "\"filterQueries\":" << router.filterQueries << ","
       << "\"filterRejects\":" << router.filterRejects << ","
       << "\"filterShadowRoutes\":" << router.filterShadowRoutes << ","
       << "\"filterFalseRejects\":" << router.filterFalseRejects << ","
       << "\"filterSavedCalls\":" << saved << ","
       << "\"filterRejectPrecision\":" << precision << ","
       << "\"filterFailRecall\":" << recall << ","
       << "\"routeSeconds\":" << router.routeSeconds << ","
       << "\"movesCommitted\":" << movesCommitted << ","
       << "\"movesRolledBack\":" << movesRolledBack << ","
       << "\"movesEarlyRejected\":" << movesEarlyRejected << ","
       << "\"routeCallsSkipped\":" << routeCallsSkipped << ","
       << "\"restarts\":" << restarts << ","
       << "\"incumbentCancels\":" << incumbentCancels << ","
       << "\"initSeconds\":" << initSeconds << ","
       << "\"moveSeconds\":" << moveSeconds << ","
       << "\"mapSeconds\":" << mapSeconds << "}";
    return os.str();
}

} // namespace lisa::map
