/**
 * @file
 * Configuration emission: renders a valid mapping as the per-PE,
 * per-cycle configuration words a CGRA's configuration memory would hold
 * — which node executes where, which FUs forward which value, and which
 * registers buffer what. The human-readable format doubles as the
 * "compiled binary" view in examples and debugging.
 */

#ifndef LISA_SIM_CONFIG_EMIT_HH
#define LISA_SIM_CONFIG_EMIT_HH

#include <string>
#include <vector>

#include "mapping/mapping.hh"

namespace lisa::sim {

/** One PE's role in one II layer. */
struct PeConfig
{
    enum class Role
    {
        Nop,
        Compute,
        Route,
    };
    Role role = Role::Nop;
    /** Node executed (Compute) or value forwarded (Route). */
    dfg::NodeId node = dfg::kInvalidNode;
    /** Values buffered in this PE's registers this layer. */
    std::vector<dfg::NodeId> registerValues;
};

/** Full configuration: config[layer][pe]. */
using Configuration = std::vector<std::vector<PeConfig>>;

/** Extract the configuration of a valid mapping. */
Configuration extractConfiguration(const map::Mapping &mapping);

/** Render the configuration of a valid mapping as an aligned text
 *  listing. */
std::string configurationToText(const map::Mapping &mapping);

} // namespace lisa::sim

#endif // LISA_SIM_CONFIG_EMIT_HH
