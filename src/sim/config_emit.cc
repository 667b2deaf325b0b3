#include "sim/config_emit.hh"

#include <sstream>

#include "support/logging.hh"

namespace lisa::sim {

Configuration
extractConfiguration(const map::Mapping &mapping)
{
    if (!mapping.valid())
        panic("extractConfiguration: mapping is not valid");

    const auto &mrrg = mapping.mrrg();
    const auto &dfg = mapping.dfg();
    const int pes = mrrg.accel().numPes();
    Configuration config(mrrg.ii(), std::vector<PeConfig>(pes));

    for (size_t v = 0; v < dfg.numNodes(); ++v) {
        const auto &pl = mapping.placement(static_cast<dfg::NodeId>(v));
        PeConfig &pc = config[pl.time % mrrg.ii()][pl.pe];
        pc.role = PeConfig::Role::Compute;
        pc.node = static_cast<dfg::NodeId>(v);
    }

    for (size_t e = 0; e < dfg.numEdges(); ++e) {
        const dfg::NodeId value = dfg.edge(static_cast<dfg::EdgeId>(e)).src;
        for (int res : mapping.route(static_cast<dfg::EdgeId>(e))) {
            const arch::Resource &r = mrrg.resource(res);
            PeConfig &pc = config[r.time][r.pe];
            if (r.kind == arch::ResourceKind::Fu) {
                if (pc.role == PeConfig::Role::Nop) {
                    pc.role = PeConfig::Role::Route;
                    pc.node = value;
                }
            } else {
                bool present = false;
                for (dfg::NodeId existing : pc.registerValues)
                    if (existing == value)
                        present = true;
                if (!present)
                    pc.registerValues.push_back(value);
            }
        }
    }
    return config;
}

std::string
configurationToText(const map::Mapping &mapping)
{
    const Configuration config = extractConfiguration(mapping);
    std::ostringstream os;
    const auto &dfg = mapping.dfg();
    const auto &accel = mapping.mrrg().accel();

    os << "configuration for '" << dfg.name() << "' on " << accel.name()
       << " (II=" << mapping.mrrg().ii() << ")\n";
    for (size_t t = 0; t < config.size(); ++t) {
        os << "cycle " << t << ":\n";
        for (int pe = 0; pe < accel.numPes(); ++pe) {
            const PeConfig &pc = config[t][pe];
            if (pc.role == PeConfig::Role::Nop &&
                pc.registerValues.empty()) {
                continue;
            }
            os << "  pe" << pe << ": ";
            switch (pc.role) {
              case PeConfig::Role::Compute:
                os << dfg::opName(dfg.node(pc.node).op) << " (node "
                   << pc.node << ")";
                break;
              case PeConfig::Role::Route:
                os << "route v" << pc.node;
                break;
              case PeConfig::Role::Nop:
                os << "nop";
                break;
            }
            if (!pc.registerValues.empty()) {
                os << " regs[";
                for (size_t i = 0; i < pc.registerValues.size(); ++i)
                    os << (i ? " " : "") << "v" << pc.registerValues[i];
                os << "]";
            }
            os << '\n';
        }
    }
    return os.str();
}

} // namespace lisa::sim
