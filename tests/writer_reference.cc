#include "writer_reference.hh"

#include <ostream>
#include <sstream>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "json_reference.hh"

namespace lisa::dfg {

namespace {

bool
needsEscape(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return c == '%' || c == '#' || u <= 0x20 || u == 0x7f;
}

void
writeName(std::ostream &os, const std::string &name)
{
    static constexpr char kHex[] = "0123456789ABCDEF";
    for (char c : name) {
        if (!needsEscape(c)) {
            os << c;
            continue;
        }
        const auto u = static_cast<unsigned char>(c);
        os << '%' << kHex[u >> 4] << kHex[u & 15];
    }
}

void
writeText(const Dfg &dfg, std::ostream &os)
{
    os << "dfg ";
    writeName(os, dfg.name().empty() ? std::string("unnamed") : dfg.name());
    os << '\n';
    for (const Node &n : dfg.nodes()) {
        os << "node " << n.id << ' ' << opName(n.op);
        if (!n.name.empty()) {
            os << ' ';
            writeName(os, n.name);
        }
        os << '\n';
    }
    for (const Edge &e : dfg.edges()) {
        os << "edge " << e.src << ' ' << e.dst;
        if (e.iterDistance != 0)
            os << ' ' << e.iterDistance;
        os << '\n';
    }
}

} // namespace

std::string
toTextReference(const Dfg &dfg)
{
    std::ostringstream os;
    writeText(dfg, os);
    return os.str();
}

} // namespace lisa::dfg

namespace lisa::verify {

std::string
accelSpecOfReference(const arch::Accelerator &accel)
{
    if (const auto *cgra = dynamic_cast<const arch::CgraArch *>(&accel)) {
        const arch::CgraConfig &cfg = cgra->config();
        std::ostringstream os;
        os << "accel cgra " << cfg.rows << ' ' << cfg.cols << ' '
           << cfg.registersPerPe << ' '
           << (cfg.memPolicy == arch::MemPolicy::AllPes ? "all" : "left")
           << ' ' << cfg.configDepth;
        return os.str();
    }
    if (const auto *sys =
            dynamic_cast<const arch::SystolicArch *>(&accel)) {
        std::ostringstream os;
        os << "accel systolic " << sys->rows() << ' ' << sys->cols();
        return os.str();
    }
    return {};
}

std::string
mappingToTextReference(const map::Mapping &mapping)
{
    std::ostringstream os;
    const dfg::Dfg &dfg = mapping.dfg();
    os << "lisa-mapping v1\n"
       << accelSpecOfReference(mapping.mrrg().accel()) << "\nii "
       << mapping.mrrg().ii() << "\ndfg-begin\n"
       << dfg::toTextReference(dfg) << "dfg-end\n";
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(dfg.numNodes());
         ++v) {
        if (!mapping.isPlaced(v))
            continue;
        const map::Placement &p = mapping.placement(v);
        os << "place " << v << ' ' << p.pe << ' ' << p.time << '\n';
    }
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (!mapping.isRouted(e))
            continue;
        const auto &path = mapping.route(e);
        os << "route " << e << ' ' << path.size();
        for (int res : path)
            os << ' ' << res;
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

} // namespace lisa::verify

namespace lisa::serve {

std::string
encodeMapResponseReference(const MapOutcome &o, double service_ms)
{
    std::ostringstream os;
    if (!o.ok) {
        os << "{\"ok\":false,\"op\":\"map\",\"error\":\""
           << jsonEscapeReference(o.error)
           << "\",\"serviceMs\":" << service_ms << "}";
        return os.str();
    }
    os << "{\"ok\":true,\"op\":\"map\",\"cacheHit\":"
       << (o.cacheHit ? "true" : "false")
       << ",\"coalesced\":" << (o.coalesced ? "true" : "false")
       << ",\"ii\":" << o.ii << ",\"mii\":" << o.mii
       << ",\"verified\":" << (o.verified ? "true" : "false")
       << ",\"budgetClass\":\"" << jsonEscapeReference(o.budgetClass)
       << "\",\"winner\":\"" << jsonEscapeReference(o.winner)
       << "\",\"attempts\":" << o.attempts
       << ",\"searchSeconds\":" << o.searchSeconds
       << ",\"serviceMs\":" << service_ms << ",\"mapping\":\""
       << jsonEscapeReference(o.mappingText) << "\"}";
    return os.str();
}

} // namespace lisa::serve
