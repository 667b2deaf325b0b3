#include "common.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "sim/simulator.hh"
#include "support/json.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"

namespace perfbench {

using namespace lisa;

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = {value, unit};
}

void
Report::note(const std::string &key, const std::string &json_value)
{
    notes[key] = json_value;
}

void
Report::fail(const std::string &what)
{
    std::cerr << "[perfbench] check failed: " << what << "\n";
    if (failures.size() < 20)
        failures.push_back(what);
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\":" << (failed == 0 ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        os << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
           << num(vu.first) << ",\"unit\":\"" << vu.second << "\"}";
        first = false;
    }
    os << "},\"notes\":{";
    first = true;
    for (const auto &[key, value] : notes) {
        os << (first ? "" : ",") << "\"" << key << "\":" << value;
        first = false;
    }
    os << "},\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(failures[i]) << "\"";
    os << "],\"rows\":[";
    for (size_t i = 0; i < rows.size(); ++i)
        os << (i ? "," : "") << rows[i];
    os << "]}";
    return os.str();
}

double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least p of the samples at
    // or below it.
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(p * n)));
    return values[std::min(rank, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    return percentile(values, 0.5);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

dfg::Dfg
renumberedVariant(const dfg::Dfg &g, Rng &rng, const std::string &name)
{
    const auto n = static_cast<dfg::NodeId>(g.numNodes());
    std::vector<dfg::NodeId> order(static_cast<size_t>(n));
    for (dfg::NodeId v = 0; v < n; ++v)
        order[static_cast<size_t>(v)] = v;
    rng.shuffle(order); // order[new id] = old id
    std::vector<dfg::NodeId> newId(static_cast<size_t>(n));
    for (dfg::NodeId i = 0; i < n; ++i)
        newId[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;

    dfg::Dfg out(name);
    for (dfg::NodeId i = 0; i < n; ++i)
        out.addNode(g.node(order[static_cast<size_t>(i)]).op,
                    "v" + std::to_string(rng.uniformInt(0, 999999)));
    std::vector<dfg::EdgeId> edges(g.numEdges());
    for (size_t e = 0; e < edges.size(); ++e)
        edges[e] = static_cast<dfg::EdgeId>(e);
    rng.shuffle(edges);
    for (dfg::EdgeId e : edges) {
        const dfg::Edge &edge = g.edge(e);
        out.addEdge(newId[static_cast<size_t>(edge.src)],
                    newId[static_cast<size_t>(edge.dst)], edge.iterDistance);
    }
    return out;
}

dfg::Dfg
freshKernel(Rng &rng, const std::string &name)
{
    dfg::GeneratorConfig gen;
    gen.minNodes = 4;
    gen.maxNodes = 6;
    gen.recurrenceProb = 0.0;
    while (true) {
        dfg::Dfg g = dfg::generateRandomDfg(gen, rng);
        if (g.numNodes() <= 7 && g.numEdges() <= 8 &&
            g.numMemoryOps() <= 4) {
            g.setName(name);
            return g;
        }
    }
}

std::string
mapRequestLine(const std::string &dfg_text, const std::string &accel_spec,
               double per_ii_budget, double total_budget)
{
    std::ostringstream os;
    os << "{\"op\":\"map\",\"dfg\":\"" << jsonEscape(dfg_text)
       << "\",\"accel\":\"" << jsonEscape(accel_spec)
       << "\",\"perIiBudget\":" << per_ii_budget
       << ",\"totalBudget\":" << total_budget << ",\"seed\":1}";
    return os.str();
}

std::string
checkServedMapping(const std::string &mapping_text, const dfg::Dfg &request,
                   bool simulate)
{
    std::string error;
    auto loaded = verify::mappingFromText(mapping_text, &error);
    if (!loaded)
        return "unparsable mapping: " + error;
    const dfg::Dfg &got = *loaded->dfg;
    if (got.numNodes() != request.numNodes() ||
        got.numEdges() != request.numEdges())
        return "mapping DFG shape differs from the request";
    for (size_t v = 0; v < request.numNodes(); ++v) {
        const auto id = static_cast<dfg::NodeId>(v);
        if (got.node(id).op != request.node(id).op)
            return "mapping DFG op differs at node " + std::to_string(v);
    }
    for (size_t e = 0; e < request.numEdges(); ++e) {
        const auto id = static_cast<dfg::EdgeId>(e);
        const dfg::Edge &a = got.edge(id);
        const dfg::Edge &b = request.edge(id);
        if (a.src != b.src || a.dst != b.dst ||
            a.iterDistance != b.iterDistance)
            return "mapping DFG edge differs at edge " + std::to_string(e);
    }
    const verify::VerifyReport report =
        verify::verifyMapping(got, *loaded->mrrg, *loaded->mapping);
    if (!report.ok())
        return "verifier: " + report.toString();
    if (simulate && !sim::verifyMapping(*loaded->mapping, 4, &error))
        return "simulation differs from the reference: " + error;
    return "";
}

Client::Client(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect " + socket_path + ": " + why);
    }
}

Client::~Client()
{
    if (fd >= 0)
        ::close(fd);
}

std::string
Client::roundTrip(const std::string &line)
{
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
        const ssize_t w =
            ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (w <= 0)
            throw std::runtime_error("send failed");
        off += static_cast<size_t>(w);
    }
    size_t nl = 0;
    size_t scanned = 0;
    while ((nl = pending.find('\n', scanned)) == std::string::npos) {
        scanned = pending.size();
        char buf[1 << 15];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            throw std::runtime_error("connection closed mid-response");
        pending.append(buf, static_cast<size_t>(n));
    }
    std::string response = pending.substr(0, nl);
    pending.erase(0, nl + 1);
    return response;
}

} // namespace perfbench
