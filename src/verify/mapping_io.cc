#include "verify/mapping_io.hh"

#include <sstream>
#include <vector>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/serialize.hh"
#include "support/logging.hh"
#include "support/text_append.hh"

namespace lisa::verify {

namespace {

/** @{ Largest fabric a spec line may describe. Specs arrive from socket
 *  requests and cache files, so every dimension is bounded before any
 *  allocation. The largest fabric in the tree is an 8x8 CGRA with 4
 *  registers per PE and configuration depth 24; these bounds leave
 *  ample room above it. */
constexpr int kMaxCgraDim = 32;
constexpr int kMaxRegistersPerPe = 16;
constexpr int kMaxConfigDepth = 64;
constexpr int kMaxSystolicRows = 32;
constexpr int kMinSystolicCols = 3;
constexpr int kMaxSystolicCols = 32;
/** @} */

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

} // namespace

std::string
accelSpecOf(const arch::Accelerator &accel)
{
    std::string out;
    if (const auto *cgra = dynamic_cast<const arch::CgraArch *>(&accel)) {
        const arch::CgraConfig &cfg = cgra->config();
        out = "accel cgra ";
        support::appendInt(out, cfg.rows);
        out += ' ';
        support::appendInt(out, cfg.cols);
        out += ' ';
        support::appendInt(out, cfg.registersPerPe);
        out += cfg.memPolicy == arch::MemPolicy::AllPes ? " all " : " left ";
        support::appendInt(out, cfg.configDepth);
    } else if (const auto *sys =
                   dynamic_cast<const arch::SystolicArch *>(&accel)) {
        out = "accel systolic ";
        support::appendInt(out, sys->rows());
        out += ' ';
        support::appendInt(out, sys->cols());
    }
    return out;
}

std::unique_ptr<arch::Accelerator>
accelFromSpec(const std::string &spec, std::string *error)
{
    std::istringstream ls(spec);
    std::string tag, kind;
    ls >> tag >> kind;
    if (tag != "accel") {
        fail(error, "expected 'accel', got: " + spec);
        return nullptr;
    }
    if (kind == "cgra") {
        arch::CgraConfig cfg;
        std::string mem;
        if (!(ls >> cfg.rows >> cfg.cols >> cfg.registersPerPe >> mem >>
              cfg.configDepth) ||
            cfg.rows < 1 || cfg.rows > kMaxCgraDim || cfg.cols < 1 ||
            cfg.cols > kMaxCgraDim || cfg.registersPerPe < 0 ||
            cfg.registersPerPe > kMaxRegistersPerPe || cfg.configDepth < 1 ||
            cfg.configDepth > kMaxConfigDepth ||
            (mem != "all" && mem != "left")) {
            fail(error, "malformed cgra spec: " + spec);
            return nullptr;
        }
        cfg.memPolicy = mem == "all" ? arch::MemPolicy::AllPes
                                     : arch::MemPolicy::LeftColumn;
        return std::make_unique<arch::CgraArch>(cfg);
    }
    if (kind == "systolic") {
        int rows = 0, cols = 0;
        if (!(ls >> rows >> cols) || rows < 1 || rows > kMaxSystolicRows ||
            cols < kMinSystolicCols || cols > kMaxSystolicCols) {
            fail(error, "malformed systolic spec: " + spec);
            return nullptr;
        }
        return std::make_unique<arch::SystolicArch>(rows, cols);
    }
    fail(error, "unknown accelerator kind: " + kind);
    return nullptr;
}

std::string
mappingToText(const map::Mapping &mapping)
{
    const std::string spec = accelSpecOf(mapping.mrrg().accel());
    if (spec.empty())
        fatal("mappingToText: accelerator '", mapping.mrrg().accel().name(),
              "' has no serializable spec");

    const dfg::Dfg &dfg = mapping.dfg();
    // Room for the header, the DFG text and the usual place and route
    // lines, so the artifact is written in one allocation.
    std::string out;
    out.reserve(64 + spec.size() + 48 * dfg.numNodes() +
                40 * dfg.numEdges() +
                8 * static_cast<size_t>(mapping.totalRouteResources()));
    out += "lisa-mapping v1\n";
    out += spec;
    out += "\nii ";
    support::appendInt(out, mapping.mrrg().ii());
    out += "\ndfg-begin\n";
    dfg::appendText(dfg, out);
    out += "dfg-end\n";
    for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(dfg.numNodes());
         ++v) {
        if (!mapping.isPlaced(v))
            continue;
        const map::Placement &p = mapping.placement(v);
        out += "place ";
        support::appendInt(out, v);
        out += ' ';
        support::appendInt(out, p.pe.value());
        out += ' ';
        support::appendInt(out, p.time.value());
        out += '\n';
    }
    for (dfg::EdgeId e = 0; e < static_cast<dfg::EdgeId>(dfg.numEdges());
         ++e) {
        if (!mapping.isRouted(e))
            continue;
        const auto &path = mapping.route(e);
        out += "route ";
        support::appendInt(out, e);
        out += ' ';
        support::appendInt(out, path.size());
        for (int res : path) {
            out += ' ';
            support::appendInt(out, res);
        }
        out += '\n';
    }
    out += "end\n";
    return out;
}

std::optional<LoadedMapping>
readMapping(std::istream &is, std::string *error)
{
    std::string line;
    auto next_line = [&](std::string &out) {
        while (std::getline(is, out)) {
            const size_t start = out.find_first_not_of(" \t\r");
            if (start == std::string::npos || out[start] == '#')
                continue;
            return true;
        }
        return false;
    };

    if (!next_line(line) || line.rfind("lisa-mapping v1", 0) != 0) {
        fail(error, "missing 'lisa-mapping v1' header");
        return std::nullopt;
    }

    LoadedMapping out;

    // Accelerator spec.
    if (!next_line(line)) {
        fail(error, "missing accel line");
        return std::nullopt;
    }
    out.accel = accelFromSpec(line, error);
    if (!out.accel)
        return std::nullopt;

    // II.
    int ii = 0;
    if (!next_line(line)) {
        fail(error, "missing ii line");
        return std::nullopt;
    }
    {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag >> ii) || tag != "ii" || ii < 1 ||
            ii > out.accel->maxIi()) {
            fail(error, "malformed ii line: " + line);
            return std::nullopt;
        }
    }

    // Embedded DFG.
    if (!next_line(line) || line.rfind("dfg-begin", 0) != 0) {
        fail(error, "missing dfg-begin");
        return std::nullopt;
    }
    std::ostringstream dfg_text;
    bool closed = false;
    while (std::getline(is, line)) {
        if (line.rfind("dfg-end", 0) == 0) {
            closed = true;
            break;
        }
        dfg_text << line << '\n';
    }
    if (!closed) {
        fail(error, "missing dfg-end");
        return std::nullopt;
    }
    std::string dfg_error;
    auto parsed = dfg::fromText(dfg_text.str(), &dfg_error);
    if (!parsed) {
        fail(error, "embedded dfg: " + dfg_error);
        return std::nullopt;
    }
    out.dfg = std::make_unique<dfg::Dfg>(std::move(*parsed));

    out.mrrg = std::make_shared<const arch::Mrrg>(*out.accel, ii);
    out.mapping = std::make_unique<map::Mapping>(*out.dfg, out.mrrg);
    const auto num_nodes = static_cast<dfg::NodeId>(out.dfg->numNodes());
    const auto num_edges = static_cast<dfg::EdgeId>(out.dfg->numEdges());

    // Placements and routes, replayed through the mapping's mutators.
    // Range and ordering problems are rejected here (the replay would
    // panic on them); invariant violations (broken chains, conflicting
    // instances, bad layers) replay fine for the verifier to report.
    while (next_line(line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "end")
            return out;
        if (tag == "place") {
            dfg::NodeId v = -1;
            int pe = -1, time = -1;
            if (!(ls >> v >> pe >> time)) {
                fail(error, "malformed place line: " + line);
                return std::nullopt;
            }
            if (v < 0 || v >= num_nodes) {
                fail(error, "place: unknown node in: " + line);
                return std::nullopt;
            }
            if (out.mapping->isPlaced(v)) {
                fail(error, "place: node placed twice in: " + line);
                return std::nullopt;
            }
            if (pe < 0 || pe >= out.accel->numPes() || time < 0 ||
                time >= out.mapping->horizon()) {
                fail(error, "place: pe/time out of range in: " + line);
                return std::nullopt;
            }
            out.mapping->placeNode(v, PeId{pe}, AbsTime{time});
        } else if (tag == "route") {
            dfg::EdgeId e = -1;
            size_t hops = 0;
            if (!(ls >> e >> hops)) {
                fail(error, "malformed route line: " + line);
                return std::nullopt;
            }
            if (e < 0 || e >= num_edges) {
                fail(error, "route: unknown edge in: " + line);
                return std::nullopt;
            }
            if (out.mapping->isRouted(e)) {
                fail(error, "route: edge routed twice in: " + line);
                return std::nullopt;
            }
            const dfg::Edge &edge = out.dfg->edge(e);
            if (!out.mapping->isPlaced(edge.src) ||
                !out.mapping->isPlaced(edge.dst)) {
                fail(error,
                     "route: endpoint not placed yet in: " + line);
                return std::nullopt;
            }
            // hops is file-shaped: the path grows only by the hops
            // actually read, never by reserving what the count promises.
            std::vector<int> path;
            for (size_t i = 0; i < hops; ++i) {
                int res = -1;
                if (!(ls >> res)) {
                    fail(error, "route: missing hop in: " + line);
                    return std::nullopt;
                }
                if (res < 0 || res >= out.mrrg->numResources()) {
                    fail(error,
                         "route: resource out of range in: " + line);
                    return std::nullopt;
                }
                path.push_back(res);
            }
            out.mapping->setRoute(e, std::move(path));
        } else {
            fail(error, "unknown record: " + line);
            return std::nullopt;
        }
    }
    fail(error, "missing 'end' trailer");
    return std::nullopt;
}

std::optional<LoadedMapping>
mappingFromText(const std::string &text, std::string *error)
{
    std::istringstream is(text);
    return readMapping(is, error);
}

} // namespace lisa::verify
