#include "dfg_text_reference.hh"

#include <cctype>
#include <sstream>

#include "dfg/serialize.hh"

namespace lisa::dfg {

namespace {

/** Replace every %XX in @p name by the byte it spells; false when a '%'
 *  lacks two hex digits. */
bool
unescapeName(std::string &name)
{
    std::string out;
    for (size_t i = 0; i < name.size(); ++i) {
        if (name[i] != '%') {
            out += name[i];
            continue;
        }
        if (i + 2 >= name.size() ||
            !std::isxdigit(static_cast<unsigned char>(name[i + 1])) ||
            !std::isxdigit(static_cast<unsigned char>(name[i + 2])))
            return false;
        out += static_cast<char>(std::stoi(name.substr(i + 1, 2), nullptr, 16));
        i += 2;
    }
    name = out;
    return true;
}

} // namespace

std::optional<Dfg>
fromTextReference(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<Dfg> {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::istringstream is(text);
    Dfg g;
    std::string line;
    int lineno = 0;
    bool have_header = false;
    while (std::getline(is, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string kind;
        if (!(ls >> kind))
            continue; // blank line
        if (kind == "dfg") {
            std::string name;
            ls >> name;
            if (!unescapeName(name))
                return fail("line " + std::to_string(lineno) +
                            ": malformed graph name");
            g.setName(name);
            have_header = true;
        } else if (kind == "node") {
            int id;
            std::string op, name;
            if (!(ls >> id >> op))
                return fail("line " + std::to_string(lineno) +
                            ": malformed node record");
            if (id != static_cast<int>(g.numNodes()))
                return fail("line " + std::to_string(lineno) +
                            ": node ids must be dense and ascending");
            if (g.numNodes() >= kMaxTextNodes)
                return fail("line " + std::to_string(lineno) +
                            ": more than " + std::to_string(kMaxTextNodes) +
                            " nodes");
            const std::optional<OpCode> code = opFromName(op);
            if (!code)
                return fail("line " + std::to_string(lineno) +
                            ": unknown op '" + op + "'");
            ls >> name;
            if (!unescapeName(name))
                return fail("line " + std::to_string(lineno) +
                            ": malformed node name");
            g.addNode(*code, name);
        } else if (kind == "edge") {
            int src, dst, dist = 0;
            if (!(ls >> src >> dst))
                return fail("line " + std::to_string(lineno) +
                            ": malformed edge record");
            ls >> dist;
            if (src < 0 || dst < 0 ||
                src >= static_cast<int>(g.numNodes()) ||
                dst >= static_cast<int>(g.numNodes())) {
                return fail("line " + std::to_string(lineno) +
                            ": edge endpoint out of range");
            }
            if (dist < 0 || dist > kMaxTextIterDistance)
                return fail("line " + std::to_string(lineno) +
                            ": iteration distance outside 0.." +
                            std::to_string(kMaxTextIterDistance));
            if (g.numEdges() >= kMaxTextEdges)
                return fail("line " + std::to_string(lineno) +
                            ": more than " + std::to_string(kMaxTextEdges) +
                            " edges");
            g.addEdge(src, dst, dist);
        } else {
            return fail("line " + std::to_string(lineno) +
                        ": unknown record '" + kind + "'");
        }
    }
    if (!have_header)
        return fail("missing 'dfg <name>' header");
    std::string reason;
    if (!g.validate(&reason))
        return fail("invalid DFG: " + reason);
    return g;
}

} // namespace lisa::dfg
