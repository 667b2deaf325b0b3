#include "dfg/serialize.hh"

#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

namespace lisa::dfg {

void
writeText(const Dfg &dfg, std::ostream &os)
{
    os << "dfg " << (dfg.name().empty() ? "unnamed" : dfg.name()) << '\n';
    for (const Node &n : dfg.nodes()) {
        os << "node " << n.id << ' ' << opName(n.op);
        if (!n.name.empty())
            os << ' ' << n.name;
        os << '\n';
    }
    for (const Edge &e : dfg.edges()) {
        os << "edge " << e.src << ' ' << e.dst;
        if (e.iterDistance != 0)
            os << ' ' << e.iterDistance;
        os << '\n';
    }
}

std::string
toText(const Dfg &dfg)
{
    std::ostringstream os;
    writeText(dfg, os);
    return os.str();
}

namespace {

/** Token separators: the C locale's isspace() minus '\n', which ends a
 *  record. */
bool
isSeparator(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/** Pop the next separator-delimited token off the front of @p line;
 *  empty once the line is used up. */
std::string_view
nextToken(std::string_view &line)
{
    size_t begin = 0;
    while (begin < line.size() && isSeparator(line[begin]))
        ++begin;
    size_t end = begin;
    while (end < line.size() && !isSeparator(line[end]))
        ++end;
    const std::string_view token = line.substr(begin, end - begin);
    line.remove_prefix(end);
    return token;
}

/** Read all of @p token as a decimal integer with an optional sign. A
 *  token with anything after its digits ("3x", "2.5") is no integer. */
template <typename Int>
bool
parseInt(std::string_view token, Int &out)
{
    if (token.size() > 1 && token[0] == '+' && token[1] != '-')
        token.remove_prefix(1);
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

std::optional<Dfg>
fromText(std::string_view text, std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<Dfg> {
        if (error)
            *error = why;
        return std::nullopt;
    };
    int lineno = 0;
    auto failLine = [&](const std::string &why) {
        return fail("line " + std::to_string(lineno) + ": " + why);
    };

    Dfg g;
    bool have_header = false;
    while (!text.empty()) {
        const size_t eol = text.find('\n');
        std::string_view line = text.substr(0, eol);
        text.remove_prefix(eol == std::string_view::npos ? text.size()
                                                          : eol + 1);
        ++lineno;
        line = line.substr(0, line.find('#'));
        const std::string_view kind = nextToken(line);
        if (kind.empty())
            continue; // blank line
        if (kind == "dfg") {
            g.setName(std::string(nextToken(line)));
            have_header = true;
        } else if (kind == "node") {
            int id = 0;
            if (!parseInt(nextToken(line), id))
                return failLine("malformed node record");
            const std::string_view op = nextToken(line);
            if (op.empty())
                return failLine("malformed node record");
            if (id != static_cast<int>(g.numNodes()))
                return failLine("node ids must be dense and ascending");
            if (g.numNodes() >= kMaxTextNodes)
                return failLine("more than " +
                                std::to_string(kMaxTextNodes) + " nodes");
            const std::optional<OpCode> code = opFromName(op);
            if (!code)
                return failLine("unknown op '" + std::string(op) + "'");
            g.addNode(*code, std::string(nextToken(line)));
        } else if (kind == "edge") {
            int src = 0, dst = 0;
            long long dist = 0;
            if (!parseInt(nextToken(line), src) ||
                !parseInt(nextToken(line), dst))
                return failLine("malformed edge record");
            const std::string_view dist_token = nextToken(line);
            if (!dist_token.empty() && !parseInt(dist_token, dist))
                return failLine("malformed edge record");
            if (src < 0 || dst < 0 ||
                src >= static_cast<int>(g.numNodes()) ||
                dst >= static_cast<int>(g.numNodes()))
                return failLine("edge endpoint out of range");
            if (dist < 0 || dist > kMaxTextIterDistance)
                return failLine("iteration distance outside 0.." +
                                std::to_string(kMaxTextIterDistance));
            if (g.numEdges() >= kMaxTextEdges)
                return failLine("more than " +
                                std::to_string(kMaxTextEdges) + " edges");
            g.addEdge(src, dst, static_cast<int>(dist));
        } else {
            return failLine("unknown record '" + std::string(kind) + "'");
        }
    }
    if (!have_header)
        return fail("missing 'dfg <name>' header");
    std::string reason;
    if (!g.validate(&reason))
        return fail("invalid DFG: " + reason);
    return g;
}

std::optional<Dfg>
readText(std::istream &is, std::string *error)
{
    const std::string text(std::istreambuf_iterator<char>(is), {});
    return fromText(text, error);
}

std::string
toDot(const Dfg &dfg)
{
    std::ostringstream os;
    os << "digraph \"" << dfg.name() << "\" {\n";
    for (const Node &n : dfg.nodes()) {
        os << "  n" << n.id << " [label=\"" << n.id << ":" << opName(n.op)
           << "\"];\n";
    }
    for (const Edge &e : dfg.edges()) {
        os << "  n" << e.src << " -> n" << e.dst;
        if (e.iterDistance != 0)
            os << " [style=dashed,label=\"d" << e.iterDistance << "\"]";
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace lisa::dfg
