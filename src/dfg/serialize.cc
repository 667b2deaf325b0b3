#include "dfg/serialize.hh"

#include <charconv>
#include <istream>
#include <iterator>
#include <sstream>

#include "support/text_append.hh"

namespace lisa::dfg {

namespace {

/** Bytes a name cannot hold verbatim: the escape byte, the comment
 *  byte, and every byte at or below ' ' (separators, line ends and
 *  other control bytes) or at 0x7f. */
bool
needsEscape(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return c == '%' || c == '#' || u <= 0x20 || u == 0x7f;
}

/** Append @p name with every byte needsEscape() marks as %XX. Runs of
 *  plain bytes go out in one append: this is on the serve hit path. */
void
appendName(std::string &out, std::string_view name)
{
    static constexpr char kHex[] = "0123456789ABCDEF";
    size_t plain = 0;
    for (size_t i = 0; i < name.size(); ++i) {
        if (!needsEscape(name[i]))
            continue;
        const auto u = static_cast<unsigned char>(name[i]);
        out.append(name.data() + plain, i - plain);
        out += '%';
        out += kHex[u >> 4];
        out += kHex[u & 15];
        plain = i + 1;
    }
    out.append(name.data() + plain, name.size() - plain);
}

} // namespace

void
appendText(const Dfg &dfg, std::string &out)
{
    // Room for the usual record lengths, so a kernel's text is written
    // in one or two allocations.
    out.reserve(out.size() + 16 + dfg.name().size() +
                24 * dfg.numNodes() + 16 * dfg.numEdges());
    out += "dfg ";
    appendName(out, dfg.name().empty() ? std::string_view("unnamed")
                                       : std::string_view(dfg.name()));
    out += '\n';
    for (const Node &n : dfg.nodes()) {
        out += "node ";
        support::appendInt(out, n.id);
        out += ' ';
        out += opName(n.op);
        if (!n.name.empty()) {
            out += ' ';
            appendName(out, n.name);
        }
        out += '\n';
    }
    for (const Edge &e : dfg.edges()) {
        out += "edge ";
        support::appendInt(out, e.src);
        out += ' ';
        support::appendInt(out, e.dst);
        if (e.iterDistance != 0) {
            out += ' ';
            support::appendInt(out, e.iterDistance);
        }
        out += '\n';
    }
}

std::string
toText(const Dfg &dfg)
{
    std::string out;
    appendText(dfg, out);
    return out;
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

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** Decode a name token written by writeName. False on a '%' that two
 *  hex digits do not follow. */
bool
readName(std::string_view token, std::string &out)
{
    out.assign(token.substr(0, token.find('%')));
    for (size_t i = out.size(); i < token.size(); ++i) {
        if (token[i] != '%') {
            out += token[i];
            continue;
        }
        const int hi = i + 2 < token.size() ? hexValue(token[i + 1]) : -1;
        const int lo = hi >= 0 ? hexValue(token[i + 2]) : -1;
        if (lo < 0)
            return false;
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return true;
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
            std::string name;
            if (!readName(nextToken(line), name))
                return failLine("malformed graph name");
            g.setName(std::move(name));
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
            std::string name;
            if (!readName(nextToken(line), name))
                return failLine("malformed node name");
            g.addNode(*code, std::move(name));
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
