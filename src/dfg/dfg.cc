#include "dfg/dfg.hh"

#include <algorithm>
#include <queue>

#include "support/logging.hh"

namespace lisa::dfg {

namespace {

struct OpNamePair
{
    OpCode op;
    const char *name;
};

constexpr OpNamePair kOpNames[] = {
    {OpCode::Add, "add"},   {OpCode::Sub, "sub"},
    {OpCode::Mul, "mul"},   {OpCode::Div, "div"},
    {OpCode::And, "and"},   {OpCode::Or, "or"},
    {OpCode::Xor, "xor"},   {OpCode::Shl, "shl"},
    {OpCode::Shr, "shr"},   {OpCode::Cmp, "cmp"},
    {OpCode::Select, "sel"}, {OpCode::Load, "load"},
    {OpCode::Store, "store"}, {OpCode::Const, "const"},
};

} // namespace

const char *
opName(OpCode op)
{
    for (const auto &p : kOpNames)
        if (p.op == op)
            return p.name;
    panic("opName: unknown opcode ", static_cast<int>(op));
}

std::optional<OpCode>
opFromName(std::string_view name)
{
    for (const auto &p : kOpNames)
        if (name == p.name)
            return p.op;
    return std::nullopt;
}

bool
isMemoryOp(OpCode op)
{
    return op == OpCode::Load || op == OpCode::Store;
}

NodeId
Dfg::addNode(OpCode op, std::string name)
{
    NodeId id = static_cast<NodeId>(_nodes.size());
    _nodes.push_back(Node{id, op, std::move(name)});
    _out.emplace_back();
    _in.emplace_back();
    return id;
}

EdgeId
Dfg::addEdge(NodeId src, NodeId dst, int iter_distance)
{
    if (src < 0 || dst < 0 || static_cast<size_t>(src) >= _nodes.size() ||
        static_cast<size_t>(dst) >= _nodes.size()) {
        panic("addEdge: endpoint out of range (", src, " -> ", dst, ")");
    }
    if (iter_distance < 0)
        panic("addEdge: negative iteration distance");
    EdgeId id = static_cast<EdgeId>(_edges.size());
    _edges.push_back(Edge{id, src, dst, iter_distance});
    _out[src].push_back(id);
    _in[dst].push_back(id);
    return id;
}

const std::vector<EdgeId> &
Dfg::outEdges(NodeId id) const
{
    return _out[id];
}

const std::vector<EdgeId> &
Dfg::inEdges(NodeId id) const
{
    return _in[id];
}

std::vector<NodeId>
Dfg::intraSuccessors(NodeId id) const
{
    std::vector<NodeId> out;
    for (EdgeId e : _out[id])
        if (_edges[e].iterDistance == 0)
            out.push_back(_edges[e].dst);
    return out;
}

std::vector<NodeId>
Dfg::intraPredecessors(NodeId id) const
{
    std::vector<NodeId> out;
    for (EdgeId e : _in[id])
        if (_edges[e].iterDistance == 0)
            out.push_back(_edges[e].src);
    return out;
}

size_t
Dfg::numMemoryOps() const
{
    return static_cast<size_t>(std::count_if(
        _nodes.begin(), _nodes.end(),
        [](const Node &n) { return isMemoryOp(n.op); }));
}

bool
Dfg::validate(std::string *reason, bool require_connected) const
{
    auto fail = [&](const std::string &why) {
        if (reason)
            *reason = why;
        return false;
    };

    // Kahn's algorithm over the intra-iteration subgraph: the DFG is
    // acyclic iff every node can be drained.
    std::vector<int> indeg(_nodes.size(), 0);
    for (const Edge &e : _edges)
        if (e.iterDistance == 0)
            ++indeg[e.dst];
    std::queue<NodeId> ready;
    for (size_t v = 0; v < _nodes.size(); ++v)
        if (indeg[v] == 0)
            ready.push(static_cast<NodeId>(v));
    size_t drained = 0;
    while (!ready.empty()) {
        NodeId v = ready.front();
        ready.pop();
        ++drained;
        for (EdgeId e : _out[v]) {
            if (_edges[e].iterDistance != 0)
                continue;
            if (--indeg[_edges[e].dst] == 0)
                ready.push(_edges[e].dst);
        }
    }
    if (drained != _nodes.size())
        return fail("intra-iteration subgraph has a cycle");

    if (require_connected && _nodes.size() > 1) {
        // Weak connectivity via undirected BFS over all edges.
        std::vector<bool> seen(_nodes.size(), false);
        std::queue<NodeId> q;
        q.push(0);
        seen[0] = true;
        size_t visited = 1;
        while (!q.empty()) {
            NodeId v = q.front();
            q.pop();
            auto visit = [&](NodeId u) {
                if (!seen[u]) {
                    seen[u] = true;
                    ++visited;
                    q.push(u);
                }
            };
            for (EdgeId e : _out[v])
                visit(_edges[e].dst);
            for (EdgeId e : _in[v])
                visit(_edges[e].src);
        }
        if (visited != _nodes.size())
            return fail("graph is not weakly connected");
    }

    for (const Edge &e : _edges) {
        if (_nodes[e.src].op == OpCode::Store)
            return fail("store node has an outgoing data edge");
    }
    return true;
}

} // namespace lisa::dfg
