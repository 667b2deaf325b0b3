/**
 * @file
 * Dataflow graph (DFG) core types.
 *
 * A DFG node is one operation of a loop body; an edge is a data dependency.
 * Edges carry an iteration distance: 0 for intra-iteration dependencies and
 * >= 1 for loop-carried (recurrence) dependencies such as accumulators.
 */

#ifndef LISA_DFG_DFG_HH
#define LISA_DFG_DFG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lisa::dfg {

/** Operation kinds supported by the modelled accelerators. */
enum class OpCode : uint8_t
{
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Cmp,
    Select,
    Load,
    Store,
    Const,
};

/** Number of OpCode values (dense enum, for per-op lookup tables). */
inline constexpr int kNumOpCodes = static_cast<int>(OpCode::Const) + 1;

/** @return a short mnemonic such as "mul" for an OpCode. */
const char *opName(OpCode op);

/** Parse a mnemonic produced by opName(); std::nullopt on unknown
 *  names. */
std::optional<OpCode> opFromName(std::string_view name);

/** @return true for Load/Store, which may be restricted to memory PEs. */
bool isMemoryOp(OpCode op);

using NodeId = int32_t;
using EdgeId = int32_t;

constexpr NodeId kInvalidNode = -1;

/** One operation in the dataflow graph. */
struct Node
{
    NodeId id = kInvalidNode;
    OpCode op = OpCode::Add;
    /** Optional human-readable tag, e.g. "A[i][k]". */
    std::string name;
};

/** One data dependency between two operations. */
struct Edge
{
    EdgeId id = -1;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Iteration distance: 0 intra-iteration, >= 1 loop-carried. */
    int iterDistance = 0;
};

/**
 * A dataflow graph: operations plus dependencies, with per-node adjacency.
 *
 * The intra-iteration subgraph (edges with iterDistance == 0) must be
 * acyclic; recurrence edges may close cycles. validate() checks this.
 */
class Dfg
{
  public:
    Dfg() = default;
    explicit Dfg(std::string name) : _name(std::move(name)) {}

    /** Append a node and return its id. */
    NodeId addNode(OpCode op, std::string name = "");

    /** Append an edge and return its id; endpoints must exist. */
    EdgeId addEdge(NodeId src, NodeId dst, int iter_distance = 0);

    const std::string &name() const { return _name; }
    void setName(std::string n) { _name = std::move(n); }

    size_t numNodes() const { return _nodes.size(); }
    size_t numEdges() const { return _edges.size(); }

    const Node &node(NodeId id) const { return _nodes[id]; }
    const Edge &edge(EdgeId id) const { return _edges[id]; }

    const std::vector<Node> &nodes() const { return _nodes; }
    const std::vector<Edge> &edges() const { return _edges; }

    /** Edge ids leaving @p id (any iteration distance). */
    const std::vector<EdgeId> &outEdges(NodeId id) const;

    /** Edge ids entering @p id (any iteration distance). */
    const std::vector<EdgeId> &inEdges(NodeId id) const;

    /** Successor node ids along intra-iteration edges only. */
    std::vector<NodeId> intraSuccessors(NodeId id) const;

    /** Predecessor node ids along intra-iteration edges only. */
    std::vector<NodeId> intraPredecessors(NodeId id) const;

    /** Count of Load/Store nodes. */
    size_t numMemoryOps() const;

    /**
     * Check structural invariants: valid endpoints, acyclic intra-iteration
     * subgraph, and (optionally) weak connectivity when more than one node
     * exists. Unrolling a distance-d recurrence by a factor that divides d
     * legitimately produces independent interleaved chains, so the unroller
     * skips the connectivity requirement.
     *
     * @param reason on failure, receives a description of the violation.
     * @param require_connected demand weak connectivity (default).
     * @return true when the graph is well formed.
     */
    bool validate(std::string *reason = nullptr,
                  bool require_connected = true) const;

  private:
    std::string _name;
    std::vector<Node> _nodes;
    std::vector<Edge> _edges;
    std::vector<std::vector<EdgeId>> _out;
    std::vector<std::vector<EdgeId>> _in;
};

} // namespace lisa::dfg

#endif // LISA_DFG_DFG_HH
