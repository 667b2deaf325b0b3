/** @file Unit tests for the DFG core types and builder. */

#include <gtest/gtest.h>

#include <optional>

#include "dfg/builder.hh"
#include "dfg/dfg.hh"

namespace {

using namespace lisa::dfg;

TEST(Dfg, AddNodesAndEdges)
{
    Dfg g("t");
    NodeId a = g.addNode(OpCode::Load, "a");
    NodeId b = g.addNode(OpCode::Add, "b");
    EdgeId e = g.addEdge(a, b);
    EXPECT_EQ(g.numNodes(), 2u);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.edge(e).src, a);
    EXPECT_EQ(g.edge(e).dst, b);
    EXPECT_EQ(g.node(a).op, OpCode::Load);
}

TEST(Dfg, AdjacencyLists)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Load);
    NodeId b = g.addNode(OpCode::Add);
    NodeId c = g.addNode(OpCode::Mul);
    g.addEdge(a, b);
    g.addEdge(a, c);
    g.addEdge(b, c);
    EXPECT_EQ(g.outEdges(a).size(), 2u);
    EXPECT_EQ(g.inEdges(c).size(), 2u);
    EXPECT_EQ(g.intraSuccessors(a).size(), 2u);
    EXPECT_EQ(g.intraPredecessors(c).size(), 2u);
}

TEST(Dfg, RecurrenceEdgesExcludedFromIntraAdjacency)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Add);
    g.addEdge(a, a, 1);
    EXPECT_TRUE(g.intraSuccessors(a).empty());
    EXPECT_EQ(g.outEdges(a).size(), 1u);
}

TEST(Dfg, ValidateAcceptsDag)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Load);
    NodeId b = g.addNode(OpCode::Add);
    g.addEdge(a, b);
    std::string why;
    EXPECT_TRUE(g.validate(&why)) << why;
}

TEST(Dfg, ValidateRejectsIntraCycle)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Add);
    NodeId b = g.addNode(OpCode::Add);
    g.addEdge(a, b);
    g.addEdge(b, a);
    std::string why;
    EXPECT_FALSE(g.validate(&why));
    EXPECT_NE(why.find("cycle"), std::string::npos);
}

TEST(Dfg, ValidateAcceptsRecurrenceCycle)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Add);
    NodeId b = g.addNode(OpCode::Add);
    g.addEdge(a, b);
    g.addEdge(b, a, 1); // loop-carried back edge
    EXPECT_TRUE(g.validate());
}

TEST(Dfg, ValidateRejectsDisconnected)
{
    Dfg g;
    g.addNode(OpCode::Load);
    g.addNode(OpCode::Load);
    std::string why;
    EXPECT_FALSE(g.validate(&why));
    EXPECT_NE(why.find("connected"), std::string::npos);
}

TEST(Dfg, ValidateRejectsStoreWithConsumer)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Store);
    NodeId b = g.addNode(OpCode::Add);
    g.addEdge(a, b);
    std::string why;
    EXPECT_FALSE(g.validate(&why));
    EXPECT_NE(why.find("store"), std::string::npos);
}

TEST(Dfg, MemoryOpCount)
{
    Dfg g;
    NodeId a = g.addNode(OpCode::Load);
    NodeId b = g.addNode(OpCode::Store);
    NodeId c = g.addNode(OpCode::Add);
    g.addEdge(a, c);
    g.addEdge(c, b);
    EXPECT_EQ(g.numMemoryOps(), 2u);
}

TEST(OpNames, RoundTrip)
{
    for (auto op : {OpCode::Add, OpCode::Mul, OpCode::Load, OpCode::Store,
                    OpCode::Select, OpCode::Cmp, OpCode::Const}) {
        const std::optional<OpCode> parsed = opFromName(opName(op));
        ASSERT_TRUE(parsed.has_value()) << opName(op);
        EXPECT_EQ(*parsed, op);
    }
    EXPECT_FALSE(opFromName("frobnicate").has_value());
}

TEST(OpNames, MemoryClassification)
{
    EXPECT_TRUE(isMemoryOp(OpCode::Load));
    EXPECT_TRUE(isMemoryOp(OpCode::Store));
    EXPECT_FALSE(isMemoryOp(OpCode::Add));
    EXPECT_FALSE(isMemoryOp(OpCode::Const));
}

TEST(Builder, BuildsValidKernel)
{
    DfgBuilder b("k");
    auto x = b.load("x");
    auto y = b.load("y");
    auto m = b.op(OpCode::Mul, {x, y});
    auto acc = b.op(OpCode::Add, {m});
    b.recurrence(acc, acc);
    b.store(acc, "out");
    Dfg g = b.build();
    EXPECT_EQ(g.name(), "k");
    EXPECT_EQ(g.numNodes(), 5u);
    EXPECT_EQ(g.numEdges(), 5u);
    EXPECT_TRUE(g.validate());
}

TEST(Builder, RejectsZeroDistanceRecurrence)
{
    DfgBuilder b("k");
    auto x = b.load("x");
    auto y = b.op(OpCode::Add, {x});
    EXPECT_EXIT(b.recurrence(y, y, 0), ::testing::ExitedWithCode(1),
                "distance");
}

TEST(Builder, InvalidGraphDiesAtBuild)
{
    DfgBuilder b("bad");
    b.load("x");
    b.load("y"); // two disconnected loads
    EXPECT_EXIT(b.build(), ::testing::ExitedWithCode(1), "invalid");
}

} // namespace
