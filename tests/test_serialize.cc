/** @file Unit tests for DFG text (de)serialization and dot output. */

#include <gtest/gtest.h>

#include "dfg/builder.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa::dfg;
using lisa::Rng;

/** Expect @p got to be @p want node for node and edge for edge: ops,
 *  names, endpoints and iteration distances, plus the graph name. */
void
expectSameGraph(const Dfg &got, const Dfg &want)
{
    EXPECT_EQ(got.name(), want.name());
    ASSERT_EQ(got.numNodes(), want.numNodes()) << want.name();
    ASSERT_EQ(got.numEdges(), want.numEdges()) << want.name();
    for (const Node &n : want.nodes()) {
        EXPECT_EQ(got.node(n.id).op, n.op) << want.name();
        EXPECT_EQ(got.node(n.id).name, n.name) << want.name();
    }
    for (size_t i = 0; i < want.numEdges(); ++i) {
        const Edge &a = got.edge(static_cast<EdgeId>(i));
        const Edge &b = want.edge(static_cast<EdgeId>(i));
        EXPECT_EQ(a.src, b.src) << want.name();
        EXPECT_EQ(a.dst, b.dst) << want.name();
        EXPECT_EQ(a.iterDistance, b.iterDistance) << want.name();
    }
}

Dfg
sample()
{
    DfgBuilder b("sample");
    auto x = b.load("x");
    auto y = b.op(OpCode::Mul, {x, x}, "sq");
    auto acc = b.op(OpCode::Add, {y});
    b.recurrence(acc, acc);
    b.store(acc, "out");
    return b.build();
}

TEST(Serialize, RoundTrip)
{
    Dfg g = sample();
    std::string text = toText(g);
    std::string error;
    auto parsed = fromText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->name(), "sample");
    ASSERT_EQ(parsed->numNodes(), g.numNodes());
    ASSERT_EQ(parsed->numEdges(), g.numEdges());
    for (size_t i = 0; i < g.numNodes(); ++i) {
        EXPECT_EQ(parsed->node(static_cast<NodeId>(i)).op,
                  g.node(static_cast<NodeId>(i)).op);
    }
    for (size_t i = 0; i < g.numEdges(); ++i) {
        const Edge &a = parsed->edge(static_cast<EdgeId>(i));
        const Edge &b = g.edge(static_cast<EdgeId>(i));
        EXPECT_EQ(a.src, b.src);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.iterDistance, b.iterDistance);
    }
}

TEST(Serialize, RoundTripRandomGraphs)
{
    GeneratorConfig cfg;
    Rng rng(77);
    for (int i = 0; i < 10; ++i) {
        Dfg g = generateRandomDfg(cfg, rng);
        auto parsed = fromText(toText(g));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(toText(*parsed), toText(g));
    }
}

TEST(Serialize, InTreeKernelsRoundTripWithNames)
{
    // Unrolled copies are named "name#k": '#' starts a comment, so the
    // writer must escape it for the name to come back whole.
    std::vector<lisa::workloads::Workload> suite =
        lisa::workloads::polybenchSuite();
    for (int factor : {2, 4, 8})
        for (auto &w : lisa::workloads::unrolledSuite(factor))
            suite.push_back(std::move(w));
    for (auto &w : lisa::workloads::streamingSuite())
        suite.push_back(std::move(w));
    int hashed_names = 0;
    for (const auto &w : suite) {
        for (const Node &n : w.dfg.nodes())
            hashed_names += n.name.find('#') != std::string::npos;
        std::string error;
        const auto parsed = fromText(toText(w.dfg), &error);
        ASSERT_TRUE(parsed.has_value()) << w.name << ": " << error;
        expectSameGraph(*parsed, w.dfg);
    }
    EXPECT_GT(hashed_names, 0);
}

TEST(Serialize, AnyNameRoundTrips)
{
    const std::vector<std::string> names = {
        "B2.a#3", "two words", "tab\there", "line\nbreak", "100%",
        "%23",    "#",         "\x7f\x01", "ok"};
    DfgBuilder b("graph #1 %");
    auto v = b.load(names.front());
    for (size_t i = 1; i + 1 < names.size(); ++i)
        v = b.op(OpCode::Add, {v}, names[i]);
    b.store(v, names.back());
    const Dfg g = b.build();
    const std::string text = toText(g);
    EXPECT_EQ(text.find('#'), std::string::npos) << text;
    EXPECT_NE(text.find("node 0 load B2.a%233\n"), std::string::npos)
        << text;
    std::string error;
    const auto parsed = fromText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    expectSameGraph(*parsed, g);
}

TEST(Serialize, RejectsMalformedNameEscapes)
{
    for (const char *text : {"dfg g\nnode 0 load a%2\n",
                             "dfg g\nnode 0 load a%zz\n",
                             "dfg g%\nnode 0 load a\n"}) {
        std::string error;
        EXPECT_FALSE(fromText(text, &error).has_value()) << text;
        EXPECT_NE(error.find("malformed"), std::string::npos) << error;
    }
}

TEST(Serialize, CommentsAndBlanksIgnored)
{
    std::string text = "# header comment\n"
                       "dfg t\n"
                       "\n"
                       "node 0 load x # trailing comment\n"
                       "node 1 add\n"
                       "edge 0 1\n";
    auto parsed = fromText(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->numNodes(), 2u);
}

TEST(Serialize, RejectsMissingHeader)
{
    std::string error;
    EXPECT_FALSE(fromText("node 0 add\n", &error).has_value());
    EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(Serialize, RejectsNonDenseNodeIds)
{
    std::string error;
    EXPECT_FALSE(
        fromText("dfg t\nnode 1 add\n", &error).has_value());
    EXPECT_NE(error.find("dense"), std::string::npos);
}

TEST(Serialize, RejectsEdgeOutOfRange)
{
    std::string error;
    EXPECT_FALSE(
        fromText("dfg t\nnode 0 add\nedge 0 5\n", &error).has_value());
    EXPECT_NE(error.find("range"), std::string::npos);
}

TEST(Serialize, RejectsInvalidGraph)
{
    // Two disconnected nodes fail Dfg::validate at parse time.
    std::string error;
    EXPECT_FALSE(fromText("dfg t\nnode 0 load\nnode 1 load\n", &error)
                     .has_value());
    EXPECT_NE(error.find("invalid"), std::string::npos);
}

TEST(Serialize, RejectsUnknownOp)
{
    std::string error;
    EXPECT_FALSE(fromText("dfg t\nnode 0 frobnicate\n", &error)
                     .has_value());
    EXPECT_NE(error.find("unknown op 'frobnicate'"), std::string::npos)
        << error;
}

TEST(Serialize, BoundsIterationDistance)
{
    const std::string head = "dfg t\nnode 0 load\nnode 1 add\nedge 0 1\n";
    std::string error;
    auto at_bound = fromText(
        head + "edge 1 1 " + std::to_string(kMaxTextIterDistance) + "\n",
        &error);
    ASSERT_TRUE(at_bound.has_value()) << error;
    EXPECT_EQ(at_bound->edge(1).iterDistance, kMaxTextIterDistance);

    for (const std::string &dist :
         {std::string("-1"), std::to_string(kMaxTextIterDistance + 1),
          std::string("2000000000")}) {
        error.clear();
        EXPECT_FALSE(fromText(head + "edge 1 1 " + dist + "\n", &error)
                         .has_value())
            << dist;
        EXPECT_NE(error.find("iteration distance"), std::string::npos)
            << error;
    }
}

/** A load feeding a chain of adds, @p nodes nodes in all, with extra
 *  load -> first-add edges up to @p edges edges. */
std::string
chainText(size_t nodes, size_t edges)
{
    std::string text = "dfg chain\nnode 0 load\n";
    for (size_t v = 1; v < nodes; ++v)
        text += "node " + std::to_string(v) + " add\n";
    for (size_t v = 1; v < nodes; ++v)
        text += "edge " + std::to_string(v - 1) + " " + std::to_string(v) +
                "\n";
    for (size_t e = nodes - 1; e < edges; ++e)
        text += "edge 0 1\n";
    return text;
}

TEST(Serialize, BoundsNodeAndEdgeCounts)
{
    std::string error;
    auto at_bound = fromText(chainText(kMaxTextNodes, kMaxTextEdges), &error);
    ASSERT_TRUE(at_bound.has_value()) << error;
    EXPECT_EQ(at_bound->numNodes(), kMaxTextNodes);
    EXPECT_EQ(at_bound->numEdges(), kMaxTextEdges);

    EXPECT_FALSE(fromText(chainText(kMaxTextNodes + 1, kMaxTextNodes), &error)
                     .has_value());
    EXPECT_NE(error.find("more than " + std::to_string(kMaxTextNodes) +
                         " nodes"),
              std::string::npos)
        << error;

    EXPECT_FALSE(fromText(chainText(8, kMaxTextEdges + 1), &error)
                     .has_value());
    EXPECT_NE(error.find("more than " + std::to_string(kMaxTextEdges) +
                         " edges"),
              std::string::npos)
        << error;
}

TEST(Serialize, DotContainsNodesAndRecurrenceStyle)
{
    Dfg g = sample();
    std::string dot = toDot(g);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("mul"), std::string::npos);
}

} // namespace
