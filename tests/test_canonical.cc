/**
 * @file
 * Property suite for canonical DFG hashing (dfg/canonical.hh) — the
 * serve cache's key function. The load-bearing property is invariance:
 * any two ways of writing down the same graph must collide, and any two
 * different graphs must (modulo 64-bit hash luck) differ. Golden values
 * pin the forms of the 12 PolyBench kernels, so cache files written by
 * an earlier build keep hitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "dfg/builder.hh"
#include "dfg/canonical.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "support/fnv.hh"
#include "support/random.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa::dfg;
using lisa::Rng;

/** Rebuild @p g with node ids remapped through @p perm (old -> new) and
 *  edges inserted in @p edge_order. The result is the same graph, spelled
 *  with a different numbering. */
Dfg
permuted(const Dfg &g, const std::vector<NodeId> &perm,
         const std::vector<EdgeId> &edge_order)
{
    Dfg out("permuted");
    std::vector<NodeId> inverse(g.numNodes());
    for (size_t old_id = 0; old_id < g.numNodes(); ++old_id)
        inverse[static_cast<size_t>(perm[old_id])] =
            static_cast<NodeId>(old_id);
    for (size_t new_id = 0; new_id < g.numNodes(); ++new_id)
        out.addNode(g.node(inverse[new_id]).op);
    for (EdgeId e : edge_order) {
        const Edge &edge = g.edge(e);
        out.addEdge(perm[static_cast<size_t>(edge.src)],
                    perm[static_cast<size_t>(edge.dst)],
                    edge.iterDistance);
    }
    return out;
}

Dfg
sampleKernel()
{
    DfgBuilder b("kernel");
    auto a = b.load("a");
    auto x = b.load("x");
    auto m = b.op(OpCode::Mul, {a, x});
    auto acc = b.op(OpCode::Add, {m});
    b.recurrence(acc, acc);
    b.store(acc, "out");
    return b.build();
}

TEST(Canonical, PermutationInvariance)
{
    GeneratorConfig cfg;
    Rng rng(2024);
    for (int round = 0; round < 12; ++round) {
        Dfg g = generateRandomDfg(cfg, rng);
        const CanonicalDfg base = canonicalize(g);

        std::vector<NodeId> perm(g.numNodes());
        std::iota(perm.begin(), perm.end(), 0);
        rng.shuffle(perm);
        std::vector<EdgeId> edge_order(g.numEdges());
        std::iota(edge_order.begin(), edge_order.end(), 0);
        rng.shuffle(edge_order);

        const CanonicalDfg shuffled =
            canonicalize(permuted(g, perm, edge_order));
        EXPECT_EQ(base.text, shuffled.text) << "round " << round;
        EXPECT_EQ(base.hash, shuffled.hash) << "round " << round;
    }
}

TEST(Canonical, BuilderOrderInvariance)
{
    // The same multiply-accumulate spelled in two insertion orders.
    DfgBuilder forward("f");
    auto a = forward.load("a");
    auto b = forward.load("b");
    auto m = forward.op(OpCode::Mul, {a, b});
    forward.store(m, "o");

    Dfg reversed("r");
    NodeId st = reversed.addNode(OpCode::Store);
    NodeId mul = reversed.addNode(OpCode::Mul);
    NodeId lb = reversed.addNode(OpCode::Load);
    NodeId la = reversed.addNode(OpCode::Load);
    reversed.addEdge(mul, st);
    reversed.addEdge(lb, mul);
    reversed.addEdge(la, mul);

    EXPECT_EQ(canonicalHash(forward.build()), canonicalHash(reversed));
}

TEST(Canonical, TextualNoiseInvariance)
{
    // Comments, blank lines, node-name tags, and the graph name are all
    // presentation; only structure may feed the hash.
    auto plain = fromText("dfg k\n"
                          "node 0 load\n"
                          "node 1 add\n"
                          "node 2 store\n"
                          "edge 0 1\n"
                          "edge 1 2\n"
                          "edge 1 1 1\n");
    auto noisy = fromText("# preamble comment\n"
                          "dfg totally_different_name\n"
                          "\n"
                          "node 0 load A[i]   # tagged\n"
                          "node 1 add acc\n"
                          "node 2 store out\n"
                          "\n"
                          "edge 0 1\n"
                          "edge 1 2   # forward\n"
                          "edge 1 1 1 # recurrence\n");
    ASSERT_TRUE(plain.has_value());
    ASSERT_TRUE(noisy.has_value());
    EXPECT_EQ(canonicalHash(*plain), canonicalHash(*noisy));
}

TEST(Canonical, DistinctGraphsDiffer)
{
    // Same node multiset {load, load, add, store}, different wiring: the
    // add consumes both loads vs. one load twice (parallel edges). Color
    // refinement must separate these, not just the op histogram.
    auto both = fromText("dfg a\n"
                         "node 0 load\n"
                         "node 1 load\n"
                         "node 2 add\n"
                         "node 3 store\n"
                         "edge 0 2\nedge 1 2\nedge 2 3\nedge 1 3\n");
    auto twice = fromText("dfg b\n"
                          "node 0 load\n"
                          "node 1 load\n"
                          "node 2 add\n"
                          "node 3 store\n"
                          "edge 0 2\nedge 0 2\nedge 2 3\nedge 1 3\n");
    ASSERT_TRUE(both.has_value());
    ASSERT_TRUE(twice.has_value());
    EXPECT_NE(canonicalHash(*both), canonicalHash(*twice));

    // Iteration distance is structure too.
    auto dist1 = fromText("dfg c\nnode 0 load\nnode 1 add\n"
                          "edge 0 1\nedge 1 1 1\n");
    auto dist2 = fromText("dfg d\nnode 0 load\nnode 1 add\n"
                          "edge 0 1\nedge 1 1 2\n");
    ASSERT_TRUE(dist1.has_value());
    ASSERT_TRUE(dist2.has_value());
    EXPECT_NE(canonicalHash(*dist1), canonicalHash(*dist2));
}

TEST(Canonical, DistinctRandomGraphsDiffer)
{
    GeneratorConfig cfg;
    Rng rng(99);
    std::vector<uint64_t> hashes;
    for (int i = 0; i < 20; ++i)
        hashes.push_back(canonicalHash(generateRandomDfg(cfg, rng)));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end())
        << "random DFGs collided in the canonical hash";
}

TEST(Canonical, CanonicalTextIsAFixpoint)
{
    GeneratorConfig cfg;
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
        Dfg g = generateRandomDfg(cfg, rng);
        const CanonicalDfg canon = canonicalize(g);
        auto reparsed = fromText(canon.text);
        ASSERT_TRUE(reparsed.has_value())
            << "canonical text must round-trip through dfg::fromText";
        const CanonicalDfg again = canonicalize(*reparsed);
        EXPECT_EQ(again.text, canon.text);
        EXPECT_EQ(again.hash, canon.hash);
        // A graph already in canonical numbering maps onto itself.
        for (size_t v = 0; v < reparsed->numNodes(); ++v)
            EXPECT_EQ(again.toCanonical[v], static_cast<NodeId>(v));
    }
}

TEST(Canonical, TranslationTablesAreConsistent)
{
    Dfg g = sampleKernel();
    const CanonicalDfg canon = canonicalize(g);

    ASSERT_EQ(canon.nodeOrder.size(), g.numNodes());
    ASSERT_EQ(canon.toCanonical.size(), g.numNodes());
    ASSERT_EQ(canon.edgeOrder.size(), g.numEdges());
    ASSERT_EQ(canon.edgeToCanonical.size(), g.numEdges());

    // Node tables are inverse bijections.
    for (size_t pos = 0; pos < canon.nodeOrder.size(); ++pos)
        EXPECT_EQ(canon.toCanonical[static_cast<size_t>(
                      canon.nodeOrder[pos])],
                  static_cast<NodeId>(pos));

    // Edge tables are inverse bijections, and every canonical edge is the
    // image of its original under the node mapping.
    auto parsed = fromText(canon.text);
    ASSERT_TRUE(parsed.has_value());
    for (size_t ce = 0; ce < canon.edgeOrder.size(); ++ce) {
        const EdgeId orig = canon.edgeOrder[ce];
        EXPECT_EQ(canon.edgeToCanonical[static_cast<size_t>(orig)],
                  static_cast<EdgeId>(ce));
        const Edge &o = g.edge(orig);
        const Edge &c = parsed->edge(static_cast<EdgeId>(ce));
        EXPECT_EQ(c.src, canon.toCanonical[static_cast<size_t>(o.src)]);
        EXPECT_EQ(c.dst, canon.toCanonical[static_cast<size_t>(o.dst)]);
        EXPECT_EQ(c.iterDistance, o.iterDistance);
    }
}

TEST(Canonical, HashMatchesTextHashHelper)
{
    Dfg g = sampleKernel();
    const CanonicalDfg canon = canonicalize(g);
    EXPECT_EQ(canonicalHash(g), canon.hash);
    EXPECT_NE(canon.hash, 0u);
}

TEST(Canonical, Fig9aFormsArePinned)
{
    // Canonical hash (FNV-1a of the canonical text, so it pins the text)
    // and FNV-1a over nodeOrder then edgeOrder (the tables a hit
    // translates a stored mapping through), for each fig9a kernel. A
    // change here makes every LSRV cache file on disk miss.
    struct Golden
    {
        const char *name;
        uint64_t hash;
        uint64_t tables;
    };
    const Golden kGolden[] = {
        {"atax", 0xd768521578f93297ull, 0x0e28398929614043ull},
        {"bicg", 0x091b8821c0067bfbull, 0xa0c9c126f0f3f0d7ull},
        {"doitgen", 0x2c1ee20f9c68ca18ull, 0x9e01bad9ed5f3f24ull},
        {"gemm", 0xde702af879cfb83aull, 0x2cdb3f04de521b92ull},
        {"gemver", 0x21bf482d59050193ull, 0x7a2fe94a8eea269cull},
        {"gesummv", 0x9256ace8e0aa3966ull, 0x161334e24711f186ull},
        {"mm2", 0x73ca3400cc9c34b3ull, 0xa74441e388a4e06full},
        {"mvt", 0xc0ee4ab530a616cfull, 0x56905ab89175fadfull},
        {"symm", 0xb78fadebb2d4e4c3ull, 0x29ec924a8798542full},
        {"syr2k", 0x272784c375e5c1e4ull, 0xb51771cd6b47837full},
        {"syrk", 0xde702af879cfb83aull, 0x2cdb3f04de521b92ull},
        {"trmm", 0x1db9ff0deedad89aull, 0x088848f2eaab5cb2ull},
    };
    const std::vector<lisa::workloads::Workload> suite =
        lisa::workloads::polybenchSuite();
    ASSERT_EQ(suite.size(), std::size(kGolden));
    Rng rng(9);
    for (size_t k = 0; k < suite.size(); ++k) {
        const Dfg &g = suite[k].dfg;
        ASSERT_EQ(suite[k].name, kGolden[k].name);
        const CanonicalDfg canon = canonicalize(g);
        EXPECT_EQ(canon.hash, lisa::support::fnv1a(canon.text));
        EXPECT_EQ(canon.hash, kGolden[k].hash) << suite[k].name;
        lisa::support::Fnv1a tables;
        for (NodeId v : canon.nodeOrder)
            tables.i32(v);
        for (EdgeId e : canon.edgeOrder)
            tables.i32(e);
        EXPECT_EQ(tables.h, kGolden[k].tables) << suite[k].name;

        // Renumbered variants collide on the pinned hash.
        for (int round = 0; round < 3; ++round) {
            std::vector<NodeId> perm(g.numNodes());
            std::iota(perm.begin(), perm.end(), 0);
            rng.shuffle(perm);
            std::vector<EdgeId> edge_order(g.numEdges());
            std::iota(edge_order.begin(), edge_order.end(), 0);
            rng.shuffle(edge_order);
            EXPECT_EQ(canonicalHash(permuted(g, perm, edge_order)),
                      kGolden[k].hash)
                << suite[k].name << " round " << round;
        }
    }
}

/** @p g canonicalizes to a form that round-trips through fromText and
 *  re-canonicalizes to itself. */
void
expectFixpoint(const Dfg &g)
{
    const CanonicalDfg canon = canonicalize(g);
    auto reparsed = fromText(canon.text);
    ASSERT_TRUE(reparsed.has_value()) << canon.text;
    EXPECT_EQ(toText(*reparsed), canon.text);
    const CanonicalDfg again = canonicalize(*reparsed);
    EXPECT_EQ(again.text, canon.text);
    EXPECT_EQ(again.hash, canon.hash);
    for (size_t v = 0; v < reparsed->numNodes(); ++v)
        EXPECT_EQ(again.toCanonical[v], static_cast<NodeId>(v));
}

TEST(Canonical, SymmetricFansFallBackToAFixpoint)
{
    // Highly symmetric DFGs whose individualization tree is far too big
    // to search: the work budget stops them (each took 0.5-2 s when the
    // search was bounded by fixpoint count) and the fallback tie-break
    // must still give a form that is its own canonical form.
    Dfg stores("stores");
    const NodeId load = stores.addNode(OpCode::Load);
    for (int i = 0; i < 511; ++i)
        stores.addEdge(load, stores.addNode(OpCode::Store));
    expectFixpoint(stores);

    Dfg chains("chains");
    const NodeId src = chains.addNode(OpCode::Load);
    for (int i = 0; i < 128; ++i) {
        const NodeId add = chains.addNode(OpCode::Add);
        chains.addEdge(src, add);
        chains.addEdge(add, chains.addNode(OpCode::Store));
    }
    expectFixpoint(chains);

    // Renumbering does not change whether the budget runs out, so a
    // renumbered fan falls back too and its form is again a fixpoint.
    std::vector<NodeId> perm(chains.numNodes());
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(3);
    rng.shuffle(perm);
    std::vector<EdgeId> edge_order(chains.numEdges());
    std::iota(edge_order.begin(), edge_order.end(), 0);
    rng.shuffle(edge_order);
    expectFixpoint(permuted(chains, perm, edge_order));
}

} // namespace
