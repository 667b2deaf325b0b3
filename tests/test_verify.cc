/** @file Mutation tests for the independent mapping invariant verifier:
 *  each corruption class seeded into a known-good mapping must be caught
 *  with the exact ViolationKind, and clean mappings from every mapper
 *  must verify clean. */

#include <gtest/gtest.h>

#include <sstream>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "core/labels.hh"
#include "core/lisa_mapper.hh"
#include "dfg/builder.hh"
#include "mapping/ii_search.hh"
#include "mapping/router.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"
#include "workloads/registry.hh"

namespace lisa::map {

/**
 * Test-only corruption backdoor (befriended by Mapping). Each accessor
 * reaches one private field so the mutation suite can seed exactly the
 * inconsistency a given accounting bug would produce, without the public
 * API keeping the caches coherent behind our back.
 */
struct MappingTestAccess
{
    static Placement &
    placementOf(Mapping &m, dfg::NodeId v)
    {
        return m.place[v];
    }

    static std::vector<int> &
    routeOf(Mapping &m, dfg::EdgeId e)
    {
        return m.routes[e];
    }

    /** Record an instance no placement or route accounts for, through
     *  the same bookkeeping (instance list and flat mirrors) that
     *  numInstancesOn / holdsInstance read. */
    static void
    addPhantomInstance(Mapping &m, int res, int64_t key)
    {
        m.addInstance(res, key);
    }

    static int &overuse(Mapping &m) { return m.overuse; }
    static size_t &placedCount(Mapping &m) { return m.placedCount; }
    static int &routeResourceCount(Mapping &m)
    {
        return m.routeResourceCount;
    }
};

} // namespace lisa::map

namespace {

using namespace lisa;
using namespace lisa::map;
using namespace lisa::verify;
using dfg::OpCode;
using Access = MappingTestAccess;

/** Chain DFG (load -> add -> mul) on a 4x4 baseline CGRA at II 2. */
struct VerifyTest : public ::testing::Test
{
    VerifyTest()
    {
        dfg::DfgBuilder b("chain");
        auto x = b.load("x");
        auto y = b.op(OpCode::Add, {x});
        auto z = b.op(OpCode::Mul, {y});
        (void)z;
        graph = b.build();
        accel = std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
        mrrg = std::make_shared<const arch::Mrrg>(*accel, 2);
    }

    /** Complete, legal mapping: adjacent PEs, one cycle apart, direct
     *  feeds (empty intermediate paths). */
    Mapping
    goodMapping()
    {
        Mapping m(graph, mrrg);
        m.placeNode(0, PeId{0}, AbsTime{0});
        m.placeNode(1, PeId{1}, AbsTime{1});
        m.placeNode(2, PeId{2}, AbsTime{2});
        m.setRoute(0, {});
        m.setRoute(1, {});
        EXPECT_TRUE(m.valid());
        return m;
    }

    VerifyReport
    check(const Mapping &m, bool require_complete = true)
    {
        return verifyMapping(graph, *mrrg, m,
                             {.requireComplete = require_complete});
    }

    dfg::Dfg graph;
    std::unique_ptr<arch::CgraArch> accel;
    std::shared_ptr<const arch::Mrrg> mrrg;
};

TEST_F(VerifyTest, CleanMappingVerifiesClean)
{
    Mapping m = goodMapping();
    EXPECT_TRUE(check(m).ok());
    EXPECT_TRUE(check(m, false).ok());
}

TEST_F(VerifyTest, EmptyMappingIsStructurallyCleanButIncomplete)
{
    Mapping m(graph, mrrg);
    EXPECT_TRUE(check(m, false).ok());
    VerifyReport r = check(m);
    EXPECT_EQ(r.count(ViolationKind::NodeUnplaced), 3);
    EXPECT_EQ(r.count(ViolationKind::EdgeUnrouted), 2);
}

// --- Mutation suite: one corruption class per test, asserting the exact
// --- ViolationKind the verifier must attribute to it.

TEST_F(VerifyTest, CatchesPeOutOfRange)
{
    Mapping m = goodMapping();
    Access::placementOf(m, 1).pe = PeId{99};
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::PeOutOfRange)) << r.toString();
    EXPECT_NE(r.toString().find("node 1"), std::string::npos);
}

TEST_F(VerifyTest, CatchesTimeOutOfRange)
{
    Mapping m = goodMapping();
    Access::placementOf(m, 2).time = AbsTime{m.horizon() + 5};
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::TimeOutOfRange)) << r.toString();
    EXPECT_NE(r.toString().find("node 2"), std::string::npos);
}

TEST_F(VerifyTest, OutOfRangeConsumerTimeSkipsItsRouteChecks)
{
    // Edge 1 (node 1 -> node 2) is routed, and its consumer moves past
    // the horizon. The placement violation is the report: the route's
    // checks, which index the MRRG by the endpoints, are skipped.
    Mapping m = goodMapping();
    ASSERT_TRUE(m.isRouted(1));
    Access::placementOf(m, 2).time = AbsTime{m.horizon() + 5};
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::TimeOutOfRange)) << r.toString();
    EXPECT_NE(r.toString().find("node 2"), std::string::npos);
    EXPECT_FALSE(r.has(ViolationKind::RouteLengthMismatch)) << r.toString();
    EXPECT_FALSE(r.has(ViolationKind::RouteBrokenChain)) << r.toString();
    EXPECT_FALSE(r.has(ViolationKind::RouteBadLastHop)) << r.toString();
}

TEST_F(VerifyTest, CatchesNegativeTime)
{
    Mapping m = goodMapping();
    Access::placementOf(m, 0).time = AbsTime{-3};
    EXPECT_TRUE(check(m).has(ViolationKind::TimeOutOfRange));
}

TEST_F(VerifyTest, CatchesOpUnsupported)
{
    // Left-column memory policy: a Load legally placed (the mapping API
    // does not check op support; only capable-PE selection does) on a
    // non-memory PE is exactly what a placement-candidate bug produces.
    arch::CgraArch mem_accel(arch::lessMemoryCgra());
    auto mem_mrrg = std::make_shared<const arch::Mrrg>(mem_accel, 2);
    Mapping m(graph, mem_mrrg);
    m.placeNode(0, PeId{1}, AbsTime{0}); // column 1: no memory port
    VerifyReport r = verifyMapping(graph, *mem_mrrg, m,
                                   {.requireComplete = false});
    ASSERT_TRUE(r.has(ViolationKind::OpUnsupported)) << r.toString();
    EXPECT_NE(r.toString().find("load"), std::string::npos);
}

TEST_F(VerifyTest, CatchesRouteEndpointUnplaced)
{
    Mapping m = goodMapping();
    // Node vanishes while its in-edge's route stays installed: the
    // residue an unplaceNode-without-rip-up bug would leave behind.
    Access::placementOf(m, 1) = Placement{};
    EXPECT_TRUE(check(m).has(ViolationKind::RouteEndpointUnplaced));
}

TEST_F(VerifyTest, CatchesRouteLengthMismatch)
{
    // Producer at t0, consumer two cycles later on the same PE: the
    // schedule demands exactly one intermediate holder, we install none.
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{2});
    m.setRoute(0, {});
    VerifyReport r = check(m, false);
    ASSERT_TRUE(r.has(ViolationKind::RouteLengthMismatch)) << r.toString();
    EXPECT_NE(r.toString().find("requires 1"), std::string::npos);
}

TEST_F(VerifyTest, CatchesRouteDroppedHop)
{
    // A hop silently lost from a stored route (truncation bug).
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3});
    m.setRoute(0, {mrrg->regId(PeId{0}, 0, AbsTime{1}),
                   mrrg->regId(PeId{0}, 0, AbsTime{2})});
    EXPECT_TRUE(check(m, false).ok());
    Access::routeOf(m, 0).pop_back();
    EXPECT_TRUE(check(m, false).has(ViolationKind::RouteLengthMismatch));
}

TEST_F(VerifyTest, CatchesRouteLayerMismatch)
{
    // The hop count satisfies the schedule but the holder sits on the
    // wrong II layer: time-folding corruption.
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{2});
    // Required: one holder on layer 1; install one on layer 0 instead.
    m.setRoute(0, {mrrg->regId(PeId{0}, 0, AbsTime{2})});
    EXPECT_TRUE(check(m, false).has(ViolationKind::RouteLayerMismatch));
}

TEST_F(VerifyTest, CatchesRouteBrokenChain)
{
    // Second hop names a register of a far PE: correct layer, correct
    // length, but values cannot teleport across the mesh.
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{0}, AbsTime{3});
    m.setRoute(0, {mrrg->regId(PeId{0}, 0, AbsTime{1}),
                   mrrg->regId(PeId{15}, 0, AbsTime{2})});
    VerifyReport r = check(m, false);
    ASSERT_TRUE(r.has(ViolationKind::RouteBrokenChain)) << r.toString();
    EXPECT_NE(r.toString().find("hop 1"), std::string::npos);
}

TEST_F(VerifyTest, CatchesRouteBadLastHop)
{
    // Direct feed between non-adjacent PEs: length is right (0 hops, one
    // cycle apart), but FU(0,0) has no link into PE 5's read network.
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{0}, AbsTime{0});
    m.placeNode(1, PeId{5}, AbsTime{1});
    m.setRoute(0, {});
    VerifyReport r = check(m, false);
    ASSERT_TRUE(r.has(ViolationKind::RouteBadLastHop)) << r.toString();
    EXPECT_FALSE(r.has(ViolationKind::RouteBrokenChain)) << r.toString();
}

TEST_F(VerifyTest, CatchesPhantomOccupancy)
{
    Mapping m = goodMapping();
    // A stale instance a buggy rollback forgot to release.
    Access::addPhantomInstance(m, mrrg->fuId(PeId{9}, AbsTime{0}),
                               m.instanceKey(0, AbsTime{0}));
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::OccupancyMismatch)) << r.toString();
}

TEST_F(VerifyTest, CatchesOveruseDrift)
{
    Mapping m = goodMapping();
    ++Access::overuse(m);
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::OveruseMismatch)) << r.toString();
    EXPECT_NE(r.toString().find("cached overuse 1"), std::string::npos);
}

TEST_F(VerifyTest, CatchesPlacedCountDrift)
{
    Mapping m = goodMapping();
    --Access::placedCount(m);
    EXPECT_TRUE(check(m).has(ViolationKind::AccumulatorMismatch));
}

TEST_F(VerifyTest, CatchesRouteResourceCountDrift)
{
    Mapping m = goodMapping();
    ++Access::routeResourceCount(m);
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::AccumulatorMismatch)) << r.toString();
    // This drift corrupts nothing else: the verifier must not cascade.
    EXPECT_EQ(r.violations.size(), 1u) << r.toString();
}

TEST_F(VerifyTest, CatchesInstanceConflictOnlyWhenComplete)
{
    // Two ops legally oversubscribe one FU mid-search (II folding: times
    // 0 and 2 share layer 0). Structural checks pass -- the caches agree
    // with the derived table -- but the mapping must never be *accepted*.
    Mapping m(graph, mrrg);
    m.placeNode(0, PeId{3}, AbsTime{0});
    m.placeNode(1, PeId{3}, AbsTime{2});
    EXPECT_TRUE(check(m, false).ok());
    VerifyReport r = check(m);
    ASSERT_TRUE(r.has(ViolationKind::InstanceConflict)) << r.toString();
    EXPECT_NE(r.toString().find("2 distinct instances"),
              std::string::npos);
}

TEST_F(VerifyTest, CatchesUnroutedEdge)
{
    Mapping m = goodMapping();
    m.clearRoute(1);
    EXPECT_TRUE(check(m, false).ok());
    EXPECT_TRUE(check(m).has(ViolationKind::EdgeUnrouted));
}

TEST_F(VerifyTest, CheckOrDiePanicsOnCorruption)
{
    Mapping m = goodMapping();
    ++Access::overuse(m);
    EXPECT_DEATH(checkOrDie(m, {}, "test"), "overuse-mismatch");
}

TEST_F(VerifyTest, RejectsForeignDfgOrMrrg)
{
    Mapping m = goodMapping();
    auto other = std::make_shared<const arch::Mrrg>(*accel, 3);
    EXPECT_DEATH(verifyMapping(graph, *other, m, {}), "different");
}

TEST(VerifyNames, KindNamesAreStable)
{
    EXPECT_STREQ(violationKindName(ViolationKind::RouteBrokenChain),
                 "route-broken-chain");
    EXPECT_STREQ(violationKindName(ViolationKind::InstanceConflict),
                 "instance-conflict");
}

// --- Every mapper's accepted output must pass the full verifier.

TEST(VerifyMappers, SaMapperOutputVerifiesClean)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    SaMapper mapper;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.verified);
    EXPECT_GE(r.verifySeconds, 0.0);
    EXPECT_TRUE(verifyMapping(w.dfg, r.mapping->mrrg(), *r.mapping).ok());
}

TEST(VerifyMappers, LisaMapperOutputVerifiesClean)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    dfg::Analysis an(w.dfg);
    core::LisaMapper mapper(core::initialLabels(w.dfg, an));
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(verifyMapping(w.dfg, r.mapping->mrrg(), *r.mapping).ok());
}

TEST(VerifyMappers, ExactMapperOutputVerifiesClean)
{
    dfg::DfgBuilder b("tiny");
    auto x = b.load("x");
    auto y = b.load("y");
    b.op(OpCode::Add, {x, y});
    auto graph = b.build();
    arch::CgraArch c(arch::baselineCgra(4, 4));
    ExactMapper mapper;
    SearchOptions opts;
    opts.perIiBudget = 5.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(mapper, graph, ctx, opts);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(verifyMapping(graph, r.mapping->mrrg(), *r.mapping).ok());
}

// --- Serialization round-trip feeding the lisa-verify CLI.

TEST(VerifyIo, RoundTripPreservesMappingAndVerifiesClean)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    SaMapper mapper;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);

    std::string text = mappingToText(*r.mapping);
    std::string error;
    auto loaded = mappingFromText(text, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->mrrg->ii(), r.mapping->mrrg().ii());
    for (dfg::NodeId v = 0;
         v < static_cast<dfg::NodeId>(w.dfg.numNodes()); ++v) {
        EXPECT_EQ(loaded->mapping->placement(v).pe,
                  r.mapping->placement(v).pe);
        EXPECT_EQ(loaded->mapping->placement(v).time,
                  r.mapping->placement(v).time);
    }
    EXPECT_TRUE(verifyMapping(*loaded->dfg, *loaded->mrrg,
                              *loaded->mapping).ok());
}

TEST(VerifyIo, CorruptedTextSurvivesLoadAndFailsVerification)
{
    arch::CgraArch c(arch::baselineCgra(4, 4));
    auto w = workloads::workloadByName("atax");
    SaMapper mapper;
    SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext ctx(c);
    auto r = searchMinIi(mapper, w.dfg, ctx, opts);
    ASSERT_TRUE(r.success);

    // Retime node 0 to an out-of-window slot: the loader replays it (it
    // is in range), the verifier rejects the schedule.
    std::string text = mappingToText(*r.mapping);
    std::istringstream is(text);
    std::ostringstream os;
    std::string line;
    bool edited = false;
    while (std::getline(is, line)) {
        if (!edited && line.rfind("place 0 ", 0) == 0) {
            const size_t last = line.find_last_of(' ');
            line = line.substr(0, last) + " 9";
            edited = true;
        }
        os << line << "\n";
    }
    ASSERT_TRUE(edited);

    std::string error;
    auto loaded = mappingFromText(os.str(), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_FALSE(verifyMapping(*loaded->dfg, *loaded->mrrg,
                               *loaded->mapping).ok());
}

// --- Accelerator spec bounds: specs come from sockets and cache files.

TEST(VerifyIo, AccelSpecAcceptsTheSizeBounds)
{
    auto cgra = accelFromSpec("accel cgra 32 32 16 all 64");
    ASSERT_NE(cgra, nullptr);
    EXPECT_EQ(cgra->numPes(), 32 * 32);
    EXPECT_EQ(cgra->maxIi(), 64);
    EXPECT_NE(accelFromSpec("accel cgra 1 1 0 left 1"), nullptr);
    EXPECT_NE(accelFromSpec("accel systolic 32 32"), nullptr);
    EXPECT_NE(accelFromSpec("accel systolic 1 3"), nullptr);
}

TEST(VerifyIo, AccelSpecOfInTreeFabricsParsesBackToItself)
{
    // lisa-serve keys its fabric registry by accelSpecOf() and looks a
    // request's spec line up before parsing it. That is only sound when a
    // canonical line parses back to the same line and the same fabric.
    std::vector<std::unique_ptr<arch::Accelerator>> fabrics;
    for (const arch::CgraConfig &cfg :
         {arch::baselineCgra(4, 4), arch::baselineCgra(3, 3),
          arch::lessRoutingCgra(), arch::lessMemoryCgra(),
          arch::baselineCgra(8, 8)})
        fabrics.push_back(std::make_unique<arch::CgraArch>(cfg));
    fabrics.push_back(std::make_unique<arch::SystolicArch>(5, 5));
    fabrics.push_back(std::make_unique<arch::SystolicArch>(4, 6));
    for (const auto &accel : fabrics) {
        const std::string spec = accelSpecOf(*accel);
        ASSERT_FALSE(spec.empty()) << accel->name();
        const auto parsed = accelFromSpec(spec);
        ASSERT_NE(parsed, nullptr) << spec;
        EXPECT_EQ(accelSpecOf(*parsed), spec);
        EXPECT_EQ(arch::ArchContext(*parsed).fingerprint(),
                  arch::ArchContext(*accel).fingerprint())
            << spec;
    }
}

TEST(VerifyIo, AccelSpecRejectsFabricsBeyondTheBounds)
{
    const char *oversized[] = {
        "accel cgra 33 4 4 all 24",
        "accel cgra 4 33 4 all 24",
        "accel cgra 4 4 17 all 24",
        "accel cgra 4 4 4 all 65",
        "accel cgra 200000 200000 4 all 24",
        "accel cgra 2147483647 2147483647 4 all 24",
        "accel cgra 4 4 2147483647 all 24",
        "accel cgra 4 4 4 all 2147483647",
        "accel systolic 33 5",
        "accel systolic 5 33",
        "accel systolic 5 2",
        "accel systolic 2147483647 2147483647",
    };
    for (const char *spec : oversized) {
        std::string error;
        EXPECT_TRUE(accelFromSpec(spec, &error) == nullptr) << spec;
        EXPECT_NE(error.find("malformed"), std::string::npos) << spec;
    }
}

TEST(VerifyIo, MappingTextWithOversizedSpecIsRejected)
{
    const std::string text = "lisa-mapping v1\n"
                             "accel cgra 4096 4096 4 all 24\n"
                             "ii 1\n"
                             "dfg-begin\n"
                             "dfg tiny\n"
                             "node 0 load\n"
                             "dfg-end\n"
                             "end\n";
    std::string error;
    EXPECT_FALSE(mappingFromText(text, &error).has_value());
    EXPECT_NE(error.find("malformed cgra spec"), std::string::npos) << error;
}

TEST(VerifyIo, RouteHopCountBeyondItsHopsIsRejected)
{
    // The hop count is file-shaped: it must not size an allocation
    // before the hops it promises have been read.
    for (const char *hops : {"3", "1000000000000", "4611686018427387903"}) {
        const std::string text = std::string("lisa-mapping v1\n"
                                             "accel cgra 4 4 4 all 24\n"
                                             "ii 2\n"
                                             "dfg-begin\n"
                                             "dfg pair\n"
                                             "node 0 load\n"
                                             "node 1 store\n"
                                             "edge 0 1\n"
                                             "dfg-end\n"
                                             "place 0 0 0\n"
                                             "place 1 1 1\n"
                                             "route 0 ") +
                                 hops + " 17\nend\n";
        std::string error;
        EXPECT_FALSE(mappingFromText(text, &error).has_value()) << hops;
        EXPECT_NE(error.find("missing hop"), std::string::npos) << error;
    }
}

} // namespace
