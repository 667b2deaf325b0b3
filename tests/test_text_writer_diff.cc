/**
 * @file
 * Byte-identity tests of the std::string text writers and the
 * run-at-a-time JSON routines against the std::ostream and
 * char-at-a-time references in tests/writer_reference.hh and
 * tests/json_reference.hh:
 *
 *  - dfg::toText on random DFGs, names full of bytes that need %XX;
 *  - verify::accelSpecOf on CGRA and systolic fabrics;
 *  - verify::mappingToText on SA mappings of in-tree kernels (whole and
 *    partial, plain and escaped names);
 *  - serve::encodeMapResponse on ok and error outcomes, doubles from 0
 *    and 1e-7 up to 1e9;
 *  - jsonEscape on random byte strings covering all 256 values;
 *  - jsonParse on Rng-mutated request lines: same verdict, same error
 *    text, same values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/cgra.hh"
#include "arch/systolic.hh"
#include "dfg/analysis.hh"
#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "json_reference.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "serve/proto.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "verify/mapping_io.hh"
#include "workloads/registry.hh"
#include "writer_reference.hh"

namespace {

using namespace lisa;

/** 0..@p max_len bytes, each any of the 256 values. */
std::string
randomBytes(Rng &rng, int max_len)
{
    std::string s(static_cast<size_t>(rng.uniformInt(0, max_len)), '\0');
    for (char &c : s)
        c = static_cast<char>(rng.uniformInt(0, 255));
    return s;
}

/** @p g with its graph name and about half its node names replaced by
 *  random bytes (so most need %XX escapes); same ops and edges. */
dfg::Dfg
withRandomNames(const dfg::Dfg &g, Rng &rng)
{
    dfg::Dfg out(randomBytes(rng, 12));
    for (const dfg::Node &n : g.nodes())
        out.addNode(n.op, rng.chance(0.5) ? randomBytes(rng, 10) : n.name);
    for (const dfg::Edge &e : g.edges())
        out.addEdge(e.src, e.dst, e.iterDistance);
    return out;
}

TEST(TextWriterDiff, DfgTextMatchesReference)
{
    dfg::GeneratorConfig cfg;
    cfg.maxNodes = 40;
    Rng rng(28);
    for (int i = 0; i < 300; ++i) {
        const dfg::Dfg g = dfg::generateRandomDfg(cfg, rng);
        EXPECT_EQ(dfg::toText(g), dfg::toTextReference(g));
        const dfg::Dfg named = withRandomNames(g, rng);
        EXPECT_EQ(dfg::toText(named), dfg::toTextReference(named));
    }
    const dfg::Dfg empty;
    EXPECT_EQ(dfg::toText(empty), dfg::toTextReference(empty));
}

TEST(TextWriterDiff, AccelSpecMatchesReference)
{
    for (int rows : {2, 4, 17})
        for (int cols : {3, 5, 32})
            for (int regs : {0, 1, 16})
                for (auto mem :
                     {arch::MemPolicy::AllPes, arch::MemPolicy::LeftColumn}) {
                    arch::CgraConfig cfg = arch::baselineCgra(rows, cols);
                    cfg.registersPerPe = regs;
                    cfg.memPolicy = mem;
                    cfg.configDepth = rows + cols;
                    const arch::CgraArch cgra(cfg);
                    EXPECT_EQ(verify::accelSpecOf(cgra),
                              verify::accelSpecOfReference(cgra));
                }
    const arch::SystolicArch sys(5, 12);
    EXPECT_EQ(verify::accelSpecOf(sys), verify::accelSpecOfReference(sys));
}

TEST(TextWriterDiff, MappingTextMatchesReferenceOnSaMappings)
{
    const arch::CgraArch cgra(arch::baselineCgra(4, 4));
    Rng rng(2028);
    std::vector<workloads::Workload> kernels = workloads::polybenchSuite();
    for (const workloads::Workload &w : workloads::streamingSuite())
        kernels.push_back(w);
    int mapped = 0;
    for (size_t k = 0; k < kernels.size(); ++k) {
        const workloads::Workload &w = kernels[k];
        // Odd kernels carry random names, so the embedded DFG text has
        // %XX escapes.
        const dfg::Dfg g = k % 2 ? withRandomNames(w.dfg, rng) : w.dfg;
        const dfg::Analysis an(g);
        // Four above the MII, where SA maps every kernel in well under
        // a second; the budget leaves room for sanitizer builds.
        const int ii = std::max(map::resourceMii(g, cgra), an.recMii()) + 4;
        map::SaMapper sa;
        const auto m = sa.tryMap(map::MapContext{
            g, an, std::make_shared<const arch::Mrrg>(cgra, ii), 10.0, rng});
        if (!m)
            continue;
        ++mapped;
        EXPECT_EQ(verify::mappingToText(*m),
                  verify::mappingToTextReference(*m))
            << w.name;

        // A partial copy: every other node placed, the edges between
        // placed nodes routed as the SA mapping routes them.
        map::Mapping part(g, m->mrrgPtr());
        for (dfg::NodeId v = 0; v < static_cast<dfg::NodeId>(g.numNodes());
             v += 2)
            part.placeNode(v, m->placement(v).pe, m->placement(v).time);
        for (const dfg::Edge &e : g.edges())
            if (part.isPlaced(e.src) && part.isPlaced(e.dst))
                part.assignRoute(e.id, m->route(e.id));
        EXPECT_EQ(verify::mappingToText(part),
                  verify::mappingToTextReference(part))
            << w.name << " (partial)";
    }
    // Most kernels map, so the comparison is not vacuous.
    EXPECT_GE(mapped, 12);
}

/** Doubles from 0 and 1e-7 up to 1e9: round values, every power of ten
 *  times random mantissas, values that round at the sixth digit. */
std::vector<double>
responseDoubles(Rng &rng)
{
    std::vector<double> out = {0.0,      1e-7,      1e-5,   0.0001,
                               0.5,      1.0,       0.1,    123456.0,
                               999999.5, 1234567.0, 1e6,    1e9,
                               2.5e-5,   0.1499995, 3.14159265};
    for (int exp = -7; exp <= 9; ++exp)
        for (int i = 0; i < 40; ++i)
            out.push_back(rng.uniform() * std::pow(10.0, exp));
    return out;
}

TEST(TextWriterDiff, MapResponseMatchesReference)
{
    Rng rng(29);
    const std::vector<double> doubles = responseDoubles(rng);
    const std::string mapping_text = "lisa-mapping v1\naccel cgra 4 4 1 "
                                     "left 4\nii 2\ndfg-begin\ndfg k\n"
                                     "node 0 load A%23\ndfg-end\nend\n";
    for (size_t i = 0; i < doubles.size(); ++i) {
        serve::MapOutcome ok;
        ok.ok = true;
        ok.cacheHit = i % 2;
        ok.coalesced = i % 3 == 0;
        ok.ii = static_cast<int>(i % 7) + 1;
        ok.mii = static_cast<int>(i % 5);
        ok.verified = i % 4 != 0;
        ok.budgetClass = i % 2 ? "fast" : "custom:\"1\"";
        ok.winner = i % 2 ? "SA" : randomBytes(rng, 6);
        ok.attempts = static_cast<long>(i) * 1000003L;
        ok.searchSeconds = doubles[i];
        ok.mappingText = i % 5 ? mapping_text : randomBytes(rng, 200);
        const double service_ms = doubles[doubles.size() - 1 - i];
        EXPECT_EQ(serve::encodeMapResponse(ok, service_ms),
                  serve::encodeMapResponseReference(ok, service_ms));

        serve::MapOutcome bad;
        bad.error = i % 2 ? "dfg: line 3: unknown op 'x\"'"
                          : randomBytes(rng, 40);
        EXPECT_EQ(serve::encodeMapResponse(bad, doubles[i]),
                  serve::encodeMapResponseReference(bad, doubles[i]));
    }
}

TEST(TextWriterDiff, JsonEscapeMatchesReferenceOnAllBytes)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    EXPECT_EQ(jsonEscape(all), jsonEscapeReference(all));
    EXPECT_EQ(jsonEscape(""), jsonEscapeReference(""));
    Rng rng(30);
    for (int i = 0; i < 2000; ++i) {
        const std::string s = randomBytes(rng, 64);
        EXPECT_EQ(jsonEscape(s), jsonEscapeReference(s));
        std::string appended = "prefix";
        appendJsonEscaped(appended, s);
        EXPECT_EQ(appended, "prefix" + jsonEscapeReference(s));
    }
}

/** Deep equality of two parsed documents. */
bool
sameValue(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean ||
        a.string != b.string || a.array.size() != b.array.size() ||
        a.object.size() != b.object.size())
        return false;
    if (!(a.number == b.number ||
          (std::isnan(a.number) && std::isnan(b.number))))
        return false;
    for (size_t i = 0; i < a.array.size(); ++i)
        if (!sameValue(a.array[i], b.array[i]))
            return false;
    auto ib = b.object.begin();
    for (const auto &[key, value] : a.object) {
        if (key != ib->first || !sameValue(value, ib->second))
            return false;
        ++ib;
    }
    return true;
}

/** One mutation: a byte set to one of the JSON-significant bytes or to
 *  any byte, a truncation, or an inserted or deleted run. */
void
mutate(std::string &text, Rng &rng)
{
    static const std::string kBytes = "\"\\/{}[],:0123456789-+.eEu"
                                      "bfnrt \t\r\nxa";
    if (text.empty()) {
        text += kBytes[rng.index(kBytes.size())];
        return;
    }
    const size_t at = rng.index(text.size());
    switch (rng.uniformInt(0, 4)) {
    case 0:
        text[at] = kBytes[rng.index(kBytes.size())];
        break;
    case 1:
        text[at] = static_cast<char>(rng.uniformInt(0, 255));
        break;
    case 2:
        text.resize(at);
        break;
    case 3:
        text.insert(at, text.substr(rng.index(text.size()),
                                    static_cast<size_t>(rng.uniformInt(1, 8))));
        break;
    default:
        text.erase(at, static_cast<size_t>(rng.uniformInt(1, 8)));
        break;
    }
}

TEST(TextWriterDiff, JsonParseMatchesReferenceOnMutatedRequests)
{
    std::vector<std::string> seeds;
    Rng rng(31);
    for (const workloads::Workload &w : workloads::polybenchSuite()) {
        std::string line = "{\"op\":\"map\",\"dfg\":\"";
        line += jsonEscape(dfg::toText(w.dfg));
        line += "\",\"accel\":\"accel cgra 4 4 1 left 4\","
                "\"perIiBudget\":0.5,\"totalBudget\":2e0,\"seed\":"
                + std::to_string(rng.index(1000)) + "}";
        seeds.push_back(line);
    }
    seeds.push_back("{\"op\":\"stats\"}");
    seeds.push_back("[true, false, null, -0.5e-3, \"\\u00e9\\ud83d\\ude00"
                    "\\/\\b\\f\\n\\r\\t\", {\"a\":{}}, []]");

    int accepted = 0, rejected = 0;
    for (int i = 0; i < 6000; ++i) {
        std::string text = seeds[rng.index(seeds.size())];
        const int rounds = rng.uniformInt(0, 4);
        for (int r = 0; r < rounds; ++r)
            mutate(text, rng);
        std::string error, ref_error;
        const auto got = jsonParse(text, &error);
        const auto want = jsonParseReference(text, &ref_error);
        ASSERT_EQ(got != nullptr, want != nullptr) << text;
        EXPECT_EQ(error, ref_error) << text;
        if (got) {
            ++accepted;
            EXPECT_TRUE(sameValue(*got, *want)) << text;
        } else {
            ++rejected;
        }
    }
    // The loop exercises both verdicts.
    EXPECT_GT(accepted, 500);
    EXPECT_GT(rejected, 500);
}

} // namespace
