/**
 * @file
 * Differential tests of the DFG text parser (dfg::fromText) against the
 * reference istream reader (tests/dfg_text_reference.hh): every in-tree
 * kernel, random kernels written with comment/whitespace/CRLF noise, and
 * an Rng-driven mutation loop (byte flips, truncations, duplicated and
 * dropped lines). Both readers must give the same verdict, the same
 * error string when both reject, and the same graph when both accept.
 *
 * The one designed difference — an integer field with trailing junk or a
 * non-integer iteration distance, which the reference reads as a prefix
 * or as 0 — is pinned by name in StrictIntegerFieldsArePinned; the
 * mutation loop checks that such texts are always rejected.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dfg/generator.hh"
#include "dfg/serialize.hh"
#include "dfg_text_reference.hh"
#include "support/random.hh"
#include "workloads/registry.hh"

namespace {

using namespace lisa;
using namespace lisa::dfg;

/** Every kernel the workloads registry ships. */
std::vector<Dfg>
inTreeKernels()
{
    std::vector<Dfg> out;
    for (const auto &suite :
         {workloads::polybenchSuite(), workloads::unrolledSuite(2),
          workloads::unrolledSuite(4), workloads::streamingSuite()})
        for (const workloads::Workload &w : suite)
            out.push_back(w.dfg);
    return out;
}

/** Split @p line on the C locale's blanks; the test's own tokenizer, so
 *  it shares nothing with either reader. */
std::vector<std::string>
fields(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line) {
        if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** Optional sign, then one or more decimal digits, nothing else. */
bool
isWholeInteger(const std::string &tok)
{
    size_t i = (!tok.empty() && (tok[0] == '+' || tok[0] == '-')) ? 1 : 0;
    if (i == tok.size())
        return false;
    for (; i < tok.size(); ++i)
        if (tok[i] < '0' || tok[i] > '9')
            return false;
    return true;
}

/** True when some node or edge record of @p text has an integer field
 *  that is not a whole integer token: the class of input on which the
 *  two readers are designed to differ. */
bool
hasNonIntegerField(const std::string &text)
{
    size_t begin = 0;
    while (begin <= text.size()) {
        size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(begin, end - begin);
        line = line.substr(0, line.find('#'));
        const std::vector<std::string> f = fields(line);
        if (!f.empty() && f[0] == "node" && f.size() >= 2 &&
            !isWholeInteger(f[1]))
            return true;
        if (!f.empty() && f[0] == "edge")
            for (size_t i = 1; i < f.size() && i <= 3; ++i)
                if (!isWholeInteger(f[i]))
                    return true;
        begin = end + 1;
    }
    return false;
}

/** How the two readers' verdicts on one text compare. */
struct Comparison
{
    bool accepted = false;  // the production parser accepted
    bool pinned = false;    // text is in the designed-difference class
};

/** Parse @p text with both readers and check they agree. */
Comparison
compareReaders(const std::string &text, const std::string &label)
{
    std::string error, ref_error;
    const auto parsed = fromText(text, &error);
    const auto ref = fromTextReference(text, &ref_error);
    Comparison c;
    c.accepted = parsed.has_value();
    c.pinned = hasNonIntegerField(text);
    if (c.pinned) {
        EXPECT_FALSE(parsed.has_value())
            << label << ": an integer field with junk must be rejected\n"
            << text;
        return c;
    }
    EXPECT_EQ(parsed.has_value(), ref.has_value())
        << label << ": verdicts differ (" << error << " | " << ref_error
        << ")\n"
        << text;
    if (parsed && ref) {
        EXPECT_EQ(toText(*parsed), toText(*ref)) << label << "\n" << text;
    } else if (!parsed && !ref) {
        EXPECT_EQ(error, ref_error) << label << "\n" << text;
    }
    return c;
}

/** One of the blank characters both readers separate fields with. */
std::string
blank(Rng &rng)
{
    static const std::vector<std::string> kBlanks = {" ", " ",  " ", "\t",
                                                     "  ", "\v", "\f"};
    std::string out = rng.pick(kBlanks);
    while (rng.chance(0.2))
        out += rng.pick(kBlanks);
    return out;
}

/** Write @p g in the text format with presentation noise: comments,
 *  blank lines, mixed separators, '+' signs, ignored trailing tokens,
 *  CRLF line ends. */
std::string
noisyText(const Dfg &g, Rng &rng)
{
    const bool crlf = rng.chance(0.5);
    std::string out;
    auto endLine = [&] {
        if (rng.chance(0.2))
            out += blank(rng) + "# note " + std::to_string(rng.index(100));
        if (rng.chance(0.1))
            out += blank(rng);
        out += crlf ? "\r\n" : "\n";
        if (rng.chance(0.1))
            out += rng.chance(0.5) ? "# comment line\n" : "\n";
    };
    if (rng.chance(0.3))
        out += "# preamble\n";
    if (rng.chance(0.2))
        out += blank(rng);
    out += "dfg" + blank(rng) + g.name();
    endLine();
    for (const Node &n : g.nodes()) {
        if (rng.chance(0.2))
            out += blank(rng);
        out += "node" + blank(rng) + std::to_string(n.id) + blank(rng) +
               opName(n.op);
        if (!n.name.empty()) {
            out += blank(rng) + n.name;
            if (rng.chance(0.1))
                out += blank(rng) + "ignored";
        }
        endLine();
    }
    for (const Edge &e : g.edges()) {
        out += "edge" + blank(rng) + std::to_string(e.src) + blank(rng) +
               std::to_string(e.dst);
        if (e.iterDistance != 0 || rng.chance(0.2)) {
            out += blank(rng) + (rng.chance(0.1) ? "+" : "") +
                   std::to_string(e.iterDistance);
            if (rng.chance(0.1))
                out += blank(rng) + "ignored";
        }
        endLine();
    }
    return out;
}

/** Apply one Rng-chosen corruption to @p text. */
void
mutate(std::string &text, Rng &rng)
{
    static const std::string kBytes = "0123456789 \t\r\n#-+.xeadgnoltsr";
    if (text.empty()) {
        text += kBytes[rng.index(kBytes.size())];
        return;
    }
    switch (rng.uniformInt(0, 4)) {
    case 0: // byte flip to an interesting byte
        text[rng.index(text.size())] = kBytes[rng.index(kBytes.size())];
        break;
    case 1: // byte flip to any byte
        text[rng.index(text.size())] =
            static_cast<char>(rng.uniformInt(0, 255));
        break;
    case 2: // truncation
        text.resize(rng.index(text.size()));
        break;
    default: { // duplicate or drop the line holding a random byte
        const size_t at = rng.index(text.size());
        const size_t prev =
            at == 0 ? std::string::npos : text.rfind('\n', at - 1);
        const size_t start = prev == std::string::npos ? 0 : prev + 1;
        size_t end = text.find('\n', at);
        end = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(start, end - start);
        if (rng.chance(0.5))
            text.insert(end, line.back() == '\n' ? line : line + "\n");
        else
            text.erase(start, end - start);
        break;
    }
    }
}

TEST(DfgTextDiff, InTreeKernelsAgree)
{
    const std::vector<Dfg> kernels = inTreeKernels();
    ASSERT_GE(kernels.size(), 12u);
    for (const Dfg &g : kernels) {
        const Comparison c = compareReaders(toText(g), g.name());
        EXPECT_TRUE(c.accepted) << g.name();
    }
}

TEST(DfgTextDiff, NoisyRandomTextsAgree)
{
    GeneratorConfig cfg;
    cfg.maxNodes = 40;
    Rng rng(25);
    for (int i = 0; i < 500; ++i) {
        const Dfg g = generateRandomDfg(cfg, rng);
        const std::string text = noisyText(g, rng);
        const Comparison c =
            compareReaders(text, "random " + std::to_string(i));
        ASSERT_TRUE(c.accepted) << text;
        EXPECT_EQ(toText(*fromText(text)), toText(g)) << text;
    }
}

TEST(DfgTextDiff, MutatedTextsAgreeOrHitThePinnedDifference)
{
    std::vector<std::string> seeds;
    for (const Dfg &g : inTreeKernels())
        seeds.push_back(toText(g));
    GeneratorConfig cfg;
    Rng rng(2500);
    for (int i = 0; i < 40; ++i)
        seeds.push_back(noisyText(generateRandomDfg(cfg, rng), rng));

    int accepted = 0, pinned = 0;
    constexpr int kCases = 4000;
    for (int i = 0; i < kCases; ++i) {
        std::string text = rng.pick(seeds);
        const int edits = rng.uniformInt(1, 3);
        for (int k = 0; k < edits; ++k)
            mutate(text, rng);
        const Comparison c =
            compareReaders(text, "mutation " + std::to_string(i));
        accepted += c.accepted ? 1 : 0;
        pinned += c.pinned ? 1 : 0;
    }
    // The mutations must yield accepted, rejected and pinned texts.
    EXPECT_GT(accepted, kCases / 20);
    EXPECT_LT(accepted, kCases - kCases / 20);
    EXPECT_GT(pinned, 0);
}

TEST(DfgTextDiff, StrictIntegerFieldsArePinned)
{
    const std::string head = "dfg t\nnode 0 load\nnode 1 store\n";
    struct Case
    {
        std::string text;
        bool referenceAccepts;
    };
    const std::vector<Case> cases = {
        // The reference reads id 0, then "add" as the op.
        {"dfg t\nnode 0add\n", true},
        // The reference reads id 3, then "x" as an unknown op.
        {"dfg t\nnode 3x add\n", false},
        // The reference reads dst 1, then fails to read "x" as 0.
        {head + "edge 0 1x\n", true},
        {head + "edge 0 1 x\n", true},
        {head + "edge 0 1 2.5\n", true},
        {head + "edge 0 1 +\n", true},
    };
    for (const Case &c : cases) {
        std::string error;
        EXPECT_FALSE(fromText(c.text, &error).has_value()) << c.text;
        EXPECT_NE(error.find("malformed"), std::string::npos)
            << c.text << " -> " << error;
        EXPECT_EQ(fromTextReference(c.text).has_value(), c.referenceAccepts)
            << c.text;
    }
    // A sign is part of a whole integer for both readers.
    EXPECT_TRUE(fromText(head + "edge +0 1 +0\n").has_value());
    EXPECT_TRUE(fromTextReference(head + "edge +0 1 +0\n").has_value());
    EXPECT_FALSE(fromText(head + "edge 0 1 +-1\n").has_value());
}

TEST(DfgTextDiff, StreamReaderMatchesStringReader)
{
    for (const Dfg &g : inTreeKernels()) {
        const std::string text = toText(g);
        std::istringstream is(text);
        const auto parsed = readText(is);
        ASSERT_TRUE(parsed.has_value()) << g.name();
        EXPECT_EQ(toText(*parsed), toText(*fromText(text)));
    }
}

} // namespace
