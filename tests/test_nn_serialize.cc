/** @file Tests for module parameter save/load. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nn/module.hh"
#include "nn/serialize.hh"

namespace {

using namespace lisa::nn;
using lisa::Rng;

TEST(NnSerialize, RoundTripExactValues)
{
    Rng rng(1);
    Mlp a(3, 3, 1, rng, "m");
    std::ostringstream os;
    saveModule(a, "test", os);

    Rng rng2(99); // different init
    Mlp b(3, 3, 1, rng2, "m");
    std::istringstream is(os.str());
    std::string error;
    ASSERT_TRUE(loadModule(b, is, &error)) << error;

    for (size_t i = 0; i < a.parameters().size(); ++i) {
        const Tensor &ta = a.parameters()[i].second;
        const Tensor &tb = b.parameters()[i].second;
        for (int r = 0; r < ta.rows(); ++r)
            for (int c = 0; c < ta.cols(); ++c)
                EXPECT_DOUBLE_EQ(ta.at(r, c), tb.at(r, c));
    }
}

TEST(NnSerialize, RejectsMissingHeader)
{
    Rng rng(1);
    Mlp m(2, 2, 1, rng, "m");
    std::istringstream is("garbage");
    std::string error;
    EXPECT_FALSE(loadModule(m, is, &error));
    EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(NnSerialize, RejectsMissingParameter)
{
    Rng rng(1);
    Mlp m(2, 2, 1, rng, "m");
    std::istringstream is("lisa-model test\n");
    std::string error;
    EXPECT_FALSE(loadModule(m, is, &error));
    EXPECT_NE(error.find("missing parameter"), std::string::npos);
}

TEST(NnSerialize, RejectsShapeMismatch)
{
    Rng rng(1);
    Linear small(2, 1, rng, "l");
    std::ostringstream os;
    saveModule(small, "t", os);

    Linear big(3, 1, rng, "l");
    std::istringstream is(os.str());
    std::string error;
    EXPECT_FALSE(loadModule(big, is, &error));
    EXPECT_NE(error.find("shape"), std::string::npos);
}

TEST(NnSerialize, FileRoundTrip)
{
    Rng rng(2);
    Linear a(2, 2, rng, "l");
    const std::string path = "/tmp/lisa_test_model.txt";
    ASSERT_TRUE(saveModuleFile(a, "file-test", path));
    Rng rng2(3);
    Linear b(2, 2, rng2, "l");
    std::string error;
    ASSERT_TRUE(loadModuleFile(b, path, &error)) << error;
    EXPECT_DOUBLE_EQ(a.parameters()[0].second.at(0, 0),
                     b.parameters()[0].second.at(0, 0));
    std::remove(path.c_str());
}

TEST(NnSerialize, MissingFileFails)
{
    Rng rng(1);
    Linear m(2, 2, rng, "l");
    std::string error;
    EXPECT_FALSE(loadModuleFile(m, "/nonexistent/path.model", &error));
    EXPECT_FALSE(error.empty());
}

/** Saved text of a 2x3 Linear whose weights are @p values. */
std::string
savedWith(const std::vector<double> &values)
{
    Rng rng(4);
    Linear l(2, 3, rng, "l");
    Tensor w = l.parameters()[0].second;
    for (size_t i = 0; i < values.size(); ++i)
        w.raw()->data[i] = values[i];
    std::ostringstream os;
    saveModule(l, "edge", os);
    return os.str();
}

TEST(NnSerialize, RoundTripsExtremeValuesBitExactly)
{
    const std::vector<double> values = {
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -0.0,
        0.1,
        1.0 / 3.0};
    const std::string text = savedWith(values);
    Rng rng(5);
    Linear l(2, 3, rng, "l");
    std::string error;
    ASSERT_TRUE(loadModule(l, text, &error)) << error;
    const auto &got = l.parameters()[0].second.raw()->data;
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(std::memcmp(&got[i], &values[i], sizeof(double)), 0)
            << "value " << i;
}

TEST(NnSerialize, RoundTripsRandomBitPatternsBitExactly)
{
    // Finite doubles drawn from random bit patterns: every exponent,
    // subnormals included, written by saveModule and read back.
    Rng rng(10);
    Linear a(40, 25, rng, "l");
    auto &data = a.parameters()[0].second.raw()->data;
    for (double &v : data) {
        do {
            const uint64_t bits = rng.raw()();
            std::memcpy(&v, &bits, sizeof(v));
        } while (!std::isfinite(v));
    }
    std::ostringstream os;
    saveModule(a, "bits", os);
    Linear b(40, 25, rng, "l");
    std::string error;
    ASSERT_TRUE(loadModule(b, os.str(), &error)) << error;
    const auto &got = b.parameters()[0].second.raw()->data;
    ASSERT_EQ(got.size(), data.size());
    EXPECT_EQ(std::memcmp(got.data(), data.data(),
                          data.size() * sizeof(double)),
              0);
}

TEST(NnSerialize, RejectsNonFiniteOutOfRangeAndNonNumericValues)
{
    const std::string good = savedWith({1, 2, 3, 4, 5, 6});
    const size_t at = good.find("\n", good.find("param l.w ")) + 1;
    const size_t end = good.find_first_of(" \n", at);
    for (const char *bad : {"nan", "inf", "-inf", "infinity", "1e999",
                            "-1e999", "1e-999", "abc", "1.5x", "0x10",
                            "--1", ""}) {
        std::string text = good;
        text.replace(at, end - at, bad);
        Rng rng(6);
        Linear l(2, 3, rng, "l");
        std::string error;
        EXPECT_FALSE(loadModule(l, text, &error)) << "token '" << bad << "'";
    }
}

TEST(NnSerialize, RejectsFileCutAtAnyByte)
{
    Rng rng(7);
    Mlp a(3, 4, 1, rng, "m");
    std::ostringstream os;
    saveModule(a, "cut", os);
    const std::string text = os.str();
    Rng rng2(8);
    Mlp b(3, 4, 1, rng2, "m");
    for (size_t n = 0; n < text.size(); ++n) {
        EXPECT_FALSE(loadModule(b, std::string_view(text).substr(0, n)))
            << "cut at byte " << n << " of " << text.size();
    }
    std::string error;
    EXPECT_TRUE(loadModule(b, text, &error)) << error;
}

TEST(NnSerialize, RejectsImpossibleValueCount)
{
    Rng rng(9);
    Linear l(2, 2, rng, "l");
    std::string error;
    EXPECT_FALSE(loadModule(
        l, "lisa-model x\nparam l.w 2000000000 2000000000\n1\n",
        &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

} // namespace
