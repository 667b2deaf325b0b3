/** @file Tests for the worker pool and the splittable RNG that together
 *  make the parallel mapper stack deterministic per (seed, threads). */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "support/random.hh"
#include "support/thread_pool.hh"

namespace {

using namespace lisa;

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    constexpr size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroWorkersRunsInlineSerially)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    std::vector<size_t> order;
    pool.parallelFor(8, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i); // strictly in order, caller thread only
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(4, [&](size_t) {
        pool.parallelFor(4, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, GlobalPoolTracksConfiguredThreads)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreads(), 3);
    // T-way parallelism = T-1 workers plus the participating caller.
    EXPECT_EQ(ThreadPool::global().size(), 2u);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::global().size(), 0u);
}

TEST(RngSplit, SameStreamIdGivesSameStream)
{
    Rng a(42), b(42);
    Rng s1 = a.split(5), s2 = b.split(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(s1.raw()(), s2.raw()());
}

TEST(RngSplit, IndependentOfDrawsConsumed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        (void)b.uniform(); // b has consumed entropy, a has not
    Rng s1 = a.split(3), s2 = b.split(3);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(s1.raw()(), s2.raw()());
}

TEST(RngSplit, DistinctStreamsAndSeedsDiffer)
{
    Rng a(42);
    EXPECT_NE(a.split(0).raw()(), a.split(1).raw()());
    Rng c(43);
    EXPECT_NE(a.split(0).raw()(), c.split(0).raw()());
    // Splitting tracks reseeding.
    Rng d(1);
    d.seed(42);
    Rng s1 = a.split(7), s2 = d.split(7);
    EXPECT_EQ(s1.raw()(), s2.raw()());
}

TEST(RngSplit, SplitSeedMatchesPinnedValues)
{
    // splitmix64 seeds pinned from the original Rng::split and portfolio
    // member-seed code: seeds, and so every seeded result, stay
    // bit-identical.
    EXPECT_EQ(Rng::splitSeed(1, 0), 0x910a2dec89025cc1ULL);
    EXPECT_EQ(Rng::splitSeed(1, 1), 0xbeeb8da1658eec67ULL);
    EXPECT_EQ(Rng::splitSeed(11, 2), 0xa356be306e9b126dULL);
    EXPECT_EQ(Rng::splitSeed(0xdeadbeefULL, 3), 0x7466ce737be16790ULL);
    // split() seeds its stream with splitSeed.
    Rng a(11);
    Rng s = a.split(2);
    Rng pinned(0xa356be306e9b126dULL);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(s.raw()(), pinned.raw()());
}

} // namespace
