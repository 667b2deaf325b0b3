/**
 * @file
 * Deterministic random-number helper used across the library.
 *
 * All stochastic components (simulated annealing, the synthetic DFG
 * generator, weight initialization) draw from an explicitly seeded Rng so
 * experiments are reproducible run-to-run.
 */

#ifndef LISA_SUPPORT_RANDOM_HH
#define LISA_SUPPORT_RANDOM_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace lisa {

/**
 * A thin wrapper around std::mt19937_64 with the sampling helpers the
 * mapping algorithms need.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 1) : engine(seed), seedValue(seed) {}

    /** Reseed the generator. */
    void
    seed(uint64_t s)
    {
        engine.seed(s);
        seedValue = s;
    }

    /**
     * Seed of stream @p stream of base seed @p base (splitmix64 mixing):
     * independent of its sibling streams and of the base seed's own
     * stream. The same pair always yields the same seed.
     */
    static uint64_t
    splitSeed(uint64_t base, uint64_t stream)
    {
        uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /**
     * Derive an independent deterministic stream from this generator's
     * seed and @p stream_id (splitSeed). Splitting depends only on the
     * seed, never on how many values have been drawn, so concurrent
     * workers can split up-front and draw without synchronizing.
     */
    Rng
    split(uint64_t stream_id) const
    {
        return Rng(splitSeed(seedValue, stream_id));
    }

    /** Uniform integer in [lo, hi] (inclusive). */
    int
    uniformInt(int lo, int hi)
    {
        std::uniform_int_distribution<int> d(lo, hi);
        return d(engine);
    }

    /** Uniform size_t index in [0, n). Requires n > 0. */
    size_t
    index(size_t n)
    {
        std::uniform_int_distribution<size_t> d(0, n - 1);
        return d(engine);
    }

    /** Uniform real in [0, 1). */
    double
    uniform()
    {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        return d(engine);
    }

    /** Normal sample with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        std::normal_distribution<double> d(mean, stddev);
        return d(engine);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[index(v.size())];
    }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine);
    }

    /** Access the underlying engine (for std distributions). */
    std::mt19937_64 &raw() { return engine; }

  private:
    std::mt19937_64 engine;
    /** Seed this generator (or its parent at split time) started from. */
    uint64_t seedValue;
};

} // namespace lisa

#endif // LISA_SUPPORT_RANDOM_HH
