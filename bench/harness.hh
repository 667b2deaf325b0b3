/**
 * @file
 * Shared benchmark harness: runs the three mappers (ILP* exact stand-in,
 * vanilla SA, LISA) over a workload set on one accelerator and prints the
 * paper-style rows. LISA models are trained on demand and cached under
 * ./lisa_models so all bench binaries share the one-off training cost.
 *
 * Command-line flags (parse with initBench at the top of main):
 *  - --threads N        : concurrent seed streams per II attempt; also
 *                         sizes the process-wide worker pool used by
 *                         training-data generation. Seed-splitting keeps
 *                         a given (seed, threads) pair reproducible.
 *                         Default 1.
 *  - --fast             : quarter budgets and a smaller training set
 *                         (smoke-testing the harness)
 *  - --sa-runs N        : SA runs per combination (median reported;
 *                         default 1, the paper uses 3)
 *  - --metrics-out FILE : append per-kernel and per-suite mapper metrics
 *                         (MapperStats merged over all streams) to FILE
 *                         as one JSON object per line (JSONL)
 *  - --portfolio        : additionally race LISA / SA / ILP* per kernel
 *                         with a shared best-II incumbent
 *                         (PortfolioSearch) and report the portfolio row;
 *                         per-member attribution goes to the metrics
 *                         file as "portfolio_member" events.
 */

#ifndef LISA_BENCH_HARNESS_HH
#define LISA_BENCH_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.hh"
#include "core/framework.hh"
#include "mapping/ii_search.hh"
#include "workloads/registry.hh"

namespace lisabench {

using namespace lisa;

/** Budgets for one mapper-comparison sweep. */
struct CompareOptions
{
    double saPerIi = 1.0;
    double saTotal = 6.0;
    /** The exact mapper burns its budget at low IIs, like ILP. */
    double ilpPerIi = 2.0;
    double ilpTotal = 6.0;
    double lisaPerIi = 1.0;
    double lisaTotal = 6.0;
    uint64_t seed = 1;
};

/** Apply --fast scaling. */
CompareOptions scaled(CompareOptions options);

/**
 * Parse the common bench flags listed above and configure the global
 * thread pool. Call first thing in every figure binary's main().
 */
void initBench(int argc, char **argv);

/** Parallelism configured by initBench (default 1). */
int benchThreads();

/** True when --portfolio was passed to initBench. */
bool portfolioEnabled();

/** One kernel's outcome across the mappers. */
struct CompareResult
{
    std::string kernel;
    map::SearchResult ilp;
    map::SearchResult sa;
    map::SearchResult lisa;
    /** Racing-portfolio outcome (populated only under --portfolio). */
    map::PortfolioResult portfolio;
};

/**
 * Get the shared per-accelerator arch-artifact cache (MRRGs, distance
 * oracles). Every mapper the harness runs — ILP*, SA, LISA — draws from
 * this one context, so a suite derives each table once. Lives for the
 * process.
 */
arch::ArchContext &archContextFor(const arch::Accelerator &accel);

/**
 * Get (and prepare) the shared LISA framework for an accelerator. The
 * instance lives for the process; models are cached in ./lisa_models.
 * Its arch artifacts come from archContextFor(accel).
 */
core::LisaFramework &frameworkFor(const arch::Accelerator &accel);

/** Run SA (median of --sa-runs), ILP*, and LISA on every workload. */
std::vector<CompareResult>
compareMappers(const arch::Accelerator &accel,
               const std::vector<workloads::Workload> &suite,
               const CompareOptions &options);

/** Paper Fig 9 style: II per mapper (0 = could not map). */
void printIiTable(const std::string &title,
                  const std::vector<CompareResult> &results);

/** Paper Fig 11 style: compilation seconds per mapper. */
void printTimeTable(const std::string &title,
                    const std::vector<CompareResult> &results);

/** Paper Fig 9g style: check/cross per mapper. */
void printSuccessTable(const std::string &title,
                       const std::vector<CompareResult> &results);

/** Paper Fig 10 style: MOPS/W normalized to LISA. */
void printPowerTable(const std::string &title,
                     const std::vector<CompareResult> &results);

/**
 * Routing observability per kernel (counters merged over ILP*, SA and
 * LISA): route calls, failure rate, routability-filter rejects and the
 * router invocations those rejects saved.
 */
void printRoutingTable(const std::string &title,
                       const std::vector<CompareResult> &results);

/** Fig 9a style portfolio row: winner, II, race seconds per kernel. */
void printPortfolioTable(const std::string &title,
                         const std::vector<CompareResult> &results);

} // namespace lisabench

#endif // LISA_BENCH_HARNESS_HH
