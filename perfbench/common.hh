/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/run.py drives the
 * lisa_perfbench binary built from this directory): the metric sink and
 * its JSON report, timing and percentile helpers, the seeded request
 * generators, the client-side correctness checks and a blocking NDJSON
 * socket client for the serve workloads.
 */

#ifndef LISA_PERFBENCH_COMMON_HH
#define LISA_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dfg/dfg.hh"
#include "support/random.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line settings of one benchmark run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory (relative to the working directory) for the daemon
     *  socket and the cache persistence file. */
    std::string workDir = ".";
    /** main() entry: the first set-up is timed from here. */
    Clock::time_point processStart;
};

/** Named metrics plus per-row detail, printed as one JSON object. */
class Report
{
  public:
    void metric(const std::string &name, double value, const std::string &unit);
    /** One detail row: a JSON object literal built by the caller. */
    void row(std::string json) { rows.push_back(std::move(json)); }
    void note(const std::string &key, const std::string &json_value);

    /** Count @p n operations, @p failed_ops of which failed. */
    void
    count(long n, long failed_ops)
    {
        attempted += n;
        failed += failed_ops;
    }

    /** Record a failed correctness check (printed to stderr). */
    void fail(const std::string &what);

    long attempted = 0;
    long failed = 0;

    /** The whole report as one JSON line. */
    std::string json() const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> notes;
    std::vector<std::string> rows;
    std::vector<std::string> failures;
};

/** Nearest-rank percentile of @p values (sorted in place); 0 if empty. */
double percentile(std::vector<double> &values, double p);

/** Median (nearest-rank); 0 if empty. */
double median(std::vector<double> values);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Shortest round-trip JSON number for @p v. */
std::string num(double v);

/**
 * A renamed and renumbered copy of @p g: node ids permuted, edges listed
 * in shuffled order, graph and node names replaced. Isomorphic to @p g,
 * so the daemon's canonical cache key is unchanged.
 */
lisa::dfg::Dfg renumberedVariant(const lisa::dfg::Dfg &g, lisa::Rng &rng,
                                 const std::string &name);

/**
 * Fresh synthetic kernel from dfg::generateRandomDfg, screened on
 * structure only: at most 7 nodes, 8 edges and 4 memory operations, no
 * recurrence. Such kernels nearly always map at their MII of 1 within
 * milliseconds at the seed commit, so a miss is one short search.
 */
lisa::dfg::Dfg freshKernel(lisa::Rng &rng, const std::string &name);

/** A "map" request line for @p dfg_text on @p accel_spec. */
std::string mapRequestLine(const std::string &dfg_text,
                           const std::string &accel_spec,
                           double per_ii_budget, double total_budget);

/**
 * Client-side check of a served mapping: parse @p mapping_text, require
 * that its embedded DFG is @p request (same ops and edges, same
 * numbering), and run verify::verifyMapping on it. With @p simulate, also
 * compare sim::verifyMapping against the reference interpreter.
 * @return "" when the mapping is valid, else the reason.
 */
std::string checkServedMapping(const std::string &mapping_text,
                               const lisa::dfg::Dfg &request, bool simulate);

/** Blocking NDJSON client on a Unix-domain socket. */
class Client
{
  public:
    /** Connects to @p socket_path; throws std::runtime_error on failure. */
    explicit Client(const std::string &socket_path);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line, block for its response line. Throws
     *  std::runtime_error when the connection breaks. */
    std::string roundTrip(const std::string &line);

  private:
    int fd = -1;
    std::string pending;
};

/** Run the named workload; fills @p report. @return false on an unknown
 *  workload or a set-up error (the run then prints no result). */
bool runMapWorkload(const RunConfig &cfg, Report &report);
bool runServeWorkload(const RunConfig &cfg, Report &report);

} // namespace perfbench

#endif // LISA_PERFBENCH_COMMON_HH
