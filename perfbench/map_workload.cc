/**
 * @file
 * Workload map-fig9a: fixed-II mapper jobs on the 12 PolyBench kernels,
 * 4x4 baseline CGRA, one thread.
 *
 * Each job is one Mapper::tryMap at a fixed II, seeded exactly as
 * map::searchMinIi seeds that II (Rng(1).split(ii)), under a cap far above
 * its time at the seed commit. At a fixed II the search's work is a pure
 * function of that seed, so the per-job work counts repeat exactly and
 * wall time moves only with code speed. The SA targets are the IIs SA
 * reaches at the seed commit; the ILP* jobs are the (kernel, II) pairs
 * whose verdict is known: the first II ILP* maps each kernel at, plus
 * four exhaustive refutations. The workload seed only permutes the job
 * order inside the SA block and inside the ILP* block.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "common.hh"
#include "dfg/analysis.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/routability_filter.hh"
#include "sim/simulator.hh"
#include "verify/verify.hh"
#include "workloads/polybench.hh"

namespace perfbench {

using namespace lisa;

namespace {

/** Cap on one job: several times the slowest job at the seed commit. */
constexpr double kJobCapS = 10.0;
/** A pass that runs longer than this stops; its remaining jobs fail. */
constexpr double kPassDeadlineS = 60.0;
/** --seconds per pass: one pass takes 13-18 s on a 4-core container. */
constexpr double kNominalPassS = 15.0;
/** Set-up takes about a millisecond; a median of many is steady. */
constexpr int kSetups = 21;

struct Job
{
    bool ilp = false;
    const char *kernel = "";
    int ii = 0;
    /** ILP* only: the known verdict (true = maps, false = refuted). */
    bool expect = true;
};

const std::vector<Job> &
jobTable()
{
    static const std::vector<Job> jobs = {
        // SA at the II SA reaches at the seed commit.
        {false, "atax", 2},
        {false, "bicg", 2},
        {false, "doitgen", 1},
        {false, "gemm", 1},
        {false, "gemver", 4},
        {false, "gesummv", 2},
        {false, "mm2", 3},
        {false, "mvt", 2},
        {false, "symm", 2},
        {false, "syr2k", 3},
        {false, "syrk", 1},
        {false, "trmm", 2},
        // ILP*: first II it maps each kernel at ...
        {true, "atax", 2, true},
        {true, "bicg", 3, true},
        {true, "doitgen", 2, true},
        {true, "gemm", 2, true},
        {true, "gemver", 7, true},
        {true, "gesummv", 7, true},
        {true, "mm2", 5, true},
        {true, "mvt", 2, true},
        {true, "symm", 5, true},
        {true, "syr2k", 7, true},
        {true, "syrk", 2, true},
        {true, "trmm", 4, true},
        // ... and completed exhaustive refutations.
        {true, "bicg", 2, false},
        {true, "doitgen", 1, false},
        {true, "gemver", 3, false},
        {true, "syr2k", 2, false},
    };
    return jobs;
}

struct Kernel
{
    explicit Kernel(const std::string &name)
        : dfg(workloads::polybenchKernel(name)), analysis(dfg)
    {
    }
    dfg::Dfg dfg;
    dfg::Analysis analysis;
};

/** Everything the timed phase needs, built once per set-up. */
struct MapSetup
{
    std::unique_ptr<arch::CgraArch> accel;
    std::unique_ptr<arch::ArchContext> context;
    std::map<std::string, std::unique_ptr<Kernel>> kernels;
    std::map<int, std::shared_ptr<const arch::Mrrg>> mrrgs;
    double mrrgBuildS = 0.0;
};

bool
buildSetup(MapSetup &s, std::string *error)
{
    s.accel = std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
    s.context = std::make_unique<arch::ArchContext>(*s.accel, std::string());
    const auto t0 = Clock::now();
    for (const Job &j : jobTable())
        if (!s.mrrgs.count(j.ii))
            s.mrrgs[j.ii] = s.context->mrrgFor(j.ii);
    s.mrrgBuildS = secondsBetween(t0, Clock::now());
    // ILP* consults the shipped learned routability model.
    if (!map::loadRoutabilityModel(*s.context, "lisa_models")) {
        *error = "lisa_models/" + s.accel->name() +
                 ".routability is missing or stale";
        return false;
    }
    for (const Job &j : jobTable())
        if (!s.kernels.count(j.kernel))
            s.kernels[j.kernel] = std::make_unique<Kernel>(j.kernel);
    return true;
}

/** Outcome of one job in one pass. */
struct JobResult
{
    const Job *job = nullptr;
    bool mapped = false;
    bool ran = false;
    double mapS = 0.0;    ///< tryMap wall
    double verifyS = 0.0; ///< SA final verify wall
    bool verified = false;
    long trials = 0;
    map::MapperStats stats;
    std::optional<map::Mapping> mapping;
};

JobResult
runJob(MapSetup &s, const Job &job)
{
    JobResult r;
    r.job = &job;
    r.ran = true;
    const Kernel &k = *s.kernels.at(job.kernel);
    std::atomic<long> attempts{0};
    map::MapContext ctx{k.dfg,
                        k.analysis,
                        s.mrrgs.at(job.ii),
                        kJobCapS,
                        Rng(1).split(static_cast<uint64_t>(job.ii)),
                        1,
                        nullptr,
                        nullptr,
                        &attempts,
                        &r.stats,
                        s.context.get(),
                        nullptr,
                        job.ii,
                        0};
    std::unique_ptr<map::Mapper> mapper;
    if (job.ilp)
        mapper = std::make_unique<map::ExactMapper>();
    else
        mapper = std::make_unique<map::SaMapper>();
    const auto t0 = Clock::now();
    r.mapping = mapper->tryMap(ctx);
    const auto t1 = Clock::now();
    r.mapS = secondsBetween(t0, t1);
    r.mapped = r.mapping.has_value();
    r.trials = attempts.load();
    if (r.mapped && !job.ilp) {
        // The final-answer check searchMinIi runs on every SA result.
        r.verified = verify::verifyMapping(k.dfg, *s.mrrgs.at(job.ii),
                                           *r.mapping)
                         .ok();
        r.verifyS = secondsBetween(t1, Clock::now());
    }
    return r;
}

std::string
jobRow(const JobResult &r, int pass)
{
    const map::RouterCounters &c = r.stats.router;
    std::ostringstream os;
    os << "{\"pass\":" << pass << ",\"mapper\":\""
       << (r.job->ilp ? "ILP*" : "SA") << "\",\"kernel\":\"" << r.job->kernel
       << "\",\"ii\":" << r.job->ii
       << ",\"mapped\":" << (r.mapped ? "true" : "false")
       << ",\"map_s\":" << num(r.mapS) << ",\"verify_s\":" << num(r.verifyS)
       << ",\"restarts\":" << r.stats.restarts
       << ",\"route_calls\":" << c.routeEdgeCalls
       << ",\"route_pops\":" << c.pqPops
       << ",\"route_relaxations\":" << c.relaxations
       << ",\"trials\":" << r.trials << "}";
    return os.str();
}

/** Cost of one steady_clock read pair, seconds (tracing overhead). */
double
clockPairCost()
{
    constexpr int n = 200000;
    const auto t0 = Clock::now();
    for (int i = 0; i < 2 * n; ++i)
        (void)Clock::now();
    return secondsBetween(t0, Clock::now()) / n;
}

} // namespace

bool
runMapWorkload(const RunConfig &cfg, Report &report)
{
    // Set-up: fabric, context, MRRGs for every job II, the routability
    // model and the kernels. Repeated so setup_s is a median.
    std::vector<double> setups;
    std::vector<double> mrrg_builds;
    std::unique_ptr<MapSetup> setup;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = i == 0 ? cfg.processStart : Clock::now();
        setup.reset();
        setup = std::make_unique<MapSetup>();
        std::string error;
        if (!buildSetup(*setup, &error)) {
            std::cerr << "[perfbench] map-fig9a set-up: " << error << "\n";
            return false;
        }
        setups.push_back(secondsBetween(t0, Clock::now()));
        mrrg_builds.push_back(setup->mrrgBuildS);
    }
    MapSetup &s = *setup;

    std::vector<const Job *> sa_jobs, ilp_jobs;
    for (const Job &j : jobTable())
        (j.ilp ? ilp_jobs : sa_jobs).push_back(&j);
    Rng order(cfg.seed);
    order.shuffle(sa_jobs);
    order.shuffle(ilp_jobs);
    // A pass runs the short ILP* block on both sides of the SA block.
    std::vector<const Job *> jobs = ilp_jobs;
    jobs.insert(jobs.end(), sa_jobs.begin(), sa_jobs.end());
    jobs.insert(jobs.end(), ilp_jobs.begin(), ilp_jobs.end());

    // Timed phase: a pass count fixed by --seconds, so every run of one
    // setting does the same work. A job's time is its fastest run: its
    // work is identical every time, so the minimum drops the machine's
    // transient slowdowns.
    const int passes = std::max(
        1, static_cast<int>(std::lround(cfg.seconds / kNominalPassS)));
    std::map<const Job *, double> best;
    std::vector<JobResult> first_pass;
    for (int pass = 0; pass < passes; ++pass) {
        const auto p0 = Clock::now();
        std::vector<JobResult> results;
        for (const Job *j : jobs) {
            if (secondsBetween(p0, Clock::now()) > kPassDeadlineS) {
                JobResult skipped;
                skipped.job = j;
                results.push_back(std::move(skipped));
                continue;
            }
            results.push_back(runJob(s, *j));
        }

        // Outside the timed region: bookkeeping and correctness.
        long failed = 0;
        for (JobResult &r : results) {
            if (r.ran) {
                const double job_s = r.mapS + r.verifyS;
                const auto [it, fresh] = best.emplace(r.job, job_s);
                if (!fresh)
                    it->second = std::min(it->second, job_s);
            }
            std::string why;
            if (!r.ran)
                why = "not run: pass deadline";
            else if (!r.job->ilp && !r.mapped)
                why = "SA hit its cap";
            else if (!r.job->ilp && !r.verified)
                why = "SA mapping failed the verifier";
            else if (r.job->ilp && r.mapped != r.job->expect)
                why = r.mapped ? "ILP* mapped a known refutation"
                               : "ILP* verdict differs (refuted or cap)";
            else if (r.job->ilp && r.mapped &&
                     !verify::verifyMapping(
                          s.kernels.at(r.job->kernel)->dfg,
                          *s.mrrgs.at(r.job->ii), *r.mapping)
                          .ok())
                why = "ILP* mapping failed the verifier";
            else if (pass == 0 && r.mapped) {
                std::string error;
                if (!sim::verifyMapping(*r.mapping, 4, &error))
                    why = "simulation differs from the reference: " + error;
            }
            if (!why.empty()) {
                ++failed;
                report.fail(std::string(r.job->ilp ? "ILP* " : "SA ") +
                            r.job->kernel + "@" +
                            std::to_string(r.job->ii) + ": " + why);
            }
            report.row(jobRow(r, pass));
            r.mapping.reset();
        }
        report.count(static_cast<long>(results.size()), failed);
        if (pass == 0)
            first_pass = std::move(results);
    }
    double sa_best = 0.0, ilp_best = 0.0;
    for (const auto &[job, s_best] : best)
        (job->ilp ? ilp_best : sa_best) += s_best;

    report.note("passes", std::to_string(passes));
    report.note("jobs", std::to_string(best.size()));
    report.note("job_cap_s", num(kJobCapS));
    report.metric("setup_s", median(setups), "s");
    report.metric("work_s", sa_best + ilp_best, "s");
    report.metric("main_ms", sa_best * 1e3, "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    if (!cfg.trace)
        return true;

    // Per-layer numbers from each job's first run: MapperStats counters
    // are the program's own; times are the outside spans around each call.
    map::MapperStats sa, ilp;
    double sa_map = 0.0, sa_verify = 0.0, ilp_verdict = 0.0;
    long ilp_trials = 0;
    std::set<const Job *> counted;
    for (const JobResult &r : first_pass) {
        if (!counted.insert(r.job).second)
            continue;
        if (r.job->ilp) {
            ilp.merge(r.stats);
            ilp_verdict += r.mapS;
            ilp_trials += r.trials;
        } else {
            sa.merge(r.stats);
            sa_map += r.mapS + r.verifyS;
            sa_verify += r.verifyS;
        }
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto u = [](uint64_t v) { return static_cast<double>(v); };
    report.metric("arch.mrrg_build_s", median(mrrg_builds), "s");
    report.metric("sa_map_s", sa_map, "s");
    report.metric("sa.mapping.route_calls", u(sa.router.routeEdgeCalls),
                  "count");
    report.metric("sa.mapping.route_pops", u(sa.router.pqPops), "count");
    report.metric("sa.mapping.route_relaxations", u(sa.router.relaxations),
                  "count");
    report.metric("sa.mapping.pops_per_call",
                  ratio(u(sa.router.pqPops), u(sa.router.routeEdgeCalls)),
                  "ratio");
    report.metric("sa.mapping.route_cpu_s", sa.router.routeSeconds, "s");
    report.metric("sa.mapping.oracle_builds", u(sa.router.oracleBuilds),
                  "count");
    report.metric("sa.mappers.restarts", u(sa.restarts), "count");
    const double moves = u(sa.movesCommitted + sa.movesRolledBack);
    report.metric("sa.mappers.moves", moves, "count");
    report.metric("sa.mappers.accept_ratio",
                  ratio(u(sa.movesCommitted), moves), "ratio");
    report.metric("sa.mappers.init_cpu_s", sa.initSeconds, "s");
    report.metric("sa.mappers.move_cpu_s", sa.moveSeconds, "s");
    // routeSeconds is inside init and move time; the mapper's own share
    // is the rest. Whatever tryMap spends outside both is uncovered.
    const double sa_self =
        sa.initSeconds + sa.moveSeconds - sa.router.routeSeconds;
    report.metric("sa.mappers.self_cpu_s", sa_self, "s");
    report.metric("sa.verify.final_s", sa_verify, "s");
    report.metric("sa.uncovered_s",
                  sa_map - sa.router.routeSeconds - sa_self - sa_verify, "s");

    report.metric("ilp_verdict_s", ilp_verdict, "s");
    report.metric("ilp.mapping.route_calls", u(ilp.router.routeEdgeCalls),
                  "count");
    report.metric("ilp.mapping.route_pops", u(ilp.router.pqPops), "count");
    report.metric("ilp.mapping.route_fail_ratio", ilp.router.failureRate(),
                  "ratio");
    report.metric("ilp.mapping.route_cpu_s", ilp.router.routeSeconds, "s");
    report.metric("ilp.mapping.filter_queries", u(ilp.router.filterQueries),
                  "count");
    report.metric("ilp.mapping.filter_rejects", u(ilp.router.filterRejects),
                  "count");
    report.metric("ilp.mapping.filter_shadow_routes",
                  u(ilp.router.filterShadowRoutes), "count");
    report.metric("ilp.mappers.trials", static_cast<double>(ilp_trials),
                  "count");
    // The DFS's own time is the remainder of the verdict time.
    report.metric("ilp.mappers.self_s",
                  ilp_verdict - ilp.router.routeSeconds, "s");

    // Two clock reads per span: one around each tryMap, one around each
    // SA final verify.
    const double spans =
        static_cast<double>(counted.size() + sa_jobs.size());
    report.metric("trace.overhead_share",
                  ratio(spans * clockPairCost(), sa_map + ilp_verdict),
                  "ratio");
    return true;
}

} // namespace perfbench
