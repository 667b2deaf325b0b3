#include "harness.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "arch/arch_context.hh"
#include "core/lisa_mapper.hh"
#include "mapping/routability_filter.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "power/power_model.hh"
#include "support/json.hh"
#include "support/stopwatch.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"

namespace lisabench {

namespace {

/** Settings parsed from the command line by initBench. */
bool g_fast = false;
int g_saRuns = 1;
std::string g_metricsOut;
bool g_portfolio = false;

std::string
iiCell(const map::SearchResult &r)
{
    return std::to_string(r.success ? r.ii : 0);
}

bool
metricsEnabled()
{
    return !g_metricsOut.empty();
}

/** Append one JSON object to the --metrics-out file (JSONL). */
void
emitMetricsLine(const std::string &line)
{
    std::ofstream f(g_metricsOut, std::ios::app);
    f << line << "\n";
}

std::string
searchResultJson(const std::string &accel, const std::string &kernel,
                 const char *mapper, const map::SearchResult &r)
{
    std::ostringstream os;
    os << "{\"event\":\"kernel\",\"accel\":\"" << jsonEscape(accel)
       << "\",\"kernel\":\"" << jsonEscape(kernel) << "\",\"mapper\":\""
       << jsonEscape(mapper)
       << "\",\"success\":" << (r.success ? "true" : "false")
       << ",\"ii\":" << r.ii << ",\"mii\":" << r.mii
       << ",\"seconds\":" << r.seconds
       << ",\"verify_ms\":" << r.verifySeconds * 1e3
       << ",\"verified\":" << (r.verified ? "true" : "false")
       << ",\"attempts\":" << r.attempts
       << ",\"budgetClass\":\"" << map::budgetClassName(r.budgetClass)
       << "\",\"stats\":" << r.stats.toJson() << "}";
    return os.str();
}

std::string
portfolioMemberJson(const std::string &accel, const std::string &kernel,
                    const map::MemberOutcome &m)
{
    const map::SearchResult &r = m.result;
    std::ostringstream os;
    os << "{\"event\":\"portfolio_member\",\"accel\":\""
       << jsonEscape(accel) << "\",\"kernel\":\"" << jsonEscape(kernel)
       << "\",\"member\":\"" << jsonEscape(m.name)
       << "\",\"rank\":" << m.rank
       << ",\"success\":" << (r.success ? "true" : "false")
       << ",\"ii\":" << r.ii << ",\"mii\":" << r.mii
       << ",\"seconds\":" << r.seconds << ",\"attempts\":" << r.attempts
       << ",\"cancelledAtIi\":" << r.cancelledAtIi
       << ",\"stats\":" << r.stats.toJson() << "}";
    return os.str();
}

std::string
portfolioJson(const std::string &accel, const std::string &kernel,
              const map::PortfolioResult &p)
{
    std::ostringstream os;
    os << "{\"event\":\"portfolio\",\"accel\":\"" << jsonEscape(accel)
       << "\",\"kernel\":\"" << jsonEscape(kernel)
       << "\",\"success\":" << (p.success ? "true" : "false")
       << ",\"ii\":" << p.ii << ",\"mii\":" << p.mii
       << ",\"seconds\":" << p.seconds << ",\"winner\":\""
       << jsonEscape(p.winner) << "\",\"winnerRank\":" << p.winnerRank
       << ",\"members\":" << p.members.size()
       << ",\"attempts\":" << p.attempts
       << ",\"stats\":" << p.stats.toJson() << "}";
    return os.str();
}

} // namespace

void
initBench(int argc, char **argv)
{
    int threads = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            threads = std::max(1, std::atoi(argv[++i]));
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = std::max(1, std::atoi(arg.c_str() + 10));
        } else if (arg == "--fast") {
            g_fast = true;
        } else if (arg == "--sa-runs" && i + 1 < argc) {
            g_saRuns = std::max(1, std::atoi(argv[++i]));
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            g_metricsOut = argv[++i];
        } else if (arg == "--portfolio") {
            g_portfolio = true;
        } else if (arg == "--collect-routability") {
            map::setRoutabilityCollection("routability_samples.txt");
        } else if (arg.rfind("--collect-routability=", 0) == 0) {
            map::setRoutabilityCollection(
                arg.substr(std::string("--collect-routability=").size()));
        } else {
            std::cerr << "[bench] ignoring unknown argument '" << arg
                      << "' (supported: --threads N, --fast, --sa-runs N, "
                         "--metrics-out FILE, --portfolio, "
                         "--collect-routability[=FILE])\n";
        }
    }
    ThreadPool::setGlobalThreads(threads);
    std::cerr << "[bench] threads=" << threads
              << (g_fast ? " fast=on" : "")
              << (g_portfolio ? " portfolio=on" : "") << "\n";
}

int
benchThreads()
{
    return ThreadPool::globalThreads();
}

bool
portfolioEnabled()
{
    return g_portfolio;
}

CompareOptions
scaled(CompareOptions options)
{
    if (g_fast) {
        options.saPerIi /= 4;
        options.saTotal /= 4;
        options.ilpPerIi /= 4;
        options.ilpTotal /= 4;
        options.lisaPerIi /= 4;
        options.lisaTotal /= 4;
    }
    return options;
}

arch::ArchContext &
archContextFor(const arch::Accelerator &accel)
{
    static std::map<std::string, std::unique_ptr<arch::ArchContext>>
        registry;
    auto it = registry.find(accel.name());
    if (it == registry.end()) {
        it = registry
                 .emplace(accel.name(),
                          std::make_unique<arch::ArchContext>(accel))
                 .first;
    }
    return *it->second;
}

core::LisaFramework &
frameworkFor(const arch::Accelerator &accel)
{
    // Touch the context registry before this function's own static so the
    // contexts outlive the frameworks that point into them.
    arch::ArchContext &context = archContextFor(accel);
    static std::map<std::string, std::unique_ptr<core::LisaFramework>>
        registry;
    auto it = registry.find(accel.name());
    if (it == registry.end()) {
        core::FrameworkConfig cfg;
        cfg.archContext = &context;
        cfg.trainingData.numDfgs = g_fast ? 12 : 60;
        cfg.trainingData.refinements = 4;
        cfg.trainingData.perIiBudget = 0.25;
        cfg.trainingData.totalBudget = 1.2;
        cfg.trainingData.threads = benchThreads();
        cfg.training.epochs = g_fast ? 40 : 120;
        cfg.cacheDir = "lisa_models";
        auto fw = std::make_unique<core::LisaFramework>(accel, cfg);
        std::cerr << "[bench] preparing LISA models for " << accel.name()
                  << " (cached in ./lisa_models)\n";
        fw->prepare();
        it = registry.emplace(accel.name(), std::move(fw)).first;
    }
    return *it->second;
}

std::vector<CompareResult>
compareMappers(const arch::Accelerator &accel,
               const std::vector<workloads::Workload> &suite,
               const CompareOptions &options)
{
    core::LisaFramework &fw = frameworkFor(accel);
    arch::ArchContext &context = fw.archContext();
    const int runs = g_saRuns;
    const int threads = benchThreads();

    Stopwatch wall;
    long total_attempts = 0;
    map::MapperStats suite_stats;

    std::vector<CompareResult> out;
    for (const auto &w : suite) {
        CompareResult row;
        row.kernel = w.name;

        {
            map::ExactMapper ilp;
            map::SearchOptions opts;
            opts.perIiBudget = options.ilpPerIi;
            opts.totalBudget = options.ilpTotal;
            opts.seed = options.seed;
            row.ilp = map::searchMinIi(ilp, w.dfg, context, opts);
            suite_stats.merge(row.ilp.stats);
        }

        {
            // Median of `runs` SA attempts, as the paper does for 3.
            std::vector<map::SearchResult> attempts;
            for (int r = 0; r < runs; ++r) {
                map::SaMapper sa;
                map::SearchOptions opts;
                opts.perIiBudget = options.saPerIi;
                opts.totalBudget = options.saTotal;
                opts.seed = options.seed + static_cast<uint64_t>(r) * 977;
                opts.threads = threads;
                attempts.push_back(
                    map::searchMinIi(sa, w.dfg, context, opts));
            }
            for (const auto &a : attempts) {
                total_attempts += a.attempts;
                suite_stats.merge(a.stats);
            }
            // The median pick must not depend on how the sort happens to
            // permute equal-II runs: tie-break on compile seconds and
            // keep the sort stable so runs that are equal on both keys
            // stay in run order.
            std::stable_sort(attempts.begin(), attempts.end(),
                             [](const map::SearchResult &a,
                                const map::SearchResult &b) {
                                 int ia = a.success ? a.ii : 1000;
                                 int ib = b.success ? b.ii : 1000;
                                 if (ia != ib)
                                     return ia < ib;
                                 return a.seconds < b.seconds;
                             });
            row.sa = std::move(attempts[attempts.size() / 2]);
        }

        {
            map::SearchOptions opts;
            opts.perIiBudget = options.lisaPerIi;
            opts.totalBudget = options.lisaTotal;
            opts.seed = options.seed;
            opts.threads = threads;
            row.lisa = fw.compile(w.dfg, opts);
            total_attempts += row.lisa.attempts;
            suite_stats.merge(row.lisa.stats);
        }

        if (g_portfolio) {
            // Race the fixed LISA / SA / ILP* member set. Members run
            // with inner threads = 1 for reproducibility while the
            // standalone runs above use `threads` seed streams, so scale the wall budgets by `threads` to give
            // each member the same CPU-seconds per II attempt as its
            // standalone counterpart — dominated members are cancelled
            // by the incumbent, so the inflation rarely materializes.
            const double cpu = static_cast<double>(threads);
            core::PortfolioConfig pc;
            pc.lisa.perIiBudget = options.lisaPerIi * cpu;
            pc.lisa.totalBudget = options.lisaTotal * cpu;
            pc.sa.perIiBudget = options.saPerIi * cpu;
            pc.sa.totalBudget = options.saTotal * cpu;
            pc.ilp.perIiBudget = options.ilpPerIi * cpu;
            pc.ilp.totalBudget = options.ilpTotal * cpu;
            pc.lisa.seed = pc.sa.seed = pc.ilp.seed = options.seed;
            row.portfolio = fw.compilePortfolio(w.dfg, pc);
            total_attempts += row.portfolio.attempts;
            suite_stats.merge(row.portfolio.stats);
        }

        std::cerr << "[bench] " << accel.name() << " " << w.name
                  << ": ILP*=" << iiCell(row.ilp) << " SA=" << iiCell(row.sa)
                  << " LISA=" << iiCell(row.lisa);
        if (g_portfolio) {
            std::cerr << " PORT=" << (row.portfolio.success
                                          ? std::to_string(row.portfolio.ii)
                                          : std::string("0"))
                      << " (winner="
                      << (row.portfolio.success ? row.portfolio.winner
                                                : std::string("-"))
                      << ")";
        }
        std::cerr << "\n";
        if (metricsEnabled()) {
            emitMetricsLine(
                searchResultJson(accel.name(), w.name, "ILP*", row.ilp));
            emitMetricsLine(
                searchResultJson(accel.name(), w.name, "SA", row.sa));
            emitMetricsLine(searchResultJson(accel.name(), w.name, "LISA",
                                             row.lisa));
            if (g_portfolio) {
                for (const auto &m : row.portfolio.members)
                    emitMetricsLine(
                        portfolioMemberJson(accel.name(), w.name, m));
                emitMetricsLine(
                    portfolioJson(accel.name(), w.name, row.portfolio));
            }
        }
        out.push_back(std::move(row));
    }

    const double secs = wall.seconds();
    const double attempts_per_sec = secs > 0 ? static_cast<double>(total_attempts) / secs : 0.0;
    const double route_calls_per_sec =
        secs > 0 ? static_cast<double>(suite_stats.router.routeEdgeCalls) / secs
                 : 0.0;
    const double failure_rate = suite_stats.router.failureRate();
    std::cerr << "[bench] " << accel.name() << " suite: wall-clock "
              << fmtDouble(secs) << " s, threads=" << threads << ", "
              << total_attempts << " annealing attempts ("
              << fmtDouble(attempts_per_sec) << " attempts/s, "
              << fmtDouble(route_calls_per_sec) << " route-calls/s, "
              << fmtDouble(failure_rate * 100.0, 1)
              << "% route failures)\n";
    if (metricsEnabled()) {
        std::ostringstream os;
        os << "{\"event\":\"suite\",\"accel\":\"" << accel.name()
           << "\",\"kernels\":" << suite.size()
           << ",\"wallSeconds\":" << secs << ",\"threads\":" << threads
           << ",\"attempts\":" << total_attempts
           << ",\"attemptsPerSec\":" << attempts_per_sec
           << ",\"routeCallsPerSec\":" << route_calls_per_sec
           << ",\"routeFailureRate\":" << failure_rate
           << ",\"stats\":" << suite_stats.toJson() << "}";
        emitMetricsLine(os.str());
    }
    return out;
}

void
printIiTable(const std::string &title,
             const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title
              << " (II; 0 = cannot map within budget) ==\n";
    Table t({"kernel", "ILP*", "SA", "LISA"});
    for (const auto &r : results)
        t.addRow({r.kernel, iiCell(r.ilp), iiCell(r.sa), iiCell(r.lisa)});
    t.print(std::cout);
}

void
printTimeTable(const std::string &title,
               const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title
              << " (compilation seconds; failures use termination time) "
                 "==\n";
    Table t({"kernel", "ILP*", "SA", "LISA"});
    double ilp_total = 0, sa_total = 0, lisa_total = 0;
    for (const auto &r : results) {
        t.addRow({r.kernel, fmtDouble(r.ilp.seconds),
                  fmtDouble(r.sa.seconds), fmtDouble(r.lisa.seconds)});
        ilp_total += r.ilp.seconds;
        sa_total += r.sa.seconds;
        lisa_total += r.lisa.seconds;
    }
    t.addRow({"(total)", fmtDouble(ilp_total), fmtDouble(sa_total),
              fmtDouble(lisa_total)});
    t.print(std::cout);
    if (lisa_total > 0) {
        std::cout << "geomean-free speedup vs LISA:  ILP* "
                  << fmtDouble(ilp_total / lisa_total, 1) << "x,  SA "
                  << fmtDouble(sa_total / lisa_total, 1) << "x\n";
    }
}

void
printSuccessTable(const std::string &title,
                  const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title << " (mapping success) ==\n";
    auto mark = [](const map::SearchResult &r) {
        return std::string(r.success ? "yes" : "no");
    };
    Table t({"kernel", "ILP*", "SA", "LISA"});
    for (const auto &r : results)
        t.addRow({r.kernel, mark(r.ilp), mark(r.sa), mark(r.lisa)});
    t.print(std::cout);
}

void
printPowerTable(const std::string &title,
                const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title
              << " (MOPS/W normalized to LISA; 0 = cannot map) ==\n";
    Table t({"kernel", "ILP*", "SA", "LISA"});
    auto mops = [](const map::SearchResult &r) {
        if (!r.success || !r.mapping)
            return 0.0;
        return power::evaluatePower(*r.mapping).mopsPerWatt;
    };
    for (const auto &r : results) {
        double lisa = mops(r.lisa);
        auto norm = [&](double v) {
            return lisa > 0 ? fmtDouble(v / lisa) : fmtDouble(0.0);
        };
        t.addRow({r.kernel, norm(mops(r.ilp)), norm(mops(r.sa)),
                  lisa > 0 ? "1.00" : "0.00"});
    }
    t.print(std::cout);
}

void
printRoutingTable(const std::string &title,
                  const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title
              << " (route calls, failure rate, filter activity) ==\n";
    Table t({"kernel", "calls", "fail%", "filtered", "saved"});
    for (const auto &r : results) {
        map::RouterCounters c;
        for (const map::SearchResult *s : {&r.ilp, &r.sa, &r.lisa})
            c.merge(s->stats.router);
        t.addRow({r.kernel, std::to_string(c.routeEdgeCalls),
                  fmtDouble(c.failureRate() * 100.0, 1),
                  std::to_string(c.filterRejects),
                  std::to_string(c.filterRejects - c.filterShadowRoutes)});
    }
    t.print(std::cout);
}

void
printPortfolioTable(const std::string &title,
                    const std::vector<CompareResult> &results)
{
    std::cout << "\n== " << title
              << " (racing portfolio; best-single = min standalone II) "
                 "==\n";
    Table t({"kernel", "portfolio", "best-single", "winner", "seconds"});
    for (const auto &r : results) {
        int best_single = 1000;
        for (const map::SearchResult *s : {&r.ilp, &r.sa, &r.lisa})
            if (s->success)
                best_single = std::min(best_single, s->ii);
        t.addRow({r.kernel,
                  std::to_string(r.portfolio.success ? r.portfolio.ii : 0),
                  std::to_string(best_single == 1000 ? 0 : best_single),
                  r.portfolio.success ? r.portfolio.winner : "-",
                  fmtDouble(r.portfolio.seconds)});
    }
    t.print(std::cout);
}

} // namespace lisabench
