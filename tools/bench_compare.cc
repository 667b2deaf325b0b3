/**
 * @file
 * Throughput-regression guard over the JSONL files a bench binary
 * writes with --metrics-out.
 *
 * Usage: bench_compare <baseline.jsonl> <current.jsonl> [max_regression]
 *
 * Each file must contain at least one suite summary line
 * (`{"event":"suite",...,"attemptsPerSec":X,...}`); the last one wins.
 * Exits 1 when the current attemptsPerSec falls more than
 * @p max_regression (fraction, default 0.20) below the baseline, 2 on
 * usage or parse errors, 0 otherwise. Improvements always pass.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace {

/** @return the attemptsPerSec of the last suite line, or -1 if absent. */
double
lastSuiteAttemptsPerSec(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "bench_compare: cannot open " << path << "\n";
        return -1.0;
    }
    const std::string event_tag = "\"event\":\"suite\"";
    const std::string rate_tag = "\"attemptsPerSec\":";
    double value = -1.0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find(event_tag) == std::string::npos)
            continue;
        const size_t at = line.find(rate_tag);
        if (at == std::string::npos)
            continue;
        const char *start = line.c_str() + at + rate_tag.size();
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end != start)
            value = v;
    }
    if (value < 0.0)
        std::cerr << "bench_compare: no suite attemptsPerSec in " << path
                  << "\n";
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 && argc != 4) {
        std::cerr << "usage: bench_compare <baseline.jsonl> <current.jsonl>"
                     " [max_regression]\n";
        return 2;
    }
    double max_regression = 0.20;
    if (argc == 4) {
        char *end = nullptr;
        max_regression = std::strtod(argv[3], &end);
        if (end == argv[3] || max_regression < 0.0 || max_regression >= 1.0) {
            std::cerr << "bench_compare: max_regression must be in [0, 1)\n";
            return 2;
        }
    }

    const double baseline = lastSuiteAttemptsPerSec(argv[1]);
    const double current = lastSuiteAttemptsPerSec(argv[2]);
    if (baseline < 0.0 || current < 0.0)
        return 2;

    const double floor = baseline * (1.0 - max_regression);
    const double delta_pct = (current / baseline - 1.0) * 100.0;
    std::cout << "bench_compare: baseline " << baseline << " att/s, current "
              << current << " att/s (" << (delta_pct >= 0 ? "+" : "")
              << delta_pct << "%), floor " << floor << " att/s\n";
    if (current < floor) {
        std::cerr << "bench_compare: FAIL — attemptsPerSec regressed more "
                     "than "
                  << max_regression * 100.0 << "%\n";
        return 1;
    }
    std::cout << "bench_compare: OK\n";
    return 0;
}
