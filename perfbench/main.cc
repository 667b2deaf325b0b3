/**
 * @file
 * lisa_perfbench: one run of one benchmark workload.
 *
 *   lisa_perfbench --workload map-fig9a|serve-hit|serve-mixed
 *                  --seed N --seconds S --trace 0|1 [--workdir DIR]
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object: correctness verdict, operation counts, every metric measured
 * (end-to-end ones always, per-layer ones with --trace 1), and per-job
 * rows. perfbench/run.py turns that into the benchmark's result line.
 * Exits non-zero, printing no result, on bad arguments or a failed
 * set-up.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    cfg.processStart = Clock::now();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "lisa_perfbench: " << arg << " needs a value\n";
            return 2;
        }
        const std::string value = argv[++i];
        if (arg == "--workload")
            cfg.workload = value;
        else if (arg == "--seed")
            cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            cfg.trace = value == "1";
        else if (arg == "--workdir")
            cfg.workDir = value;
        else {
            std::cerr << "lisa_perfbench: unknown flag " << arg << "\n";
            return 2;
        }
    }
    if (cfg.seconds <= 0.0) {
        std::cerr << "lisa_perfbench: --seconds must be positive\n";
        return 2;
    }

    Report report;
    bool ran = false;
    if (cfg.workload == "map-fig9a")
        ran = runMapWorkload(cfg, report);
    else if (cfg.workload == "serve-hit" || cfg.workload == "serve-mixed")
        ran = runServeWorkload(cfg, report);
    else
        std::cerr << "lisa_perfbench: unknown workload '" << cfg.workload
                  << "'\n";
    if (!ran)
        return 1;
    std::cout << report.json() << std::endl;
    return 0;
}
