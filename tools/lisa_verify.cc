/**
 * @file
 * lisa-verify: check serialized mappings against the invariant verifier.
 *
 * Usage:
 *   lisa-verify [--partial] <mapping-file>...
 *   lisa-verify --demo <out-file>
 *
 * Exit status 0 when every file loads and verifies clean, 1 otherwise.
 * --partial skips the completeness checks (all placed / all routed / zero
 * overuse) so mid-search snapshots can be checked too. --demo maps a small
 * kernel with the vanilla SA mapper and writes the resulting mapping file,
 * as a quick way to produce a valid input.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "verify/mapping_io.hh"
#include "verify/verify.hh"
#include "workloads/registry.hh"

namespace {

int
usage()
{
    std::cerr << "usage: lisa-verify [--partial] <mapping-file>...\n"
                 "       lisa-verify --demo <out-file>\n";
    return 2;
}

int
writeDemo(const std::string &path)
{
    using namespace lisa;
    arch::CgraArch accel(arch::baselineCgra(4, 4));
    arch::ArchContext context(accel);
    const auto suite = workloads::polybenchSuite();
    map::SaMapper mapper;
    map::SearchOptions options;
    options.perIiBudget = 2.0;
    options.totalBudget = 20.0;
    auto result = map::searchMinIi(mapper, suite.front().dfg, context,
                                   options);
    if (!result.success) {
        std::cerr << "lisa-verify: demo mapping attempt failed\n";
        return 1;
    }
    std::ofstream os(path);
    if (!os) {
        std::cerr << "lisa-verify: cannot write " << path << "\n";
        return 1;
    }
    os << "# " << suite.front().name << " on " << accel.name() << ", II "
       << result.ii << "\n"
       << verify::mappingToText(*result.mapping);
    std::cout << path << ": wrote " << suite.front().name << " mapping at II "
              << result.ii << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    bool partial = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--partial") {
            partial = true;
        } else if (arg == "--demo") {
            if (i + 1 >= argc)
                return usage();
            return writeDemo(argv[i + 1]);
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty())
        return usage();

    int bad = 0;
    for (const std::string &file : files) {
        std::ifstream is(file);
        if (!is) {
            std::cerr << file << ": cannot open\n";
            ++bad;
            continue;
        }
        std::string error;
        auto loaded = lisa::verify::readMapping(is, &error);
        if (!loaded) {
            std::cout << file << ": LOAD ERROR: " << error << "\n";
            ++bad;
            continue;
        }
        lisa::verify::VerifyOptions options;
        options.requireComplete = !partial;
        auto report = lisa::verify::verifyMapping(
            *loaded->dfg, *loaded->mrrg, *loaded->mapping, options);
        if (report.ok()) {
            std::cout << file << ": ok (" << loaded->dfg->numNodes()
                      << " nodes, " << loaded->dfg->numEdges()
                      << " edges, II " << loaded->mrrg->ii() << ")\n";
        } else {
            std::cout << file << ": " << report.toString() << "\n";
            ++bad;
        }
    }
    return bad == 0 ? 0 : 1;
}
