/**
 * @file
 * Full compiler driver: expression-language frontend -> mapper -> emitted
 * configuration -> functional simulation check.
 *
 * Run: ./lisa_cli [expression] [arch] [mapper]
 *   expression: a loop body, default "acc += alpha * A[i][k] * B[k][j];"
 *   arch:       4x4 (default), 3x3, 8x8, less_routing, less_mem
 *   mapper:     sa (default), ilp
 *
 * Example:
 *   ./lisa_cli "y[i] = A[i][j] * x[j] + y[i];" 3x3 sa
 */

#include <cstdio>
#include <memory>
#include <string>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "dfg/expr_parser.hh"
#include "dfg/serialize.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"
#include "sim/config_emit.hh"
#include "sim/simulator.hh"

using namespace lisa;

namespace {

std::unique_ptr<arch::Accelerator>
makeArch(const std::string &name)
{
    if (name == "3x3")
        return std::make_unique<arch::CgraArch>(arch::baselineCgra(3, 3));
    if (name == "8x8")
        return std::make_unique<arch::CgraArch>(arch::baselineCgra(8, 8));
    if (name == "less_routing")
        return std::make_unique<arch::CgraArch>(arch::lessRoutingCgra());
    if (name == "less_mem")
        return std::make_unique<arch::CgraArch>(arch::lessMemoryCgra());
    return std::make_unique<arch::CgraArch>(arch::baselineCgra(4, 4));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string source =
        argc > 1 ? argv[1] : "acc += alpha * A[i][k] * B[k][j];";
    const std::string arch_name = argc > 2 ? argv[2] : "4x4";
    const std::string mapper_name = argc > 3 ? argv[3] : "sa";

    // Frontend: loop body -> DFG.
    std::string error;
    auto graph = dfg::parseExpressions(source, "cli-kernel", &error);
    if (!graph) {
        std::fprintf(stderr, "parse error: %s\n", error.c_str());
        return 1;
    }
    std::printf("parsed %zu nodes, %zu edges:\n%s\n", graph->numNodes(),
                graph->numEdges(), dfg::toText(*graph).c_str());

    // Mapper.
    auto accel = makeArch(arch_name);
    std::unique_ptr<map::Mapper> mapper;
    if (mapper_name == "ilp")
        mapper = std::make_unique<map::ExactMapper>();
    else
        mapper = std::make_unique<map::SaMapper>();

    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 10.0;
    arch::ArchContext context(*accel);
    auto result = map::searchMinIi(*mapper, *graph, context, opts);
    if (!result.success) {
        std::printf("%s could not map the kernel on %s\n",
                    mapper->name().c_str(), accel->name().c_str());
        return 1;
    }
    std::printf("%s mapped at II=%d (MII %d) in %.2fs\n\n",
                mapper->name().c_str(), result.ii, result.mii,
                result.seconds);

    // Backend artifacts: configuration + functional verification.
    std::printf("%s\n", sim::configurationToText(*result.mapping).c_str());

    std::string sim_error;
    if (sim::verifyMapping(*result.mapping, 4, &sim_error)) {
        std::printf("functional simulation: 4 iterations match the "
                    "reference interpreter\n");
    } else {
        std::printf("functional simulation FAILED: %s\n",
                    sim_error.c_str());
        return 1;
    }
    return 0;
}
