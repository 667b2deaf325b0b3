/**
 * @file
 * Map a PolyBench kernel on a chosen accelerator with all three mappers
 * and compare II / compile time — the per-kernel view of Fig 9.
 *
 * Run: ./map_polybench [kernel] [arch]
 *   kernel: gemm (default), atax, bicg, ..., or e.g. gemm_u2 for the
 *           unrolled variant
 *   arch:   4x4 (default), 3x3, 8x8, less_routing, less_mem
 */

#include <cstdio>
#include <memory>
#include <string>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "core/framework.hh"
#include "mappers/exact_mapper.hh"
#include "mappers/sa_mapper.hh"
#include "workloads/registry.hh"

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

void
report(const char *name, const map::SearchResult &r)
{
    if (r.success)
        std::printf("  %-6s II=%-3d (%.2fs)\n", name, r.ii, r.seconds);
    else
        std::printf("  %-6s cannot map (%.2fs)\n", name, r.seconds);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string kernel = argc > 1 ? argv[1] : "gemm";
    const std::string arch_name = argc > 2 ? argv[2] : "4x4";

    auto accel = makeArch(arch_name);
    workloads::Workload w = workloads::workloadByName(kernel);
    std::printf("%s (%zu nodes, %zu edges) on %s\n", w.name.c_str(),
                w.dfg.numNodes(), w.dfg.numEdges(), accel->name().c_str());

    map::SearchOptions opts;
    opts.perIiBudget = 2.0;
    opts.totalBudget = 8.0;

    arch::ArchContext context(*accel); // shared by both sweeps
    map::ExactMapper ilp;
    report("ILP*", map::searchMinIi(ilp, w.dfg, context, opts));

    map::SaMapper sa;
    report("SA", map::searchMinIi(sa, w.dfg, context, opts));

    // LISA needs per-accelerator models; train small ones on first use
    // (cached under ./lisa_models for subsequent runs).
    core::FrameworkConfig fw_cfg;
    fw_cfg.trainingData.numDfgs = 30;
    fw_cfg.training.epochs = 80;
    core::LisaFramework fw(*accel, fw_cfg);
    fw.prepare();
    report("LISA", fw.compile(w.dfg, opts));

    std::printf("label accuracy (1..4):");
    for (double a : fw.labelAccuracy())
        std::printf(" %.3f", a);
    std::printf("\n");
    return 0;
}
