/**
 * @file
 * Quickstart: build a small DFG with the builder DSL, map it on a 4x4
 * CGRA with plain simulated annealing, and print the schedule.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "arch/arch_context.hh"
#include "arch/cgra.hh"
#include "dfg/builder.hh"
#include "dfg/serialize.hh"
#include "mappers/sa_mapper.hh"
#include "mapping/ii_search.hh"

using namespace lisa;

int
main()
{
    // 1. Describe the loop body: out[i] = a[i] * b[i] + acc.
    dfg::DfgBuilder builder("dot-product");
    auto a = builder.load("a[i]");
    auto b = builder.load("b[i]");
    auto mul = builder.op(dfg::OpCode::Mul, {a, b}, "a*b");
    auto acc = builder.op(dfg::OpCode::Add, {mul}, "acc+=");
    builder.recurrence(acc, acc); // loop-carried accumulator
    builder.store(acc, "out");
    dfg::Dfg graph = builder.build();

    std::printf("DFG (text form):\n%s\n", dfg::toText(graph).c_str());

    // 2. Describe the target: a 4x4 mesh CGRA, 4 registers per PE.
    arch::CgraArch cgra(arch::baselineCgra(4, 4));
    arch::ArchContext context(cgra); // MRRGs + routing tables, per II

    // 3. Compile: sweep II from the lower bound until a mapping fits.
    map::SaMapper mapper;
    map::SearchOptions options;
    options.perIiBudget = 2.0;
    options.totalBudget = 10.0;
    map::SearchResult result =
        map::searchMinIi(mapper, graph, context, options);

    if (!result.success) {
        std::printf("mapping failed (MII was %d)\n", result.mii);
        return 1;
    }

    std::printf("mapped at II=%d (MII %d) in %.2fs\n", result.ii,
                result.mii, result.seconds);
    std::printf("\n%-10s %-6s %-6s\n", "node", "PE", "cycle");
    const map::Mapping &m = *result.mapping;
    for (const dfg::Node &n : graph.nodes()) {
        const map::Placement &p = m.placement(n.id);
        std::printf("%-10s pe%-4d t=%d\n",
                    n.name.empty() ? dfg::opName(n.op) : n.name.c_str(),
                    p.pe.value(), p.time.value());
    }
    std::printf("\nroute resources used: %d, overuse: %d\n",
                m.totalRouteResources(), m.totalOveruse());
    return 0;
}
