#include "mapping/ii_search.hh"

#include <algorithm>
#include <map>

#include "arch/arch_context.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"
#include "verify/verify.hh"

namespace lisa::map {

BudgetClass
budgetClassOf(const SearchOptions &options)
{
    if (options.totalBudget <= 2.0)
        return BudgetClass::Fast;
    if (options.totalBudget <= 60.0)
        return BudgetClass::Full;
    return BudgetClass::Custom;
}

const char *
budgetClassName(BudgetClass c)
{
    switch (c) {
    case BudgetClass::Fast:
        return "fast";
    case BudgetClass::Full:
        return "full";
    case BudgetClass::Custom:
        return "custom";
    }
    return "custom";
}

std::string
budgetClassKey(const SearchOptions &options)
{
    const BudgetClass c = budgetClassOf(options);
    if (c != BudgetClass::Custom)
        return budgetClassName(c);
    std::string key = "custom:";
    key += std::to_string(options.perIiBudget);
    key += ':';
    key += std::to_string(options.totalBudget);
    return key;
}

int
resourceMii(const dfg::Dfg &dfg, const arch::Accelerator &accel)
{
    auto ceil_div = [](int a, int b) { return (a + b - 1) / b; };

    int mii = ceil_div(static_cast<int>(dfg.numNodes()), accel.numPes());

    // Per-op-class pressure: ops executable on few PEs (e.g. loads under
    // the left-column memory policy) bound the II independently.
    std::map<dfg::OpCode, int> op_count;
    for (const dfg::Node &n : dfg.nodes())
        ++op_count[n.op];
    for (auto [op, count] : op_count) {
        int capable = static_cast<int>(accel.opCapablePes(op).size());
        if (capable == 0)
            return -1; // unmappable on this accelerator
        mii = std::max(mii, ceil_div(count, capable));
    }

    // Loads and stores share the memory ports, so they form one combined
    // pressure class on memory-capable PEs.
    int mem_ops = static_cast<int>(dfg.numMemoryOps());
    if (mem_ops > 0) {
        int mem_pes = 0;
        for (int pe = 0; pe < accel.numPes(); ++pe) {
            if (accel.supportsOp(pe, dfg::OpCode::Load) ||
                accel.supportsOp(pe, dfg::OpCode::Store)) {
                ++mem_pes;
            }
        }
        if (mem_pes == 0)
            return -1;
        mii = std::max(mii, ceil_div(mem_ops, mem_pes));
    }
    return mii;
}

int
minimumIi(const dfg::Dfg &dfg, const dfg::Analysis &analysis,
          const arch::Accelerator &accel)
{
    int res = resourceMii(dfg, accel);
    if (res < 0)
        return -1;
    return std::max(res, analysis.recMii());
}

SearchResult
searchMinIi(Mapper &mapper, const dfg::Dfg &dfg, arch::ArchContext &context,
            const SearchOptions &options)
{
    const arch::Accelerator &accel = context.accel();
    SearchResult result;
    result.budgetClass = budgetClassOf(options);
    Stopwatch total;
    dfg::Analysis analysis(dfg);
    // Each II attempt gets its own split of the seed, so its stream does
    // not depend on how much entropy earlier II attempts consumed.
    Rng base(options.seed);
    const int threads = std::max(1, options.threads);
    std::atomic<long> attempts{0};

    // Feasibility first: an op no PE executes, or (spatial fabrics, one
    // configuration) more nodes than PEs, leaves mii at 0.
    const bool temporal = accel.temporalMapping();
    const int res_mii = resourceMii(dfg, accel);
    if (res_mii < 0 ||
        (!temporal && dfg.numNodes() > static_cast<size_t>(accel.numPes()))) {
        result.seconds = total.seconds();
        return result;
    }
    // A spatial fabric has one II, 1 (its maxIi()).
    const int mii = temporal ? std::max(res_mii, analysis.recMii()) : 1;
    result.mii = mii;

    // Counts one mrrgFor acquisition into the context counters.
    auto acquire_mrrg = [&](int ii) {
        bool hit = false;
        auto mrrg = context.mrrgFor(ii, &hit);
        if (hit)
            ++result.stats.router.contextHits;
        else
            ++result.stats.router.contextMisses;
        return mrrg;
    };

    for (int ii = mii; ii <= accel.maxIi(); ++ii) {
        // relaxed: advisory cancellation latch, no data published
        // through it (see MapContext::cancelled's contract).
        if (options.stop &&
            options.stop->load(std::memory_order_relaxed)) {
            break;
        }
        // An enclosing portfolio race tightens the sweep's upper bound:
        // once the incumbent dominates (ii, rank) it dominates every
        // higher II too, so the rest of the sweep is abandoned.
        if (options.incumbent &&
            options.incumbent->dominates(ii, options.memberRank)) {
            result.cancelledAtIi = ii;
            ++result.stats.incumbentCancels;
            break;
        }
        // One wall-clock read decides both the cadence check and the
        // attempt budget. Reading the clock twice (check, then budget
        // computation) leaves a window where the budget goes negative
        // when wall-clock crosses totalBudget between the reads — the
        // attempt would then still run its full initial mapping pass
        // before its own first budget check.
        const double remaining = options.totalBudget - total.seconds();
        const double budget = std::min(options.perIiBudget, remaining);
        if (budget <= 0.0)
            break; // no time remains: skip the attempt entirely
        auto mrrg = acquire_mrrg(ii);
        MapContext ctx{dfg,
                       analysis,
                       mrrg,
                       budget,
                       base.split(static_cast<uint64_t>(ii)),
                       threads,
                       options.stop,
                       nullptr,
                       &attempts,
                       &result.stats,
                       &context,
                       options.incumbent,
                       ii,
                       options.memberRank};
        auto mapping = mapper.tryMap(ctx);
        if (mapping) {
            // Final-answer check, unconditional in every build type.
            Stopwatch verify_timer;
            verify::checkOrDie(*mapping, {}, "searchMinIi final");
            result.verifySeconds = verify_timer.seconds();
            result.verified = true;
            result.success = true;
            result.ii = ii;
            result.mapping = std::move(mapping);
            if (options.incumbent)
                options.incumbent->offer(ii, options.memberRank);
            break;
        }
        // A failed attempt that the incumbent dominated mid-run was cut
        // short, not exhausted: attribute it and abandon the sweep.
        if (options.incumbent &&
            options.incumbent->dominates(ii, options.memberRank)) {
            result.cancelledAtIi = ii;
            ++result.stats.incumbentCancels;
            break;
        }
    }
    result.seconds = total.seconds();
    result.attempts = attempts.load();
    return result;
}

} // namespace lisa::map
