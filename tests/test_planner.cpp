/**
 * @file
 * Planner tests: the t_max bound, design-space enumeration, chosen-point
 * validity, buffer sizing, resource-utilization reporting, and
 * agreement with a point-by-point exploration through the public API.
 */
#include <gtest/gtest.h>

#include "accel/buffer_opt.h"
#include "accel/perf.h"
#include "compiler/pipeline.h"
#include "dfg/analysis.h"
#include "kernel_compare.h"
#include "ml/workloads.h"
#include "planner/planner.h"

namespace cosmic::planner {
namespace {

dfg::Translation
translateWorkload(const std::string &name, double scale)
{
    const auto &w = ml::Workload::byName(name);
    return compile::translateSource(w.dslSource(scale));
}

TEST(Planner, MaxThreadsBoundedByStorage)
{
    // A model so large that only a couple of copies fit in BRAM.
    auto tr = translateWorkload("mnist", 1.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    int64_t t_max = Planner::maxThreads(tr, platform);
    int64_t storage_bytes =
        4 * dfg::storageWords(tr.dfg, tr.recordWords, tr.modelWords);
    EXPECT_EQ(t_max, platform.bramBytes / storage_bytes);
    EXPECT_LE(t_max, 4);
    EXPECT_GE(t_max, 1);
}

TEST(Planner, MaxThreadsBoundedByRows)
{
    // A tiny model: storage allows far more threads than rows exist.
    auto tr = translateWorkload("tumor", 64.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    EXPECT_EQ(Planner::maxThreads(tr, platform), platform.maxRows);
}

TEST(Planner, MaxThreadsBoundedByMinibatch)
{
    auto tr = compile::translateSource(R"(
        model_input x[4];
        model w[4];
        gradient g[4];
        iterator i[0:4];
        g[i] = w[i] * x[i];
        minibatch 3;
    )");
    EXPECT_EQ(Planner::maxThreads(
                  tr, accel::PlatformSpec::ultrascalePlus()),
              3);
}

TEST(Planner, DesignPointEnumeration)
{
    auto platform = accel::PlatformSpec::ultrascalePlus();
    auto points = Planner::enumerateDesignPoints(platform, 48);
    EXPECT_FALSE(points.empty());
    for (auto [threads, rows] : points) {
        EXPECT_GE(threads, 1);
        EXPECT_GE(rows, 1);
        EXPECT_LE(threads * rows, platform.maxRows);
        EXPECT_EQ(platform.maxRows % rows, 0)
            << "rows must divide the fabric";
        // Threads are powers of two.
        EXPECT_EQ(threads & (threads - 1), 0);
    }
    // The paper reports a pruned space of a few dozen points on VU9P.
    EXPECT_LE(points.size(), 40u);
    EXPECT_GE(points.size(), 20u);
}

TEST(Planner, TmaxLimitsEnumeration)
{
    auto platform = accel::PlatformSpec::ultrascalePlus();
    auto points = Planner::enumerateDesignPoints(platform, 2);
    for (auto [threads, rows] : points)
        EXPECT_LE(threads, 2);
}

TEST(Planner, ChosenPlanIsValidAndCompiled)
{
    auto tr = translateWorkload("face", 16.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    PlanResult result = Planner::plan(tr, platform);

    EXPECT_GE(result.plan.threads, 1);
    EXPECT_LE(result.plan.threads, result.maxThreadsBound);
    EXPECT_LE(result.plan.totalRows(), platform.maxRows);
    EXPECT_EQ(result.plan.columns, platform.columns);
    EXPECT_FALSE(result.explored.empty());
    ASSERT_LT(result.chosenIndex, result.explored.size());

    const auto &chosen = result.explored[result.chosenIndex];
    EXPECT_EQ(chosen.threads, result.plan.threads);
    EXPECT_EQ(chosen.rowsPerThread, result.plan.rowsPerThread);

    // No explored point beats the chosen one by more than the 0.5%
    // tie-break tolerance.
    for (const auto &p : result.explored)
        EXPECT_LE(p.recordsPerSecond,
                  chosen.recordsPerSecond * 1.0051);

    // The kernel matches the chosen row count.
    EXPECT_EQ(static_cast<int>(result.kernel.mapping.rowsPerThread),
              result.plan.rowsPerThread);
}

TEST(Planner, BufferSizingCoversFootprint)
{
    auto tr = translateWorkload("cancer1", 16.0);
    auto plan = Planner::makePlan(
        tr, accel::PlatformSpec::ultrascalePlus(), 2, 8);
    int64_t pes = plan.pesPerThread();
    EXPECT_GE(plan.dataBufWordsPerPe * pes, 2 * tr.recordWords);
    EXPECT_GE(plan.modelBufWordsPerPe * pes, tr.modelWords);
    EXPECT_GE(plan.interimBufWordsPerPe * pes,
              dfg::maxLiveInterim(tr.dfg));
}

TEST(Planner, ResourceUsageWithinChip)
{
    auto tr = translateWorkload("stock", 4.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    PlanResult result = Planner::plan(tr, platform);
    auto usage = result.plan.resourceUsage();
    EXPECT_LE(usage.dspUtil, 1.0);
    EXPECT_LE(usage.lutUtil, 1.0);
    EXPECT_LE(usage.ffUtil, 1.0);
    EXPECT_LE(usage.bramUtil, 1.0001);
    EXPECT_GT(usage.dspSlices, 0);
    // Prefetch fills BRAM: utilization is high by design (Table 3).
    EXPECT_GT(usage.bramUtil, 0.5);
}

TEST(Planner, MemoryBoundWorkloadsPreferManyThreads)
{
    // Linear models are bandwidth-bound: the planner should pick more
    // than one thread to saturate the memory interface.
    auto tr = translateWorkload("stock", 1.0);
    PlanResult result =
        Planner::plan(tr, accel::PlatformSpec::ultrascalePlus());
    EXPECT_GE(result.plan.threads, 4);
    EXPECT_TRUE(result.explored[result.chosenIndex].memoryBound);
}

TEST(Planner, ComputeBoundWorkloadsFillTheFabric)
{
    auto tr = translateWorkload("mnist", 8.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    PlanResult result = Planner::plan(tr, platform);
    // Compute-bound: every PE row adds throughput, so the chosen
    // design uses the whole fabric.
    EXPECT_EQ(result.plan.totalRows(), platform.maxRows);
}

TEST(Planner, PasicPlansDiffer)
{
    auto tr = translateWorkload("face", 8.0);
    PlanResult fpga =
        Planner::plan(tr, accel::PlatformSpec::ultrascalePlus());
    PlanResult pasic_g =
        Planner::plan(tr, accel::PlatformSpec::pasicG());
    EXPECT_EQ(pasic_g.plan.columns, 60);
    EXPECT_GT(pasic_g.explored[pasic_g.chosenIndex].recordsPerSecond,
              fpga.explored[fpga.chosenIndex].recordsPerSecond);
}

/**
 * Planner::plan redone without any sharing: every design point gets
 * its own makePlan, KernelCompiler::compile and (elastic)
 * BufferOptimizer::optimize, and the same "smallest best-performing"
 * rule picks the winner.
 */
PlanResult
referencePlan(const dfg::Translation &tr,
              const accel::PlatformSpec &platform,
              const compiler::CompileOptions &options)
{
    PlanResult result;
    result.maxThreadsBound = Planner::maxThreads(tr, platform);
    double best_throughput = -1.0;
    int64_t best_pes = 0;
    auto consider = [&](const DesignPoint &point,
                        const accel::AcceleratorPlan &plan) {
        result.explored.push_back(point);
        double throughput = point.recordsPerSecond;
        int64_t pes = plan.totalPes();
        if (throughput > best_throughput * 1.005 ||
            (throughput > best_throughput * 0.995 && best_pes > 0 &&
             pes < best_pes)) {
            best_throughput = std::max(throughput, best_throughput);
            best_pes = pes;
            result.plan = plan;
            result.chosenIndex = result.explored.size() - 1;
        }
    };
    for (const auto &[threads, rows] : Planner::enumerateDesignPoints(
             platform, result.maxThreadsBound)) {
        auto plan = Planner::makePlan(tr, platform, threads, rows);
        auto kernel = compiler::KernelCompiler::compile(tr, plan, options);
        accel::PerfEstimator perf(tr, kernel, plan);
        DesignPoint point;
        point.threads = threads;
        point.rowsPerThread = rows;
        point.cyclesPerRecord = perf.cyclesPerRecordPerThread();
        point.recordsPerSecond =
            tr.minibatch / perf.batchTime(tr.minibatch).totalSec();
        point.memoryBound = perf.memoryBound();
        consider(point, plan);
        if (!options.elasticMode)
            continue;

        auto placement = accel::BufferOptimizer::optimize(
            tr, kernel, plan, 6, options.elasticBufferBudgetBytes);
        accel::PerfParams eparams = perf.params();
        eparams.computeCyclesPerRecord = placement.cyclesPerRecord;
        accel::PerfEstimator eperf(eparams);
        DesignPoint epoint;
        epoint.threads = threads;
        epoint.rowsPerThread = rows;
        epoint.elastic = true;
        epoint.bufferBytes = placement.bufferBytesPerThread;
        epoint.cyclesPerRecord = eperf.cyclesPerRecordPerThread();
        epoint.recordsPerSecond =
            tr.minibatch / eperf.batchTime(tr.minibatch).totalSec();
        epoint.memoryBound = eperf.memoryBound();
        if (placement.withinBudget)
            consider(epoint, plan);
        else
            result.explored.push_back(epoint);
    }
    result.kernel =
        compiler::KernelCompiler::compile(tr, result.plan, options);
    return result;
}

class PlannerEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(PlannerEquivalence, SharedAnalysesMatchPointByPointExploration)
{
    auto [name, elastic] = GetParam();
    auto tr = translateWorkload(name, 16.0);
    // Pruning only applies above a million nodes; the reference does
    // not prune.
    ASSERT_LE(tr.dfg.size(), 1000000);
    const auto platform = accel::PlatformSpec::ultrascalePlus();
    compiler::CompileOptions options;
    options.elasticMode = elastic;

    PlanResult got = Planner::plan(tr, platform, options);
    PlanResult want = referencePlan(tr, platform, options);

    EXPECT_EQ(got.maxThreadsBound, want.maxThreadsBound);
    ASSERT_EQ(got.explored.size(), want.explored.size());
    for (size_t i = 0; i < got.explored.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const auto &g = got.explored[i];
        const auto &w = want.explored[i];
        EXPECT_EQ(g.threads, w.threads);
        EXPECT_EQ(g.rowsPerThread, w.rowsPerThread);
        EXPECT_EQ(g.cyclesPerRecord, w.cyclesPerRecord);
        EXPECT_EQ(g.recordsPerSecond, w.recordsPerSecond);
        EXPECT_EQ(g.memoryBound, w.memoryBound);
        EXPECT_EQ(g.elastic, w.elastic);
        EXPECT_EQ(g.bufferBytes, w.bufferBytes);
    }
    EXPECT_EQ(got.chosenIndex, want.chosenIndex);
    compiler::expectSamePlan(got.plan, want.plan);
    compiler::expectSameKernel(got.kernel, want.kernel);
    EXPECT_EQ(static_cast<int>(got.kernel.memory.threadTable.size()),
              got.plan.threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, PlannerEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn([] {
            std::vector<std::string> names;
            for (const auto &w : ml::Workload::suite())
                names.push_back(w.name);
            return names;
        }()),
        ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_elastic" : "_static");
    });

} // namespace
} // namespace cosmic::planner
