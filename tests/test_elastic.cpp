/**
 * @file
 * Elastic-execution tests: dataflow firing must produce bit-identical
 * gradients to the static CycleSimulator and the golden interpreter
 * (firing order never changes a pure node function) in both exact-
 * double and Q16.16 modes, deadlocks must surface as structured
 * violations rather than hangs, the buffer optimizer's peak placement
 * must reproduce unbounded throughput, and the planner must fold
 * elastic points into its design-space exploration.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "accel/buffer_opt.h"
#include "accel/elastic.h"
#include "accel/fixed_point.h"
#include "accel/simulator.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "ml/dataset.h"
#include "ml/workloads.h"
#include "planner/planner.h"

namespace cosmic::accel {
namespace {

constexpr double kScale = 64.0;

struct Compiled
{
    dfg::Translation tr;
    AcceleratorPlan plan;
    compiler::CompiledKernel kernel;
};

Compiled
compileWorkload(const std::string &name, int threads, int rows)
{
    Compiled c{compile::translateSource(
                   ml::Workload::byName(name).dslSource(kScale)),
               {},
               {}};
    c.plan = planner::Planner::makePlan(
        c.tr, PlatformSpec::ultrascalePlus(), threads, rows);
    c.kernel = compiler::KernelCompiler::compile(c.tr, c.plan);
    return c;
}

/** All ten Table 1 workloads, in exact-double and Q16.16 modes. */
class ElasticBitExact
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(ElasticBitExact, MatchesStaticAndInterpreter)
{
    auto [name, quantized] = GetParam();
    const Numeric numeric = quantized ? Numeric::Q16 : Numeric::F64;
    auto c = compileWorkload(name, 2, 8);

    // The optimizer's placement is deadlock-free by construction
    // (uniform default capacities can deadlock on reconvergent fanout —
    // netflix does at this scale — which is exactly why buffer
    // placement exists). Timing is value-independent, so the placement
    // transfers between exact and quantized runs.
    auto placement =
        BufferOptimizer::optimize(c.tr, c.kernel, c.plan);
    CycleSimulator static_sim(c.tr, c.kernel, numeric);
    ElasticSimulator elastic(c.tr, c.kernel, placement.config, numeric);
    dfg::Interpreter interp(c.tr, numeric);

    Rng rng(41);
    const auto &w = ml::Workload::byName(name);
    auto ds = ml::DatasetGenerator::generate(w, kScale, 3, rng);
    auto model = ml::DatasetGenerator::initialModel(w, kScale, rng);

    std::vector<double> golden;
    for (int64_t r = 0; r < ds.count; ++r) {
        auto st = static_sim.run(ds.record(r), model);
        ASSERT_TRUE(st.ok) << st.violation;
        auto el = elastic.run(ds.record(r), model);
        ASSERT_TRUE(el.ok) << el.violation;
        interp.run(ds.record(r), model, golden);
        ASSERT_EQ(el.gradient.size(), golden.size());
        for (size_t i = 0; i < golden.size(); ++i) {
            ASSERT_EQ(el.gradient[i], golden[i])
                << "elastic vs interpreter, element " << i
                << " of record " << r;
            ASSERT_EQ(el.gradient[i], st.gradient[i])
                << "elastic vs static, element " << i << " of record "
                << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1Suite, ElasticBitExact,
    ::testing::Combine(
        ::testing::Values("mnist", "acoustic", "stock", "texture",
                          "tumor", "cancer1", "movielens", "netflix",
                          "face", "cancer2"),
        ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_Q16" : "_F64");
    });

TEST(ElasticSimulator, BatchGradientsMatchPerRecordRuns)
{
    auto c = compileWorkload("stock", 1, 8);
    ElasticSimulator elastic(c.tr, c.kernel);

    Rng rng(42);
    const auto &w = ml::Workload::byName("stock");
    auto ds = ml::DatasetGenerator::generate(w, kScale, 5, rng);
    auto model = ml::DatasetGenerator::initialModel(w, kScale, rng);

    auto batch = elastic.runBatch(
        std::span<const double>(ds.data.data(), ds.data.size()),
        ds.count, model);
    ASSERT_TRUE(batch.ok) << batch.violation;
    ASSERT_EQ(static_cast<int64_t>(batch.gradients.size()), ds.count);
    EXPECT_EQ(batch.stats.fires, c.kernel.opCount * ds.count);
    EXPECT_GT(batch.stats.utilization, 0.0);

    for (int64_t r = 0; r < ds.count; ++r) {
        auto single = elastic.run(ds.record(r), model);
        ASSERT_TRUE(single.ok) << single.violation;
        ASSERT_EQ(batch.gradients[r].size(), single.gradient.size());
        for (size_t i = 0; i < single.gradient.size(); ++i)
            ASSERT_EQ(batch.gradients[r][i], single.gradient[i])
                << "record " << r << " element " << i;
    }
}

TEST(ElasticSimulator, ZeroCapacityFifoDeadlocksStructurally)
{
    auto c = compileWorkload("stock", 1, 8);
    ElasticConfig config;
    config.defaultCapacity = 0;
    ElasticSimulator elastic(c.tr, c.kernel, config);
    ASSERT_GT(elastic.linkCount(), 0)
        << "workload must have cross-PE traffic for this test";

    Rng rng(43);
    const auto &w = ml::Workload::byName("stock");
    auto ds = ml::DatasetGenerator::generate(w, kScale, 1, rng);
    auto model = ml::DatasetGenerator::initialModel(w, kScale, rng);

    auto result = elastic.run(ds.record(0), model);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.violation.find("deadlock"), std::string::npos)
        << result.violation;
    EXPECT_NE(result.violation.find("FIFO capacity 0"),
              std::string::npos)
        << result.violation;
}

TEST(ElasticSimulator, CapacityOverridesOnUnusedLinksAreIgnored)
{
    auto c = compileWorkload("tumor", 1, 8);
    // Everything on PE 0: no operand crosses a PE, so the kernel has no
    // link for the override to name.
    std::fill(c.kernel.mapping.peOf.begin(), c.kernel.mapping.peOf.end(),
              0);
    ElasticConfig config;
    config.linkCapacity = {{1, 0}, {int64_t{7} * 128 + 3, 0}};
    ElasticSimulator local(c.tr, c.kernel, config);
    EXPECT_EQ(local.linkCount(), 0);

    Rng rng(45);
    const auto &w = ml::Workload::byName("tumor");
    auto ds = ml::DatasetGenerator::generate(w, kScale, 1, rng);
    auto model = ml::DatasetGenerator::initialModel(w, kScale, rng);
    auto result = local.run(ds.record(0), model);
    ASSERT_TRUE(result.ok) << result.violation;
    EXPECT_EQ(result.messages, 0);
}

TEST(ElasticSimulator, BackpressureShapesTimingNotValues)
{
    auto c = compileWorkload("tumor", 1, 8);

    ElasticConfig tight;
    tight.defaultCapacity = 1;
    ElasticSimulator constrained(c.tr, c.kernel, tight);
    ElasticConfig roomy;
    roomy.defaultCapacity = 1 << 20;
    ElasticSimulator unbounded(c.tr, c.kernel, roomy);

    Rng rng(44);
    const auto &w = ml::Workload::byName("tumor");
    auto ds = ml::DatasetGenerator::generate(w, kScale, 4, rng);
    auto model = ml::DatasetGenerator::initialModel(w, kScale, rng);
    std::span<const double> records(ds.data.data(), ds.data.size());

    auto slow = constrained.runBatch(records, ds.count, model);
    auto fast = unbounded.runBatch(records, ds.count, model);
    ASSERT_TRUE(slow.ok) << slow.violation;
    ASSERT_TRUE(fast.ok) << fast.violation;
    // A single-credit FIFO can only serialize, never corrupt.
    EXPECT_GE(slow.stats.cycles, fast.stats.cycles);
    ASSERT_EQ(slow.gradients.size(), fast.gradients.size());
    for (size_t r = 0; r < fast.gradients.size(); ++r)
        for (size_t i = 0; i < fast.gradients[r].size(); ++i)
            ASSERT_EQ(slow.gradients[r][i], fast.gradients[r][i]);
    for (const auto &link : fast.stats.links)
        EXPECT_LE(link.peakOccupancy, 1 << 20);
    for (const auto &link : slow.stats.links)
        EXPECT_LE(link.peakOccupancy, 1);
}

TEST(BufferOptimizer, PeakPlacementReproducesUnboundedThroughput)
{
    auto c = compileWorkload("texture", 2, 8);
    auto probed = BufferOptimizer::probe(c.tr, c.kernel,
                                         dfg::analyze(c.tr.dfg), c.plan);
    ASSERT_GT(probed.links.size(), 0u);
    EXPECT_GT(probed.bufferBytesPerThread, 0);

    // Re-run with the peak capacities: every injection the unbounded
    // probe performed still finds a free slot, so timing is identical.
    ElasticSimulator capped(c.tr, c.kernel, probed.config);
    std::vector<double> records(
        static_cast<size_t>(probed.probeRecords) * c.tr.recordWords,
        0.0);
    std::vector<double> model(
        static_cast<size_t>(std::max<int64_t>(c.tr.modelWords, 1)),
        0.0);
    auto rerun = capped.runBatch(records, probed.probeRecords, model);
    ASSERT_TRUE(rerun.ok) << rerun.violation;
    const int64_t cycles_per_record =
        (rerun.stats.cycles + probed.probeRecords - 1) /
        probed.probeRecords;
    EXPECT_EQ(cycles_per_record, probed.cyclesPerRecord);
    for (const auto &link : rerun.stats.links)
        EXPECT_LE(link.peakOccupancy, link.capacity);
}

TEST(BufferOptimizer, FitRespectsBudget)
{
    auto c = compileWorkload("texture", 2, 8);
    const dfg::DfgAnalysis analysis = dfg::analyze(c.tr.dfg);
    auto probed = BufferOptimizer::probe(c.tr, c.kernel, analysis, c.plan);

    // A generous budget keeps the peak placement untouched.
    auto roomy = BufferOptimizer::fit(c.tr, c.kernel, analysis, probed,
                                      probed.bufferBytesPerThread);
    EXPECT_TRUE(roomy.withinBudget);
    EXPECT_EQ(roomy.bufferBytesPerThread, probed.bufferBytesPerThread);

    // A tight budget forces shrinking (or an honest over-budget flag).
    auto tight = BufferOptimizer::fit(c.tr, c.kernel, analysis, probed,
                                      probed.bufferBytesPerThread / 2);
    if (tight.withinBudget) {
        EXPECT_LE(tight.bufferBytesPerThread,
                  probed.bufferBytesPerThread / 2);
        // Shrinking trades BRAM for cycles, never correctness.
        EXPECT_GE(tight.cyclesPerRecord, probed.cyclesPerRecord);
    } else {
        EXPECT_EQ(tight.bufferBytesPerThread,
                  probed.bufferBytesPerThread);
    }

    EXPECT_GT(BufferOptimizer::budgetPerThread(c.plan), 0);
    EXPECT_EQ(BufferOptimizer::budgetPerThread(c.plan, 12345), 12345);
}

TEST(PlannerElastic, DseExploresElasticPoints)
{
    auto tr = compile::translateSource(
        ml::Workload::byName("stock").dslSource(kScale));
    compiler::CompileOptions options;
    options.elasticMode = true;
    auto result = planner::Planner::plan(
        tr, PlatformSpec::ultrascalePlus(), options);

    size_t elastic_points = 0;
    for (const auto &p : result.explored)
        if (p.elastic) {
            ++elastic_points;
            EXPECT_GT(p.bufferBytes, 0);
            EXPECT_GT(p.recordsPerSecond, 0.0);
        }
    EXPECT_GT(elastic_points, 0u);
    // Static and elastic variants of each feasible point share the
    // grid, so elastic exploration enlarges the explored set.
    EXPECT_GT(result.explored.size(), elastic_points);
    if (result.explored[result.chosenIndex].elastic) {
        ASSERT_TRUE(result.elasticPlacement.has_value());
        EXPECT_TRUE(result.elasticPlacement->withinBudget);
    }
}

} // namespace
} // namespace cosmic::accel
