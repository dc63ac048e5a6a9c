/**
 * @file
 * End-to-end tests of the functional scale-out runtime: convergence of
 * distributed training for every algorithm family, hierarchy
 * equivalence, and determinism of the aggregation math.
 */
#include <gtest/gtest.h>

#include "dfg/interp.h"
#include "system/cluster_runtime.h"

namespace cosmic::sys {
namespace {

ClusterConfig
smallCluster(int nodes, int groups)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.groups = groups;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 96;
    cfg.learningRate = 0.4;
    return cfg;
}

/** Distributed training must reduce the loss for every algorithm. */
class Convergence : public ::testing::TestWithParam<std::string>
{};

TEST_P(Convergence, LossDecreases)
{
    auto cfg = smallCluster(4, 1);
    if (GetParam() == "mnist")
        cfg.learningRate = 0.2;
    if (GetParam() == "movielens") // CF reconstruction needs small steps
        cfg.learningRate = 0.05;
    ClusterRuntime runtime(ml::Workload::byName(GetParam()), 64.0, cfg);
    auto report = runtime.train(6);

    ASSERT_EQ(report.epochLoss.size(), 7u);
    double initial = report.epochLoss.front();
    double final = report.epochLoss.back();
    EXPECT_LT(final, initial * 0.9)
        << "training did not learn: " << initial << " -> " << final;
    for (double loss : report.epochLoss)
        EXPECT_TRUE(std::isfinite(loss));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, Convergence,
    ::testing::Values("stock", "tumor", "face", "mnist", "movielens"),
    [](const auto &info) { return info.param; });

TEST(ClusterRuntime, HierarchyMatchesFlatAggregation)
{
    // Averaging is associative: 8 nodes in 1 group and in 2 groups must
    // produce (numerically) the same model trajectory.
    auto flat_cfg = smallCluster(8, 1);
    auto hier_cfg = smallCluster(8, 2);
    ClusterRuntime flat(ml::Workload::byName("tumor"), 64.0, flat_cfg);
    ClusterRuntime hier(ml::Workload::byName("tumor"), 64.0, hier_cfg);

    auto flat_report = flat.train(2);
    auto hier_report = hier.train(2);
    ASSERT_EQ(flat_report.finalModel.size(),
              hier_report.finalModel.size());
    for (size_t i = 0; i < flat_report.finalModel.size(); ++i)
        EXPECT_NEAR(flat_report.finalModel[i],
                    hier_report.finalModel[i], 1e-9);
}

TEST(ClusterRuntime, RepeatedRunsAreDeterministic)
{
    auto cfg = smallCluster(4, 1);
    ClusterRuntime a(ml::Workload::byName("face"), 64.0, cfg);
    ClusterRuntime b(ml::Workload::byName("face"), 64.0, cfg);
    auto ra = a.train(2);
    auto rb = b.train(2);
    ASSERT_EQ(ra.finalModel.size(), rb.finalModel.size());
    for (size_t i = 0; i < ra.finalModel.size(); ++i)
        EXPECT_NEAR(ra.finalModel[i], rb.finalModel[i], 1e-9);
}

TEST(ClusterRuntime, TopologyReported)
{
    auto cfg = smallCluster(8, 2);
    ClusterRuntime runtime(ml::Workload::byName("face"), 64.0, cfg);
    auto report = runtime.train(1);
    EXPECT_EQ(report.topology.nodes.size(), 8u);
    EXPECT_EQ(report.topology.groups, 2);
    EXPECT_EQ(report.iterations, 3); // ceil(96/32) per epoch
    ASSERT_EQ(report.iterationSeconds.size(), 3u);
    ASSERT_EQ(report.iterationStats.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        const IterationStats &it = report.iterationStats[i];
        EXPECT_GT(report.iterationSeconds[i], 0.0);
        EXPECT_GT(it.maxComputeSec, 0.0);
        EXPECT_LE(it.maxComputeSec,
                  report.iterationSeconds[i] * 1.5 + 0.01);
        // Every node trains one minibatch per round.
        EXPECT_EQ(it.records, cfg.nodes * cfg.minibatchPerNode);
        EXPECT_GE(it.sumComputeSec, it.maxComputeSec);
        EXPECT_GE(it.maxAggregationSec, 0.0);
        EXPECT_GE(it.sumAggregationSec, it.maxAggregationSec);
    }
}

TEST(ClusterRuntime, SingleNodeDegenerateCluster)
{
    auto cfg = smallCluster(1, 1);
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    auto report = runtime.train(3);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

TEST(ClusterRuntime, BatchedGradientModeConverges)
{
    // The other parallel-SGD family (Sec. 2.2): aggregate raw
    // gradients at the frozen model, one step per round.
    auto cfg = smallCluster(4, 1);
    cfg.mode = TrainingMode::BatchedGradient;
    cfg.learningRate = 4.0; // batch-averaged gradients take big steps
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    auto report = runtime.train(12);
    EXPECT_LT(report.epochLoss.back(),
              report.epochLoss.front() * 0.5);
}

TEST(ClusterRuntime, BatchedGradientMatchesManualMinibatchStep)
{
    // One node, one iteration of batched GD must equal the hand-rolled
    // mini-batch gradient step.
    const auto &w = ml::Workload::byName("tumor");
    auto cfg = smallCluster(1, 1);
    cfg.mode = TrainingMode::BatchedGradient;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 16;
    ClusterRuntime runtime(w, 64.0, cfg);

    // Rebuild the node's partition from the same seed.
    Rng rng(cfg.seed);
    auto full = ml::DatasetGenerator::generate(
        w, 64.0, cfg.recordsPerNode + 96, rng);

    Rng model_rng(cfg.seed + 1);
    auto model = ml::DatasetGenerator::initialModel(w, 64.0, model_rng);
    auto stepped = runtime.runIteration(model, 0);

    auto tr = runtime.translation();
    dfg::Interpreter interp(runtime.translation());
    std::vector<double> grad_sum(runtime.translation().gradientWords,
                                 0.0);
    std::vector<double> grad;
    for (int64_t r = 0; r < cfg.minibatchPerNode; ++r) {
        interp.run(full.record(r), model, grad);
        for (size_t i = 0; i < grad_sum.size(); ++i)
            grad_sum[i] += grad[i];
    }
    for (size_t i = 0; i < model.size(); ++i) {
        double expect = model[i] - cfg.learningRate * grad_sum[i] /
                                       cfg.minibatchPerNode;
        ASSERT_NEAR(stepped[i], expect, 1e-9) << "element " << i;
    }
}

/**
 * The pooled message path: payload traffic grows with the iteration
 * count, pool allocations must not. Every partial update, aggregated
 * sum and broadcast copy recirculates through the shared BufferPool,
 * so total allocations stay bounded by the peak number of buffers in
 * flight at once — independent of how long training runs.
 */
TEST(ClusterRuntime, SteadyStateIterationsDoNotGrowAllocations)
{
    for (TrainingMode mode : {TrainingMode::ModelAveraging,
                              TrainingMode::BatchedGradient}) {
        auto cfg = smallCluster(4, 1);
        cfg.mode = mode;
        ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0,
                               cfg);
        auto report = runtime.train(4); // 12 iterations
        const BufferPool &pool = runtime.bufferPool();
        // Peak in-flight buffers per iteration: one update per node,
        // the engine's round buffer, the broadcast copies and the new
        // model — about 3 per node. 4x is a generous scheduling bound;
        // per-message allocation would blow past it within a few
        // iterations.
        EXPECT_LE(pool.allocations(),
                  static_cast<uint64_t>(4 * cfg.nodes + 8))
            << "mode " << static_cast<int>(mode);
        EXPECT_GT(pool.acquires(), 4 * pool.allocations())
            << "mode " << static_cast<int>(mode);
    }
}

TEST(ClusterRuntime, MoreNodesSameDirectionOfLearning)
{
    auto cfg4 = smallCluster(4, 1);
    auto cfg8 = smallCluster(8, 2);
    ClusterRuntime r4(ml::Workload::byName("cancer1"), 64.0, cfg4);
    ClusterRuntime r8(ml::Workload::byName("cancer1"), 64.0, cfg8);
    auto rep4 = r4.train(3);
    auto rep8 = r8.train(3);
    EXPECT_LT(rep4.epochLoss.back(), rep4.epochLoss.front());
    EXPECT_LT(rep8.epochLoss.back(), rep8.epochLoss.front());
}

} // namespace
} // namespace cosmic::sys
