/**
 * @file
 * Prediction-quality tests: distributed training must yield models
 * that classify/regress well, and the runtime must tolerate injected
 * stragglers without changing results (synchronous protocol).
 */
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "ml/predictor.h"
#include "system/cluster_runtime.h"

namespace cosmic {
namespace {

sys::ClusterConfig
trainingCluster()
{
    sys::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.groups = 1;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 128;
    cfg.learningRate = 0.5;
    return cfg;
}

TEST(Predictor, DistributedTrainingYieldsAccurateSvm)
{
    const auto &w = ml::Workload::byName("face");
    auto cfg = trainingCluster();
    sys::ClusterRuntime runtime(w, 64.0, cfg);
    auto report = runtime.train(10);

    // Rebuild the runtime's data stream (same seed => same hidden
    // teacher) and score the trained model on the held-out tail.
    Rng rng(cfg.seed);
    auto full = ml::DatasetGenerator::generate(
        w, 64.0, cfg.nodes * cfg.recordsPerNode + 128, rng);
    auto heldout = full.partition(cfg.nodes * cfg.recordsPerNode, 128);

    ml::Predictor predictor(w, 64.0);
    auto metrics = predictor.evaluate(heldout, report.finalModel);
    EXPECT_TRUE(metrics.isClassifier);
    EXPECT_GT(metrics.accuracy, 0.85)
        << "distributed SVM failed to separate the classes";
}

TEST(Predictor, TrainingImprovesAccuracyOnHeldOutData)
{
    // Train and test on the *same* hidden teacher by generating one
    // dataset and splitting it manually. 1,000 test records keep the
    // accuracy estimate's standard error near 0.011, well inside the
    // margin between the model's accuracy and the bar.
    const auto &w = ml::Workload::byName("tumor");
    const double scale = 64.0;
    Rng rng(22);
    auto full = ml::DatasetGenerator::generate(w, scale, 1500, rng);
    auto train = full.partition(0, 500);
    auto test = full.partition(500, 1000);

    auto tr = compile::translateSource(w.dslSource(scale));
    dfg::Interpreter interp(tr);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    ml::Predictor predictor(w, scale);
    double before = predictor.evaluate(test, model).accuracy;

    std::vector<double> grad;
    for (int epoch = 0; epoch < 8; ++epoch) {
        for (int64_t r = 0; r < train.count; ++r) {
            interp.run(train.record(r), model, grad);
            for (size_t i = 0; i < model.size(); ++i)
                model[i] -= 0.8 * grad[i];
        }
    }
    double after = predictor.evaluate(test, model).accuracy;
    EXPECT_GT(after, 0.8);
    EXPECT_GT(after, before);
}

TEST(Predictor, RegressionRmseDrops)
{
    const auto &w = ml::Workload::byName("stock");
    const double scale = 64.0;
    Rng rng(23);
    auto full = ml::DatasetGenerator::generate(w, scale, 300, rng);
    auto train = full.partition(0, 256);
    auto test = full.partition(256, 44);

    auto tr = compile::translateSource(w.dslSource(scale));
    dfg::Interpreter interp(tr);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    ml::Predictor predictor(w, scale);
    double before = predictor.evaluate(test, model).rmse;
    std::vector<double> grad;
    for (int epoch = 0; epoch < 6; ++epoch)
        for (int64_t r = 0; r < train.count; ++r) {
            interp.run(train.record(r), model, grad);
            for (size_t i = 0; i < model.size(); ++i)
                model[i] -= 0.4 * grad[i];
        }
    double after = predictor.evaluate(test, model).rmse;
    EXPECT_LT(after, before * 0.5);
}

TEST(ClusterRuntime, StragglersDoNotChangeResults)
{
    // Failure injection: with synchronous hierarchical aggregation,
    // per-node delays must not affect the trained model. Every node
    // stalls a different amount in every iteration, each well under
    // the tolerant protocol's receive timeout, so nothing is missed.
    const auto &w = ml::Workload::byName("cancer1");
    auto clean_cfg = trainingCluster();
    auto slow_cfg = trainingCluster();
    const auto delay_ms = [](int node) { return 2.0 + 3.0 * node; };
    for (int node = 0; node < slow_cfg.nodes; ++node)
        slow_cfg.faultPlan.straggle(node, 0, 1000, delay_ms(node));
    ASSERT_LT(10.0 * delay_ms(slow_cfg.nodes - 1),
              slow_cfg.faultTolerance.receiveTimeoutMs);

    sys::ClusterRuntime clean(w, 64.0, clean_cfg);
    sys::ClusterRuntime slow(w, 64.0, slow_cfg);
    auto clean_report = clean.train(2);
    auto slow_report = slow.train(2);

    EXPECT_GT(slow_report.recovery.stragglerStalls, 0u);
    EXPECT_EQ(slow_report.recovery.partialsMissed, 0u);
    EXPECT_EQ(slow_report.recovery.nodesEvicted, 0u);
    ASSERT_EQ(clean_report.finalModel.size(),
              slow_report.finalModel.size());
    for (size_t i = 0; i < clean_report.finalModel.size(); ++i)
        EXPECT_NEAR(clean_report.finalModel[i],
                    slow_report.finalModel[i], 1e-9);
}

} // namespace
} // namespace cosmic
