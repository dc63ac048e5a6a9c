/**
 * @file
 * The synthesis contract: a record depends only on (workload, scale,
 * key, global index), so ranged calls, cluster partitions and the
 * holdout are bit-equal slices of one full generate() call, and the
 * ziggurat sampler under it draws a standard normal.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "system/cluster_runtime.h"

namespace cosmic {
namespace {

/** Bitwise equality: no tolerance, and -0.0 differs from 0.0. */
bool
sameBits(std::span<const double> a, std::span<const double> b)
{
    // An empty span's data() may be null, which memcmp must not get.
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** One workload per algorithm. */
std::vector<const ml::Workload *>
onePerAlgorithm()
{
    std::vector<const ml::Workload *> picked;
    for (const auto &w : ml::Workload::suite()) {
        bool seen = false;
        for (const auto *p : picked)
            seen = seen || p->algorithm == w.algorithm;
        if (!seen)
            picked.push_back(&w);
    }
    return picked;
}

TEST(SynthesisContract, RangedCallsEqualSlicesOfOneCall)
{
    // The runtime's layout: three node partitions of 10 records, then
    // a 7-record holdout.
    constexpr int64_t kPerNode = 10;
    constexpr int64_t kTotal = 3 * kPerNode + 7;
    const std::vector<std::pair<int64_t, int64_t>> ranges = {
        {0, kPerNode},         {kPerNode, kPerNode},
        {2 * kPerNode, kPerNode}, {3 * kPerNode, 7}, // nodes, holdout
        {3, 4},                {15, 10}, // inside a node, across nodes
        {28, 5},               {36, 1},  // across the holdout boundary
        {5, 0},                {0, kTotal},
    };
    const auto picked = onePerAlgorithm();
    ASSERT_EQ(picked.size(), 5u);
    for (const auto *w : picked) {
        Rng rng(11);
        const ml::Dataset full =
            ml::DatasetGenerator::generate(*w, 64.0, kTotal, rng);
        Rng key_rng(11);
        const ml::Teacher teacher(*w, 64.0,
                                  ml::DatasetGenerator::drawKey(key_rng));
        for (auto [first, count] : ranges) {
            const ml::Dataset part = teacher.records(first, count);
            EXPECT_EQ(part.count, count);
            EXPECT_EQ(part.recordWords, full.recordWords);
            EXPECT_TRUE(sameBits(part.data, full.slice(first, count)))
                << w->name << " records [" << first << ", +" << count
                << ")";
        }
    }
}

/** Both fabrics: in-process channels and TCP loopback. */
class RuntimeSynthesis
    : public ::testing::TestWithParam<net::TransportKind>
{
  protected:
    sys::ClusterConfig
    config(uint64_t seed) const
    {
        sys::ClusterConfig cfg;
        cfg.nodes = 3;
        cfg.groups = 1;
        cfg.acceleratorThreadsPerNode = 1;
        cfg.recordsPerNode = 40;
        cfg.minibatchPerNode = 20;
        cfg.seed = seed;
        cfg.transport.kind = GetParam();
        return cfg;
    }
};

TEST_P(RuntimeSynthesis, PartitionsAndHoldoutAreSlicesOfOneCall)
{
    const auto &w = ml::Workload::byName("tumor");
    const sys::ClusterConfig cfg = config(5);
    sys::ClusterRuntime runtime(w, 64.0, cfg);

    // perfbench's regenerate(): one call, sliced.
    const int64_t train = cfg.nodes * cfg.recordsPerNode;
    const int64_t holdout = std::min<int64_t>(128, cfg.recordsPerNode);
    Rng rng(cfg.seed);
    const ml::Dataset full =
        ml::DatasetGenerator::generate(w, 64.0, train + holdout, rng);
    for (int i = 0; i < cfg.nodes; ++i)
        EXPECT_TRUE(sameBits(runtime.node(i).partition().data,
                             full.slice(i * cfg.recordsPerNode,
                                        cfg.recordsPerNode)))
            << "node " << i;

    Rng model_rng(cfg.seed + 1);
    const std::vector<double> model =
        ml::DatasetGenerator::initialModel(w, 64.0, model_rng);
    const ml::Dataset held = full.partition(train, holdout);
    const sys::TrainingReport report = runtime.train(1);
    ASSERT_FALSE(report.epochLoss.empty());
    EXPECT_EQ(ml::Reference(w, 64.0).meanLoss(held.data, held.count,
                                              model),
              report.epochLoss.front());
}

TEST_P(RuntimeSynthesis, SeedSelectsTheData)
{
    const auto &w = ml::Workload::byName("stock");
    sys::ClusterRuntime a(w, 64.0, config(7));
    sys::ClusterRuntime b(w, 64.0, config(7));
    sys::ClusterRuntime c(w, 64.0, config(8));
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(sameBits(a.node(i).partition().data,
                             b.node(i).partition().data))
            << "node " << i;
        EXPECT_FALSE(sameBits(a.node(i).partition().data,
                              c.node(i).partition().data))
            << "node " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, RuntimeSynthesis,
    ::testing::Values(net::TransportKind::InProcess,
                      net::TransportKind::Tcp),
    [](const ::testing::TestParamInfo<net::TransportKind> &info) {
        return info.param == net::TransportKind::Tcp ? "Tcp"
                                                     : "InProcess";
    });

TEST(SynthesisContract, ZigguratDrawsAStandardNormal)
{
    constexpr int64_t kDraws = 1'000'000;
    ml::SynthStream stream(0x5eed, 0);
    double sum = 0.0;
    double sum2 = 0.0;
    int64_t beyond3 = 0;
    int64_t tail = 0;
    for (int64_t i = 0; i < kDraws; ++i) {
        const double x = stream.gaussian();
        sum += x;
        sum2 += x * x;
        beyond3 += std::abs(x) > 3.0;
        tail += std::abs(x) > ml::SynthStream::kTailEdge;
    }
    const double mean = sum / kDraws;
    const double var = sum2 / kDraws - mean * mean;
    EXPECT_LT(std::abs(mean), 0.005);
    EXPECT_NEAR(var, 1.0, 0.01);
    // P(|x| > 3) = 0.27%; about 2,700 draws, standard deviation 52.
    EXPECT_NEAR(static_cast<double>(beyond3) / kDraws, 0.0027, 0.0003);
    // P(|x| > R) = 0.058%: the tail branch must run.
    EXPECT_GT(tail, 0);
}

} // namespace
} // namespace cosmic
