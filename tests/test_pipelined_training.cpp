/**
 * @file
 * Pipelined-iteration tests: the barrier-free training loop
 * (ClusterConfig::overlapIterations) must be bit-identical to the
 * barrier protocol in synchronous mode (maxStaleness = 0) on every
 * workload, payload encoding, and transport backend, with one group
 * and with two (a GroupSigma between master and Deltas);
 * bounded-staleness async mode (maxStaleness > 0) must converge while
 * never exceeding its staleness bound; and streaming chunked aggregation
 * (streamChunkWords) must reassemble to exactly the whole-vector sum.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ml/workloads.h"
#include "system/cluster_runtime.h"

namespace cosmic::sys {
namespace {

ClusterConfig
smallCluster(int nodes = 4, int groups = 0)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.groups = groups;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.aggregation.deterministic = true;
    return cfg;
}

void
expectBitEqual(const std::vector<double> &a,
               const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << " word " << i;
}

/** One cell of the sync-overlap bit-exactness matrix. */
struct OverlapCase
{
    const char *workload;
    accel::Numeric payload;
    /** 0 = the 4-node, one-group cluster; 2 = eight nodes in two
     *  groups, so a GroupSigma folds and relays between the master
     *  and its Deltas. One byte, in the padding after `payload`, so
     *  the case stays 16 bytes and gtest prints the one-group cases
     *  as it did before the two-group ones were added. */
    uint8_t groups = 0;
    net::TransportKind transport;
};
static_assert(sizeof(OverlapCase) == 16,
              "OverlapCase grew: gtest's printed parameter changes");

std::string
caseName(const ::testing::TestParamInfo<OverlapCase> &info)
{
    std::string name = info.param.workload;
    name += std::string("_") + accel::numericName(info.param.payload);
    name += info.param.transport == net::TransportKind::Tcp
                ? "_tcp"
                : "_inproc";
    if (info.param.groups > 0)
        name += "_groups" + std::to_string(int(info.param.groups));
    return name;
}

class SyncOverlapBitExact
    : public ::testing::TestWithParam<OverlapCase>
{
};

TEST_P(SyncOverlapBitExact, MatchesBarrierTrajectory)
{
    const OverlapCase &p = GetParam();
    ClusterConfig cfg =
        p.groups > 0 ? smallCluster(8, p.groups) : smallCluster();
    cfg.transport.payload = p.payload;
    cfg.transport.kind = p.transport;

    ClusterRuntime barrier(ml::Workload::byName(p.workload), 64.0,
                           cfg);
    TrainingReport base = barrier.train(2);

    cfg.overlapIterations = true;
    ClusterRuntime overlap(ml::Workload::byName(p.workload), 64.0,
                           cfg);
    TrainingReport piped = overlap.train(2);

    // Strict freshness (maxStaleness = 0) makes every node compute
    // each round from bit-equal model snapshots, and the
    // deterministic fold makes each round a pure function of its
    // inputs — the whole trajectory must match the barrier protocol
    // bit for bit.
    EXPECT_EQ(piped.iterations, base.iterations);
    expectBitEqual(piped.finalModel, base.finalModel, "final model");
    ASSERT_EQ(piped.epochLoss.size(), base.epochLoss.size());
    for (size_t i = 0; i < base.epochLoss.size(); ++i)
        EXPECT_EQ(piped.epochLoss[i], base.epochLoss[i])
            << "epoch " << i;

    // No staleness machinery may fire in synchronous mode.
    EXPECT_EQ(piped.staleness.staleComputes, 0u);
    EXPECT_EQ(piped.staleness.roundsSkipped, 0u);
    EXPECT_EQ(piped.staleness.stalePartialsAccepted, 0u);
    EXPECT_EQ(piped.staleness.tooStaleDropped, 0u);
    EXPECT_EQ(piped.staleness.maxEpochLag, 0u);
}

std::vector<OverlapCase>
overlapMatrix()
{
    std::vector<OverlapCase> cases;
    for (uint8_t groups : {uint8_t{0}, uint8_t{2}})
        for (const auto &w : ml::Workload::suite())
            for (accel::Numeric payload :
                 {accel::Numeric::F64, accel::Numeric::Q16})
                for (net::TransportKind transport :
                     {net::TransportKind::InProcess,
                      net::TransportKind::Tcp})
                    cases.push_back(
                        {w.name.c_str(), payload, groups, transport});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SyncOverlapBitExact,
                         ::testing::ValuesIn(overlapMatrix()),
                         caseName);

TEST(PipelinedCluster, SecondTrainOnOneRuntimeMatchesBarrier)
{
    // A pipelined run ends drained: every node waits for the final
    // broadcast, so nothing of the first run is left in an inbox and a
    // second run on the same runtime follows the barrier trajectory.
    for (net::TransportKind transport :
         {net::TransportKind::InProcess, net::TransportKind::Tcp}) {
        for (int groups : {1, 2}) {
            SCOPED_TRACE(std::string(transport == net::TransportKind::Tcp
                                         ? "tcp"
                                         : "inproc") +
                         " groups " + std::to_string(groups));
            ClusterConfig cfg = smallCluster(4 * groups, groups);
            cfg.transport.kind = transport;
            ClusterRuntime barrier(ml::Workload::byName("mnist"), 64.0,
                                   cfg);
            const TrainingReport base1 = barrier.train(2);
            const TrainingReport base2 = barrier.train(2);

            cfg.overlapIterations = true;
            ClusterRuntime overlap(ml::Workload::byName("mnist"), 64.0,
                                   cfg);
            const TrainingReport piped1 = overlap.train(2);
            const TrainingReport piped2 = overlap.train(2);
            expectBitEqual(piped1.finalModel, base1.finalModel,
                           "first run");
            expectBitEqual(piped2.finalModel, base2.finalModel,
                           "second run");
        }
    }
}

TEST(PipelinedCluster, SyncOverlapIsDeterministicAcrossRuns)
{
    ClusterConfig cfg = smallCluster();
    cfg.overlapIterations = true;
    ClusterRuntime r1(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport a = r1.train(2);
    ClusterRuntime r2(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport b = r2.train(2);
    expectBitEqual(a.finalModel, b.finalModel, "final model");
}

TEST(PipelinedCluster, ChunkedStreamingMatchesWholeVector)
{
    // Chunked partials (an odd, non-divisor span) must reassemble to
    // exactly the whole-vector trajectory — barrier and pipelined.
    ClusterConfig cfg = smallCluster();
    ClusterRuntime whole(ml::Workload::byName("tumor"), 64.0, cfg);
    TrainingReport base = whole.train(2);

    cfg.streamChunkWords = 7;
    ClusterRuntime chunked(ml::Workload::byName("tumor"), 64.0, cfg);
    TrainingReport stream = chunked.train(2);
    expectBitEqual(stream.finalModel, base.finalModel,
                   "barrier chunked");

    cfg.overlapIterations = true;
    ClusterRuntime piped(ml::Workload::byName("tumor"), 64.0, cfg);
    TrainingReport overlap = piped.train(2);
    expectBitEqual(overlap.finalModel, base.finalModel,
                   "pipelined chunked");
}

TEST(PipelinedCluster, ChunkedStreamingMatchesOverTcp)
{
    ClusterConfig cfg = smallCluster();
    cfg.transport.kind = net::TransportKind::Tcp;
    ClusterRuntime whole(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport base = whole.train(2);

    cfg.streamChunkWords = 5;
    cfg.overlapIterations = true;
    ClusterRuntime chunked(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport stream = chunked.train(2);
    expectBitEqual(stream.finalModel, base.finalModel, "tcp chunked");
    EXPECT_GT(stream.net.framesSent, base.net.framesSent)
        << "chunking must actually split frames";
}

TEST(PipelinedCluster, AsyncStaysWithinStalenessBound)
{
    // Bounded-staleness async SGD: training must still converge, and
    // no accepted partial — anywhere in the hierarchy — may lag the
    // round by more than the configured bound.
    ClusterConfig cfg = smallCluster(8, 2);
    cfg.maxStaleness = 2;
    cfg.overlapIterations = true;
    cfg.aggregation.deterministic = false; // async folds streamingly
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport report = runtime.train(4);

    EXPECT_EQ(report.iterations, 8);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front())
        << "async training must still learn";
    EXPECT_LE(report.staleness.maxEpochLag, 2u);
    // With no faults the staleness gate never rejects: each node's
    // own freshness gate keeps it from computing beyond the bound.
    EXPECT_EQ(report.staleness.tooStaleDropped, 0u);
    EXPECT_EQ(report.staleness.roundsSkipped, 0u);
}

TEST(PipelinedCluster, AsyncBatchedGradientConverges)
{
    ClusterConfig cfg = smallCluster();
    cfg.mode = TrainingMode::BatchedGradient;
    cfg.learningRate = 0.4;
    cfg.maxStaleness = 1;
    cfg.overlapIterations = true;
    cfg.aggregation.deterministic = false;
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    TrainingReport report = runtime.train(4);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
    EXPECT_LE(report.staleness.maxEpochLag, 1u);
}

TEST(PipelinedCluster, AsyncOverTcpConverges)
{
    ClusterConfig cfg = smallCluster();
    cfg.transport.kind = net::TransportKind::Tcp;
    cfg.maxStaleness = 2;
    cfg.overlapIterations = true;
    cfg.aggregation.deterministic = false;
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport report = runtime.train(4);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
    EXPECT_LE(report.staleness.maxEpochLag, 2u);
    EXPECT_GT(report.net.framesSent, 0u);
    EXPECT_EQ(report.net.corruptFramesDropped, 0u);
}

TEST(PipelinedCluster, ReportsComputeVsAggregationBreakdown)
{
    ClusterConfig cfg = smallCluster();
    cfg.overlapIterations = true;
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport report = runtime.train(2);
    ASSERT_EQ(report.iterationStats.size(),
              static_cast<size_t>(report.iterations));
    ASSERT_EQ(report.iterationSeconds.size(),
              report.iterationStats.size());
    double compute = 0.0;
    for (const IterationStats &it : report.iterationStats)
        compute += it.sumComputeSec;
    EXPECT_GT(compute, 0.0) << "someone must have computed gradients";
    for (const IterationStats &it : report.iterationStats) {
        EXPECT_GE(it.sumComputeSec, 0.0);
        EXPECT_GE(it.sumAggregationSec, 0.0);
        EXPECT_GE(it.maxComputeSec, 0.0);
        EXPECT_GE(it.maxAggregationSec, 0.0);
        // Every node trains one minibatch per round.
        EXPECT_EQ(it.records, cfg.nodes * cfg.minibatchPerNode);
    }
}

TEST(PipelinedCluster, SingleNodeDegenerateCluster)
{
    ClusterConfig cfg = smallCluster(1, 1);
    cfg.overlapIterations = true;
    ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0, cfg);
    TrainingReport report = runtime.train(2);
    EXPECT_EQ(report.iterations, 4);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

TEST(PipelinedCluster, SteadyStateRoundsDoNotGrowAllocations)
{
    // The pipelined loop must recycle every buffer it touches: more
    // epochs may not mean proportionally more pool allocations. The
    // ceiling is generous (in-flight peaks vary with timing), but a
    // per-round leak would blow far past it.
    ClusterConfig cfg = smallCluster();
    cfg.overlapIterations = true;

    ClusterRuntime short_run(ml::Workload::byName("stock"), 64.0,
                             cfg);
    short_run.train(1); // 2 rounds
    const uint64_t warm = short_run.bufferPool().allocations();

    ClusterRuntime long_run(ml::Workload::byName("stock"), 64.0, cfg);
    long_run.train(8); // 16 rounds
    const uint64_t sustained = long_run.bufferPool().allocations();
    EXPECT_LE(sustained, warm * 2 + 16)
        << "pipelined rounds must reuse pooled buffers";
}

} // namespace
} // namespace cosmic::sys
