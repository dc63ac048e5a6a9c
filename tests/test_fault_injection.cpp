/**
 * @file
 * Chaos suite for the fault-injection subsystem and the
 * failure-tolerant cluster runtime.
 *
 * Every scenario is deterministic: a seeded FaultPlan schedules the
 * exact crashes, link faults and straggler stalls, and the test
 * reconciles the TrainingReport's recovery counters against the plan.
 * The one timing-sensitive counter (receiveTimeouts — how many retry
 * windows expired before a miss was declared) is asserted as a lower
 * bound only; everything else is exact.
 *
 * All suites here are named FaultInjection* so the chaos CI loop can
 * run the whole file with --gtest_filter='FaultInjection*' under a
 * sweep of COSMIC_FAULT_SEED values.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "system/cluster_runtime.h"

namespace cosmic::sys {
namespace {

/** A fast cluster: 2 iterations per epoch, generous-but-finite retry
 *  windows. Generous windows cost nothing unless a fault fires. */
ClusterConfig
chaosCluster(int nodes, int groups)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.groups = groups;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.learningRate = 0.4;
    cfg.faultTolerance.receiveTimeoutMs = 250.0;
    cfg.faultTolerance.maxRetries = 2;
    cfg.faultTolerance.evictAfterMisses = 2;
    // COSMIC_TRANSPORT=tcp reruns the whole chaos suite over the TCP
    // backend (ephemeral loopback ports). The fault seam is the
    // transport, so every plan must behave identically either way —
    // the CI chaos loop sweeps both.
    if (const char *t = std::getenv("COSMIC_TRANSPORT"))
        if (std::string(t) == "tcp")
            cfg.transport.kind = net::TransportKind::Tcp;
    return cfg;
}

/** Tight windows for scenarios that actually burn their timeout
 *  budget (crashes, evictions) so the tests stay fast. */
void
tightWindows(ClusterConfig &cfg)
{
    cfg.faultTolerance.receiveTimeoutMs = 50.0;
    cfg.faultTolerance.maxRetries = 1;
}

std::vector<double>
trainFinalModel(const ClusterConfig &cfg, int epochs)
{
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    return runtime.train(epochs).finalModel;
}

class FaultInjectionModes
    : public ::testing::TestWithParam<TrainingMode>
{};

INSTANTIATE_TEST_SUITE_P(
    FaultInjectionBoth, FaultInjectionModes,
    ::testing::Values(TrainingMode::ModelAveraging,
                      TrainingMode::BatchedGradient),
    [](const auto &info) {
        return info.param == TrainingMode::ModelAveraging
                   ? "ModelAveraging"
                   : "BatchedGradient";
    });

/**
 * The zero-cost contract: forcing the tolerant protocol on with an
 * empty plan must not change what is learned. On one node the whole
 * pipeline is deterministic, so the trajectory is bit-exact; across
 * nodes the aggregation fold order is scheduling-dependent (the
 * existing determinism tests bound it at 1e-9) and the tolerant run
 * must stay inside the same envelope. All recovery counters stay zero.
 */
TEST_P(FaultInjectionModes, EmptyPlanIsBitExactOnOneNode)
{
    auto cfg = chaosCluster(1, 1);
    cfg.mode = GetParam();
    auto baseline = trainFinalModel(cfg, 2);

    cfg.faultTolerance.enabled = true;
    ClusterRuntime tolerant(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = tolerant.train(2);

    ASSERT_EQ(report.finalModel.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        ASSERT_EQ(report.finalModel[i], baseline[i]) << "word " << i;
    EXPECT_EQ(report.recovery.partialsMissed, 0u);
    EXPECT_EQ(report.recovery.nodesEvicted, 0u);
}

TEST_P(FaultInjectionModes, EmptyPlanMatchesBaselineAcrossNodes)
{
    auto cfg = chaosCluster(4, 1);
    cfg.mode = GetParam();
    auto baseline = trainFinalModel(cfg, 2);

    cfg.faultTolerance.enabled = true;
    ClusterRuntime tolerant(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = tolerant.train(2);

    ASSERT_EQ(report.finalModel.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_NEAR(report.finalModel[i], baseline[i], 1e-9);

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.partialsMissed, 0u);
    EXPECT_EQ(r.broadcastsMissed, 0u);
    EXPECT_EQ(r.duplicatesDropped, 0u);
    EXPECT_EQ(r.staleDropped, 0u);
    EXPECT_EQ(r.messagesDropped, 0u);
    EXPECT_EQ(r.messagesDelayed, 0u);
    EXPECT_EQ(r.messagesDuplicated, 0u);
    EXPECT_EQ(r.stragglerStalls, 0u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    EXPECT_EQ(r.sigmaPromotions, 0u);
    EXPECT_EQ(r.topologyRepairs, 0u);
}

/** A runtime that never saw a fault config reports all-zero counters
 *  (including the timing-sensitive one: no injector, no timeouts). */
TEST(FaultInjectionCluster, DisabledRuntimeReportsZeroCounters)
{
    auto cfg = chaosCluster(4, 1);
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(1);
    EXPECT_EQ(report.recovery.receiveTimeouts, 0u);
    EXPECT_EQ(report.recovery.partialsMissed, 0u);
    EXPECT_EQ(report.recovery.topologyRepairs, 0u);
}

/**
 * A Delta crash: its Sigma misses it for exactly evictAfterMisses
 * iterations, then the Director shrinks the group. Training continues
 * on the survivors and still learns.
 */
TEST_P(FaultInjectionModes, CrashedDeltaIsEvictedAndTrainingConverges)
{
    auto cfg = chaosCluster(8, 2);
    cfg.mode = GetParam();
    tightWindows(cfg);
    cfg.faultPlan.crash(7, 2);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3); // 6 iterations; crash at 2

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.partialsMissed, 2u);   // missed in iterations 2 and 3
    EXPECT_EQ(r.nodesEvicted, 1u);
    EXPECT_EQ(r.topologyRepairs, 1u);
    EXPECT_EQ(r.sigmaPromotions, 0u);  // a Delta died, no promotion
    EXPECT_EQ(r.broadcastsMissed, 0u); // crashed nodes don't wait
    EXPECT_EQ(r.staleDropped, 0u);
    EXPECT_EQ(r.duplicatesDropped, 0u);
    EXPECT_GE(r.receiveTimeouts, 2u);

    EXPECT_EQ(report.topology.nodes.size(), 7u);
    for (const auto &n : report.topology.nodes)
        EXPECT_NE(n.id, 7);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
    for (double loss : report.epochLoss)
        EXPECT_TRUE(std::isfinite(loss));
}

/**
 * A crash plan keeps one-round segments even with overlapIterations
 * on: eviction and repair run between segments. The overlapped run is
 * the barrier run — same model bits, same counters, same topology.
 */
TEST_P(FaultInjectionModes, CrashPlanWithOverlapMatchesBarrier)
{
    auto cfg = chaosCluster(8, 2);
    cfg.mode = GetParam();
    cfg.aggregation.deterministic = true;
    tightWindows(cfg);
    cfg.faultPlan.crash(7, 2);

    ClusterRuntime barrier(ml::Workload::byName("tumor"), 64.0, cfg);
    const TrainingReport base = barrier.train(3);
    cfg.overlapIterations = true;
    ClusterRuntime overlap(ml::Workload::byName("tumor"), 64.0, cfg);
    const TrainingReport report = overlap.train(3);

    ASSERT_EQ(report.finalModel.size(), base.finalModel.size());
    for (size_t i = 0; i < base.finalModel.size(); ++i)
        ASSERT_EQ(std::memcmp(&report.finalModel[i], &base.finalModel[i],
                              sizeof(double)),
                  0)
            << "word " << i;

    // Everything but receiveTimeouts, the one timing-sensitive counter.
    const RecoveryStats &a = report.recovery, &b = base.recovery;
    EXPECT_EQ(a.partialsMissed, b.partialsMissed);
    EXPECT_EQ(a.broadcastsMissed, b.broadcastsMissed);
    EXPECT_EQ(a.duplicatesDropped, b.duplicatesDropped);
    EXPECT_EQ(a.staleDropped, b.staleDropped);
    EXPECT_EQ(a.malformedDropped, b.malformedDropped);
    EXPECT_EQ(a.messagesDropped, b.messagesDropped);
    EXPECT_EQ(a.messagesDelayed, b.messagesDelayed);
    EXPECT_EQ(a.messagesDuplicated, b.messagesDuplicated);
    EXPECT_EQ(a.stragglerStalls, b.stragglerStalls);
    EXPECT_EQ(a.nodesEvicted, b.nodesEvicted);
    EXPECT_EQ(a.sigmaPromotions, b.sigmaPromotions);
    EXPECT_EQ(a.topologyRepairs, b.topologyRepairs);
    EXPECT_EQ(a.nodesEvicted, 1u);

    ASSERT_EQ(report.topology.nodes.size(), base.topology.nodes.size());
    for (size_t i = 0; i < base.topology.nodes.size(); ++i) {
        EXPECT_EQ(report.topology.nodes[i].id, base.topology.nodes[i].id);
        EXPECT_EQ(report.topology.nodes[i].role,
                  base.topology.nodes[i].role);
        EXPECT_EQ(report.topology.nodes[i].parent,
                  base.topology.nodes[i].parent);
    }
}

/**
 * A GroupSigma crash: the master misses the group's aggregate, the
 * orphaned Deltas miss their broadcasts, and the repair promotes the
 * group's lowest-id surviving Delta to GroupSigma.
 */
TEST(FaultInjectionCluster, CrashedGroupSigmaPromotesDelta)
{
    auto cfg = chaosCluster(8, 2); // group 1 = {4: sigma, 5, 6, 7}
    tightWindows(cfg);
    cfg.faultPlan.crash(4, 2);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3);

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.partialsMissed, 2u);    // the master, iterations 2-3
    EXPECT_EQ(r.broadcastsMissed, 6u);  // deltas 5,6,7 x 2 iterations
    EXPECT_EQ(r.nodesEvicted, 1u);
    EXPECT_EQ(r.sigmaPromotions, 1u);
    EXPECT_EQ(r.topologyRepairs, 1u);

    ASSERT_EQ(report.topology.nodes.size(), 7u);
    bool found = false;
    for (const auto &n : report.topology.nodes) {
        EXPECT_NE(n.id, 4);
        if (n.id == 5) {
            found = true;
            EXPECT_EQ(n.role, NodeRole::GroupSigma);
            EXPECT_EQ(n.parent, 0);
        }
        if (n.id == 6 || n.id == 7) {
            EXPECT_EQ(n.parent, 5);
        }
    }
    EXPECT_TRUE(found);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

/**
 * A single dropped partial is forgiven: one miss, k-of-n aggregation
 * that round, no eviction (the miss streak resets when the node
 * reappears), and training converges.
 */
TEST_P(FaultInjectionModes, DroppedPartialToleratedWithoutEviction)
{
    auto cfg = chaosCluster(4, 1);
    cfg.mode = GetParam();
    tightWindows(cfg);
    cfg.faultPlan.drop(2, 0, 1);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(2); // 4 iterations

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.messagesDropped, 1u);
    EXPECT_EQ(r.partialsMissed, 1u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    EXPECT_EQ(r.topologyRepairs, 0u);
    EXPECT_EQ(r.broadcastsMissed, 0u);
    EXPECT_EQ(r.duplicatesDropped, 0u);
    EXPECT_GE(r.receiveTimeouts, 1u);

    EXPECT_EQ(report.topology.nodes.size(), 4u);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

/**
 * A delayed partial that still lands inside the retry budget changes
 * nothing: no misses, full contributor count, and the final model is
 * within the usual scheduling envelope of the healthy run.
 */
TEST(FaultInjectionCluster, DelayedPartialWithinBudgetIsHarmless)
{
    auto cfg = chaosCluster(4, 1);
    auto baseline = trainFinalModel(cfg, 2);

    cfg.faultPlan.delay(1, 0, 1, 5.0);
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(2);

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.messagesDelayed, 1u);
    EXPECT_EQ(r.partialsMissed, 0u);
    EXPECT_EQ(r.broadcastsMissed, 0u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    ASSERT_EQ(report.finalModel.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_NEAR(report.finalModel[i], baseline[i], 1e-9);
}

/** A duplicated partial is caught by sequence dedup and never double
 *  counted: the result matches the healthy run. */
TEST(FaultInjectionCluster, DuplicatedPartialNeverDoubleCounted)
{
    auto cfg = chaosCluster(4, 1);
    auto baseline = trainFinalModel(cfg, 2);

    cfg.faultPlan.duplicate(1, 0, 1);
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(2);

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.messagesDuplicated, 1u);
    EXPECT_EQ(r.duplicatesDropped, 1u);
    EXPECT_EQ(r.partialsMissed, 0u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    ASSERT_EQ(report.finalModel.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_NEAR(report.finalModel[i], baseline[i], 1e-9);
}

/**
 * A short straggler stalls but always arrives inside the window: the
 * synchronous protocol makes the math independent of skew, so the
 * result matches the healthy run and nothing is missed.
 */
TEST(FaultInjectionCluster, ShortStragglerDoesNotChangeTheMath)
{
    auto cfg = chaosCluster(4, 1);
    auto baseline = trainFinalModel(cfg, 2);

    cfg.faultPlan.straggle(2, 1, 3, 15.0);
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(2); // iterations 0..3

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.stragglerStalls, 3u); // iterations 1, 2, 3
    EXPECT_EQ(r.partialsMissed, 0u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    ASSERT_EQ(report.finalModel.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_NEAR(report.finalModel[i], baseline[i], 1e-9);
}

/**
 * A pathological straggler (stall far beyond the whole retry budget)
 * is indistinguishable from a crash to the protocol: it misses two
 * consecutive rounds and is evicted; its late partials arrive with a
 * previous round's sequence number and are reconciled away.
 */
TEST(FaultInjectionCluster, PersistentStragglerIsEvicted)
{
    auto cfg = chaosCluster(4, 1);
    cfg.faultTolerance.receiveTimeoutMs = 40.0;
    cfg.faultTolerance.maxRetries = 1;
    // Stall >> the master's total window (40*2 + 80*2 = 240 ms).
    cfg.faultPlan.straggle(3, 1, 2, 600.0);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(2); // 4 iterations

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.stragglerStalls, 2u);
    EXPECT_EQ(r.partialsMissed, 2u);
    EXPECT_EQ(r.staleDropped, 2u); // both late partials reconciled
    EXPECT_EQ(r.nodesEvicted, 1u);
    EXPECT_EQ(r.topologyRepairs, 1u);
    EXPECT_EQ(r.sigmaPromotions, 0u);
    EXPECT_EQ(r.broadcastsMissed, 0u);
    EXPECT_EQ(report.topology.nodes.size(), 3u);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

/**
 * The master gives up on a stalled GroupSigma and broadcasts without
 * it. The broadcast reaches the Sigma while it is still collecting (a
 * member's partial was dropped, so it reads on past its other
 * members): the Sigma relays and adopts the model instead of folding
 * it as a partial, and its own late partial is reconciled away at the
 * master.
 */
TEST(FaultInjectionCluster, BroadcastReachingCollectingSigmaIsRelayed)
{
    auto cfg = chaosCluster(8, 2); // group 1 = {4: sigma, 5, 6, 7}
    tightWindows(cfg);
    // Stall >> the master's window (50*2 + 100*2 = 300 ms) and the
    // members' broadcast wait (50*3 + 100*3 = 450 ms).
    cfg.faultPlan.straggle(4, 1, 1, 600.0);
    cfg.faultPlan.drop(5, 4, 1);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3); // 6 iterations

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.messagesDropped, 1u);
    EXPECT_EQ(r.stragglerStalls, 1u);
    EXPECT_EQ(r.partialsMissed, 2u);   // node 4 at the master, 5 at 4
    EXPECT_EQ(r.broadcastsMissed, 3u); // 5, 6, 7 gave up; 4 did not
    // Node 4's late partial at the master, and the late relay at 5,
    // 6 and 7 in the next round.
    EXPECT_EQ(r.staleDropped, 4u);
    EXPECT_EQ(r.duplicatesDropped, 0u);
    EXPECT_EQ(r.nodesEvicted, 0u); // one miss each is forgiven
    EXPECT_EQ(report.topology.nodes.size(), 8u);
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

/**
 * Property test at the AggregationEngine level: delivering a round's
 * partials in any order, with duplicated senders and stale messages
 * from other rounds mixed in, never changes the aggregate, the
 * contributor count, or the reconciliation counters.
 */
TEST(FaultInjectionAggregation, SeqReconciliationIsIdempotent)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 7919);
        AggregationConfig config;
        config.chunkWords = static_cast<size_t>(1)
                            << rng.integer(0, 6);
        config.ringCapacity =
            static_cast<size_t>(1) << rng.integer(0, 4);
        config.networkingThreads =
            static_cast<int>(rng.integer(1, 3));
        config.aggregationThreads =
            static_cast<int>(rng.integer(1, 3));
        AggregationEngine engine(config);

        const int senders = static_cast<int>(rng.integer(1, 9));
        const int64_t words = rng.integer(1, 300);
        const uint64_t round = static_cast<uint64_t>(
            rng.integer(5, 100));

        std::vector<double> expected(words, 0.0);
        int expected_contributors = 0;
        std::vector<Message> queue;
        for (int s = 0; s < senders; ++s) {
            Message msg{s, round, std::vector<double>(words),
                        static_cast<int>(s % 3) + 1};
            for (auto &v : msg.payload)
                v = rng.uniform(-1.0, 1.0);
            for (int64_t i = 0; i < words; ++i)
                expected[i] += msg.payload[i];
            expected_contributors += msg.contributors;
            // Sometimes duplicate the delivery (the wire's dup).
            if (rng.coin(0.4)) {
                Message dup = msg;
                dup.payload = msg.payload;
                queue.push_back(std::move(dup));
            }
            queue.push_back(std::move(msg));
        }
        // Mix in stale messages from neighbouring rounds (same width —
        // width mismatches are a hard protocol error, not a fault).
        const int stale = static_cast<int>(rng.integer(0, 3));
        for (int i = 0; i < stale; ++i) {
            Message msg{static_cast<int>(rng.integer(0, senders - 1)),
                        round + (rng.coin() ? 1 : -1),
                        std::vector<double>(words, 1e9)};
            queue.push_back(std::move(msg));
        }
        // Deterministic Fisher-Yates shuffle: delivery order must not
        // matter.
        for (size_t i = queue.size(); i > 1; --i)
            std::swap(queue[i - 1],
                      queue[rng.integer(0, static_cast<int64_t>(i) -
                                               1)]);

        engine.begin(words, round);
        int accepted = 0;
        for (auto &msg : queue)
            accepted += engine.onMessage(std::move(msg)) ? 1 : 0;
        auto sum = engine.finish();

        EXPECT_EQ(accepted, senders) << "seed " << seed;
        EXPECT_EQ(engine.contributors(), expected_contributors)
            << "seed " << seed;
        EXPECT_EQ(engine.staleDropped(), static_cast<uint64_t>(stale))
            << "seed " << seed;
        EXPECT_EQ(engine.duplicatesDropped(),
                  static_cast<uint64_t>(queue.size()) -
                      static_cast<uint64_t>(senders) -
                      static_cast<uint64_t>(stale))
            << "seed " << seed;
        ASSERT_EQ(sum.size(), static_cast<size_t>(words));
        for (int64_t i = 0; i < words; ++i)
            ASSERT_NEAR(sum[i], expected[i], 1e-12)
                << "seed " << seed << " word " << i;
    }
}

TEST(FaultInjectionPlan, CrashSemantics)
{
    FaultPlan plan;
    plan.crash(3, 2);
    EXPECT_FALSE(plan.crashed(3, 0));
    EXPECT_FALSE(plan.crashed(3, 1));
    EXPECT_TRUE(plan.crashed(3, 2));  // permanent from atIteration on
    EXPECT_TRUE(plan.crashed(3, 100));
    EXPECT_FALSE(plan.crashed(2, 100));
}

TEST(FaultInjectionPlan, StragglerWindowIsInclusive)
{
    FaultPlan plan;
    plan.straggle(1, 2, 4, 7.5);
    EXPECT_EQ(plan.stragglerDelayMs(1, 1), 0.0);
    EXPECT_EQ(plan.stragglerDelayMs(1, 2), 7.5);
    EXPECT_EQ(plan.stragglerDelayMs(1, 4), 7.5);
    EXPECT_EQ(plan.stragglerDelayMs(1, 5), 0.0);
    EXPECT_EQ(plan.stragglerDelayMs(0, 3), 0.0);
}

TEST(FaultInjectionPlan, RandomizedIsDeterministicAndSparesTheMaster)
{
    for (uint64_t seed = 0; seed < 50; ++seed) {
        auto a = FaultPlan::randomized(seed, 8, 8);
        auto b = FaultPlan::randomized(seed, 8, 8);
        EXPECT_EQ(a.crashes().size(), b.crashes().size());
        EXPECT_EQ(a.linkFaults().size(), b.linkFaults().size());
        EXPECT_EQ(a.stragglers().size(), b.stragglers().size());
        for (const auto &c : a.crashes()) {
            EXPECT_NE(c.node, 0); // node 0 is always the master
            EXPECT_GE(c.atIteration, 1u);
        }
        EXPECT_GE(a.linkFaults().size(), 1u);
        EXPECT_LE(a.linkFaults().size(), 3u);
    }
}

TEST(FaultInjectionInjector, LinkFaultsFireExactlyOnce)
{
    FaultPlan plan;
    plan.drop(1, 0, 2).duplicate(-1, 3, 5); // -1 wildcards the sender
    FaultInjector injector(plan);

    // Wrong iteration / endpoints: nothing fires.
    EXPECT_FALSE(injector.onSend(1, 0, 1).drop);
    EXPECT_FALSE(injector.onSend(2, 0, 2).drop);
    // The matching send claims the fault...
    EXPECT_TRUE(injector.onSend(1, 0, 2).drop);
    // ...and a second identical send finds it spent.
    EXPECT_FALSE(injector.onSend(1, 0, 2).drop);
    EXPECT_EQ(injector.messagesDropped(), 1u);

    EXPECT_TRUE(injector.onSend(7, 3, 5).duplicate); // wildcard from
    EXPECT_FALSE(injector.onSend(6, 3, 5).duplicate);
    EXPECT_EQ(injector.messagesDuplicated(), 1u);
}

TEST(FaultInjectionInjector, StragglerStallsAreCounted)
{
    FaultPlan plan;
    plan.straggle(2, 0, 1, 3.0);
    FaultInjector injector(plan);
    EXPECT_EQ(injector.stragglerDelayMs(2, 0), 3.0);
    EXPECT_EQ(injector.stragglerDelayMs(2, 1), 3.0);
    EXPECT_EQ(injector.stragglerDelayMs(2, 2), 0.0);
    EXPECT_EQ(injector.stragglerDelayMs(1, 0), 0.0);
    EXPECT_EQ(injector.stragglerStalls(), 2u);
}

/**
 * The seeded chaos run the nightly CI loop sweeps: a randomized plan
 * (COSMIC_FAULT_SEED selects it) must never deadlock the runtime,
 * must keep every loss finite, and its fired-fault counters can never
 * exceed what the plan scheduled.
 */
TEST(FaultInjectionCluster, RandomizedChaosRunStaysSafe)
{
    uint64_t seed = 42;
    if (const char *env = std::getenv("COSMIC_FAULT_SEED"))
        seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));

    auto cfg = chaosCluster(8, 2);
    tightWindows(cfg);
    cfg.faultPlan = FaultPlan::randomized(seed, cfg.nodes, 6);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3); // 6 iterations, as planned

    for (double loss : report.epochLoss)
        ASSERT_TRUE(std::isfinite(loss)) << "seed " << seed;
    for (double w : report.finalModel)
        ASSERT_TRUE(std::isfinite(w)) << "seed " << seed;
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front())
        << "seed " << seed;

    const FaultPlan &plan = cfg.faultPlan;
    const RecoveryStats &r = report.recovery;
    uint64_t planned_drops = 0, planned_delays = 0, planned_dups = 0;
    for (const auto &f : plan.linkFaults()) {
        switch (f.kind) {
          case LinkFaultKind::Drop: ++planned_drops; break;
          case LinkFaultKind::Delay: ++planned_delays; break;
          case LinkFaultKind::Duplicate: ++planned_dups; break;
        }
    }
    EXPECT_LE(r.messagesDropped, planned_drops) << "seed " << seed;
    EXPECT_LE(r.messagesDelayed, planned_delays) << "seed " << seed;
    EXPECT_LE(r.messagesDuplicated, planned_dups) << "seed " << seed;
    EXPECT_LE(r.duplicatesDropped, r.messagesDuplicated)
        << "seed " << seed;

    uint64_t planned_stalls = 0;
    for (const auto &s : plan.stragglers())
        planned_stalls += s.lastIteration - s.firstIteration + 1;
    EXPECT_LE(r.stragglerStalls, planned_stalls) << "seed " << seed;

    // The topology always accounts for exactly the evicted nodes, and
    // the master survives every plan randomized() can produce.
    EXPECT_EQ(report.topology.nodes.size(),
              8u - static_cast<size_t>(r.nodesEvicted))
        << "seed " << seed;
    EXPECT_EQ(report.topology.masterId(), 0) << "seed " << seed;
    EXPECT_LE(r.sigmaPromotions, r.nodesEvicted) << "seed " << seed;
    if (plan.crashes().empty() && r.messagesDropped == 0) {
        EXPECT_EQ(r.nodesEvicted, 0u) << "seed " << seed;
    }
}

/**
 * The async leg of the chaos sweep: the same seeded plans, minus
 * crashes (crash recovery needs the barrier's eviction machinery, and
 * a crash plan deliberately falls back to it), run through the
 * pipelined bounded-staleness protocol. The staleness bound must hold
 * under arbitrary drop/delay/duplicate/straggler chaos.
 */
TEST(FaultInjectionCluster, RandomizedChaosAsyncPipelineStaysSafe)
{
    uint64_t seed = 42;
    if (const char *env = std::getenv("COSMIC_FAULT_SEED"))
        seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));

    auto cfg = chaosCluster(8, 2);
    tightWindows(cfg);
    cfg.maxStaleness = 2;
    cfg.overlapIterations = true;
    // Re-build the randomized schedule without its crash component so
    // the pipelined (not the barrier-fallback) protocol runs.
    auto plan = FaultPlan::randomized(seed, cfg.nodes, 6);
    for (const auto &f : plan.linkFaults()) {
        switch (f.kind) {
          case LinkFaultKind::Drop:
            cfg.faultPlan.drop(f.from, f.to, f.iteration);
            break;
          case LinkFaultKind::Delay:
            cfg.faultPlan.delay(f.from, f.to, f.iteration, f.delayMs);
            break;
          case LinkFaultKind::Duplicate:
            cfg.faultPlan.duplicate(f.from, f.to, f.iteration);
            break;
        }
    }
    for (const auto &s : plan.stragglers())
        cfg.faultPlan.straggle(s.node, s.firstIteration,
                               s.lastIteration, s.delayMs);
    if (cfg.faultPlan.empty()) // keep the tolerant protocol exercised
        cfg.faultPlan.delay(1, 0, 1, 20.0);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3); // 6 iterations

    for (double loss : report.epochLoss)
        ASSERT_TRUE(std::isfinite(loss)) << "seed " << seed;
    for (double w : report.finalModel)
        ASSERT_TRUE(std::isfinite(w)) << "seed " << seed;
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front())
        << "seed " << seed;
    // The master free-runs: every round must have produced a model.
    EXPECT_EQ(report.iterations, 6) << "seed " << seed;
    // The bound is the contract: no accepted partial may lag further,
    // no matter what the wire did.
    EXPECT_LE(report.staleness.maxEpochLag, 2u) << "seed " << seed;
    // Pipelined mode never evicts — skipped rounds are absorbed by
    // the k-of-n rescaling instead of topology repair.
    EXPECT_EQ(report.topology.nodes.size(), 8u) << "seed " << seed;
    EXPECT_EQ(report.recovery.nodesEvicted, 0u) << "seed " << seed;
}

TEST(FaultInjectionCluster, AsyncPipelineAbsorbsDroppedBroadcast)
{
    // Dropping one master -> GroupSigma model broadcast in async mode
    // must not stall the cluster: the group keeps computing inside
    // its staleness budget and re-synchronizes on the next round's
    // broadcast (only the one delivery is eaten).
    auto cfg = chaosCluster(8, 2);
    cfg.maxStaleness = 2;
    cfg.overlapIterations = true;
    const int sigma = 4; // second group's Sigma under (8, 2)
    cfg.faultPlan.drop(0, sigma, 1);

    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    auto report = runtime.train(3);

    EXPECT_EQ(report.iterations, 6);
    EXPECT_EQ(report.recovery.messagesDropped, 1u);
    for (double loss : report.epochLoss)
        ASSERT_TRUE(std::isfinite(loss));
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
    EXPECT_LE(report.staleness.maxEpochLag, 2u);
    EXPECT_EQ(report.recovery.nodesEvicted, 0u);
}

/**
 * A pipelined run ends drained: every node waits for the final round's
 * broadcast, as the barrier protocol always did. Dropping that
 * broadcast to one Delta is therefore a counted miss (before the
 * drained end, the run finished without noticing it). The master's
 * model is untouched, and pipelined mode never evicts.
 */
TEST(FaultInjectionCluster, PipelinedRunWaitsForItsFinalBroadcast)
{
    auto cfg = chaosCluster(4, 1);
    cfg.aggregation.deterministic = true;
    cfg.overlapIterations = true;
    tightWindows(cfg);
    ClusterRuntime healthy(ml::Workload::byName("tumor"), 64.0, cfg);
    const TrainingReport base = healthy.train(2); // rounds 0..3

    cfg.faultPlan.drop(0, 3, 3); // the master's round-3 broadcast
    ClusterRuntime runtime(ml::Workload::byName("tumor"), 64.0, cfg);
    const TrainingReport report = runtime.train(2);

    const RecoveryStats &r = report.recovery;
    EXPECT_EQ(r.messagesDropped, 1u);
    EXPECT_EQ(r.broadcastsMissed, 1u);
    EXPECT_EQ(r.partialsMissed, 0u);
    EXPECT_EQ(r.staleDropped, 0u);
    EXPECT_GE(r.receiveTimeouts, 1u);
    EXPECT_EQ(r.nodesEvicted, 0u);
    EXPECT_EQ(report.topology.nodes.size(), 4u);
    ASSERT_EQ(report.finalModel.size(), base.finalModel.size());
    for (size_t i = 0; i < base.finalModel.size(); ++i)
        ASSERT_EQ(std::memcmp(&report.finalModel[i], &base.finalModel[i],
                              sizeof(double)),
                  0)
            << "word " << i;
}

} // namespace
} // namespace cosmic::sys
