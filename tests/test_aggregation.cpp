/**
 * @file
 * Tests for the Sigma node's aggregation engine and the System
 * Director's role assignment.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "system/aggregation.h"
#include "system/buffer_pool.h"
#include "system/director.h"
#include "proc_self.h"

namespace cosmic::sys {
namespace {

TEST(AggregationEngine, SumsOneSender)
{
    AggregationEngine engine(AggregationConfig{});
    engine.begin(5, 0);
    engine.onMessage(Message{1, 0, {1, 2, 3, 4, 5}});
    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST(AggregationEngine, SumsManySendersExactly)
{
    AggregationConfig config;
    config.chunkWords = 16; // force many chunks per message
    config.ringCapacity = 4;
    AggregationEngine engine(config);

    const int senders = 7;
    const int64_t words = 100;
    Rng rng(3);
    std::vector<double> expected(words, 0.0);
    std::vector<Message> messages;
    for (int s = 0; s < senders; ++s) {
        Message msg{s, 0, std::vector<double>(words)};
        for (auto &v : msg.payload) {
            v = rng.uniform(-1, 1);
        }
        for (int64_t i = 0; i < words; ++i)
            expected[i] += msg.payload[i];
        messages.push_back(std::move(msg));
    }

    engine.begin(words, 0);
    for (auto &msg : messages)
        engine.onMessage(std::move(msg));
    auto sum = engine.finish();
    ASSERT_EQ(sum.size(), static_cast<size_t>(words));
    for (int64_t i = 0; i < words; ++i)
        EXPECT_NEAR(sum[i], expected[i], 1e-12);
}

TEST(AggregationEngine, ZeroSendersFinishImmediately)
{
    AggregationEngine engine(AggregationConfig{});
    engine.begin(8, 0);
    auto sum = engine.finish();
    EXPECT_EQ(sum, std::vector<double>(8, 0.0));
}

TEST(AggregationEngine, ReusableAcrossRounds)
{
    AggregationEngine engine(AggregationConfig{});
    for (int round = 1; round <= 5; ++round) {
        engine.begin(3, 0);
        engine.onMessage(Message{0, 0, {double(round), 0, 0}});
        engine.onMessage(Message{1, 0, {double(round), 1, 1}});
        auto sum = engine.finish();
        EXPECT_DOUBLE_EQ(sum[0], 2.0 * round);
        EXPECT_DOUBLE_EQ(sum[1], 1.0);
    }
}

TEST(AggregationEngine, ConcurrentSendersStress)
{
    AggregationConfig config;
    config.chunkWords = 8;
    config.ringCapacity = 8;
    config.networkingThreads = 3;
    config.aggregationThreads = 3;
    AggregationEngine engine(config);

    const int senders = 16;
    const int64_t words = 257; // deliberately not a chunk multiple
    engine.begin(words, 0);

    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
        threads.emplace_back([&, s] {
            Message msg{s, 0, std::vector<double>(words, 1.0)};
            engine.onMessage(std::move(msg));
        });
    }
    for (auto &t : threads)
        t.join();
    auto sum = engine.finish();
    for (int64_t i = 0; i < words; ++i)
        ASSERT_DOUBLE_EQ(sum[i], double(senders));
    EXPECT_LE(engine.ringHighWater(), config.ringCapacity);
}

/** Property sweep: correctness must not depend on the pipeline shape. */
class AggregationShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{};

TEST_P(AggregationShapes, SumInvariantUnderConfiguration)
{
    auto [net_threads, agg_threads, ring, chunk] = GetParam();
    AggregationConfig config;
    config.networkingThreads = net_threads;
    config.aggregationThreads = agg_threads;
    config.ringCapacity = static_cast<size_t>(ring);
    config.chunkWords = static_cast<size_t>(chunk);
    AggregationEngine engine(config);

    const int senders = 5;
    const int64_t words = 333; // not a multiple of any chunk size
    Rng rng(97);
    std::vector<double> expected(words, 0.0);
    std::vector<Message> messages;
    for (int s = 0; s < senders; ++s) {
        Message msg{s, 0, std::vector<double>(words)};
        for (int64_t i = 0; i < words; ++i) {
            msg.payload[i] = rng.uniform(-2, 2);
            expected[i] += msg.payload[i];
        }
        messages.push_back(std::move(msg));
    }

    engine.begin(words, 0);
    std::vector<std::thread> threads;
    for (auto &msg : messages)
        threads.emplace_back(
            [&engine, m = std::move(msg)]() mutable {
                engine.onMessage(std::move(m));
            });
    for (auto &t : threads)
        t.join();
    auto sum = engine.finish();
    for (int64_t i = 0; i < words; ++i)
        ASSERT_NEAR(sum[i], expected[i], 1e-12) << "word " << i;
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, AggregationShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, 8),
                      std::make_tuple(1, 4, 2, 16),
                      std::make_tuple(4, 1, 4, 64),
                      std::make_tuple(2, 2, 16, 512),
                      std::make_tuple(3, 3, 8, 1),
                      std::make_tuple(4, 4, 64, 4096)),
    [](const auto &info) {
        return "net" + std::to_string(std::get<0>(info.param)) +
               "_agg" + std::to_string(std::get<1>(info.param)) +
               "_ring" + std::to_string(std::get<2>(info.param)) +
               "_chunk" + std::to_string(std::get<3>(info.param));
    });

/**
 * Zero-copy stress for the pooled-slot data path (the TSan target):
 * many concurrent senders move pooled payloads into the engine while
 * chunks reference the slots' storage. Odd chunk sizes leave ragged
 * last chunks, the narrow rounds make chunkWords exceed the whole
 * payload, and back-to-back rounds recycle every slot and buffer —
 * any use-after-free of a recycled payload corrupts the sums or trips
 * the sanitizer.
 */
TEST(AggregationEngine, ZeroCopyPayloadStressAcrossRounds)
{
    auto pool = std::make_shared<BufferPool>();
    AggregationConfig config;
    config.chunkWords = 7;
    config.ringCapacity = 4;
    config.networkingThreads = 3;
    config.aggregationThreads = 3;
    config.pool = pool;
    AggregationEngine engine(config);

    const int senders = 12;
    for (int round = 0; round < 6; ++round) {
        // Wide rounds split into many ragged chunks; narrow rounds fit
        // inside a single oversized chunk.
        const int64_t words = round % 2 == 0 ? 97 : 5;
        engine.begin(words, static_cast<uint64_t>(round));
        std::vector<std::thread> threads;
        for (int s = 0; s < senders; ++s) {
            threads.emplace_back([&, s] {
                std::vector<double> payload = pool->acquire(words);
                for (int64_t i = 0; i < words; ++i)
                    payload[i] = s + i * 0.25;
                engine.onMessage(Message{
                    s, static_cast<uint64_t>(round),
                    std::move(payload)});
            });
        }
        for (auto &t : threads)
            t.join();
        auto sum = engine.finish();
        ASSERT_EQ(sum.size(), static_cast<size_t>(words));
        for (int64_t i = 0; i < words; ++i) {
            double expect = senders * (senders - 1) / 2.0 +
                            senders * i * 0.25;
            ASSERT_DOUBLE_EQ(sum[i], expect)
                << "round " << round << " word " << i;
        }
        pool->release(std::move(sum));
    }
}

/**
 * Steady-state rounds are allocation-free: once the shared pool holds
 * one buffer per sender plus the engine's round buffer, repeated
 * begin/onMessage/finish cycles recirculate them without a single new
 * allocation. Deterministic because finish() drains the pipeline, so
 * every payload is back in the freelist before the next round starts.
 */
TEST(AggregationEngine, SteadyStateRoundsDoNotAllocate)
{
    auto pool = std::make_shared<BufferPool>();
    AggregationConfig config;
    config.chunkWords = 16;
    config.pool = pool;
    AggregationEngine engine(config);
    ASSERT_EQ(engine.pool(), pool);

    const int senders = 4;
    const int64_t words = 64;
    {
        std::vector<std::vector<double>> warm;
        for (int i = 0; i < senders + 1; ++i)
            warm.push_back(pool->acquire(words));
        for (auto &b : warm)
            pool->release(std::move(b));
    }

    const uint64_t warm_allocations = pool->allocations();
    for (int round = 0; round < 8; ++round) {
        engine.begin(words, 0);
        for (int s = 0; s < senders; ++s) {
            std::vector<double> payload = pool->acquire(words);
            std::fill(payload.begin(), payload.end(), 1.0);
            engine.onMessage(Message{s, 0, std::move(payload)});
        }
        auto sum = engine.finish();
        for (int64_t i = 0; i < words; ++i)
            ASSERT_DOUBLE_EQ(sum[i], double(senders));
        pool->release(std::move(sum));
    }
    EXPECT_EQ(pool->allocations(), warm_allocations)
        << "steady-state rounds must not allocate payloads";
    EXPECT_GT(pool->acquires(), warm_allocations);
}

TEST(AggregationEngine, RejectsWrongWidth)
{
    // A payload whose (offset, span) cannot fit inside the round
    // vector is a malformed wire message: rejected and counted, never
    // silently resized into the sum — and the round still completes
    // correctly. (A *short* payload inside the width is not malformed
    // any more — it is a streaming chunk; see below.)
    AggregationEngine engine(AggregationConfig{});
    engine.begin(4, 0);
    EXPECT_FALSE(engine.onMessage(Message{0, 0, {}}));
    EXPECT_FALSE(
        engine.onMessage(Message{1, 0, {1.0, 2.0, 3.0, 4.0, 5.0}}));
    Message hang{2, 0, {1.0, 2.0}};
    hang.offset = 3; // 3 + 2 words overhangs the 4-word round
    EXPECT_FALSE(engine.onMessage(std::move(hang)));
    EXPECT_EQ(engine.malformedDropped(), 3u);
    EXPECT_EQ(engine.accepted(), 0);

    EXPECT_TRUE(engine.onMessage(Message{3, 0, {1.0, 2.0, 3.0, 4.0}}));
    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
    // An in-width short payload stages as an incomplete chunk; the
    // sender never counts and is discarded wholesale at finish().
    engine.begin(4, 1);
    EXPECT_TRUE(engine.onMessage(Message{0, 1, {1.0, 2.0}}));
    EXPECT_FALSE(engine.senderComplete(0));
    EXPECT_TRUE(engine.onMessage(Message{1, 1, {5.0, 5.0, 5.0, 5.0}}));
    sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{5.0, 5.0, 5.0, 5.0}));
    EXPECT_EQ(engine.incompleteDropped(), 1u);
    // Neither a malformed nor an incomplete sender is marked seen: a
    // well-formed retry from the same node must still be accepted
    // next round.
    engine.begin(4, 2);
    EXPECT_TRUE(engine.onMessage(Message{0, 2, {1.0, 1.0, 1.0, 1.0}}));
    sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
    EXPECT_EQ(engine.accepted(), 1);
}

TEST(AggregationEngine, ChunkedSpansReassembleExactly)
{
    // Streaming mode: a sender's (offset, span) chunks — delivered out
    // of order — must reassemble into exactly the whole-vector sum,
    // and the sender only counts once its spans tile the round width.
    AggregationEngine engine(AggregationConfig{});
    engine.begin(8, 0);

    auto chunk = [](int from, uint32_t off,
                    std::vector<double> values) {
        Message m{from, 0, std::move(values)};
        m.offset = off;
        return m;
    };
    EXPECT_TRUE(engine.onMessage(chunk(3, 5, {6.0, 7.0, 8.0})));
    EXPECT_FALSE(engine.senderComplete(3));
    EXPECT_EQ(engine.contributors(), 0);
    EXPECT_TRUE(engine.onMessage(chunk(3, 0, {1.0, 2.0})));
    EXPECT_FALSE(engine.senderComplete(3));
    EXPECT_TRUE(engine.onMessage(chunk(3, 2, {3.0, 4.0, 5.0})));
    EXPECT_TRUE(engine.senderComplete(3));
    EXPECT_EQ(engine.accepted(), 1);
    EXPECT_EQ(engine.contributors(), 1);

    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(engine.incompleteDropped(), 0u);
}

TEST(AggregationEngine, OverlappingSpansRejected)
{
    // A duplicated chunk (the wire's duplicated delivery) or any
    // overlapping span must not double-count words.
    AggregationEngine engine(AggregationConfig{});
    engine.begin(6, 0);
    Message a{1, 0, {1.0, 1.0, 1.0, 1.0}};
    EXPECT_TRUE(engine.onMessage(std::move(a)));
    Message dup{1, 0, {9.0, 9.0, 9.0}};
    dup.offset = 2; // overlaps [0,4)
    EXPECT_FALSE(engine.onMessage(std::move(dup)));
    EXPECT_EQ(engine.duplicatesDropped(), 1u);
    Message tail{1, 0, {2.0, 2.0}};
    tail.offset = 4;
    EXPECT_TRUE(engine.onMessage(std::move(tail)));
    EXPECT_TRUE(engine.senderComplete(1));
    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1, 1, 1, 1, 2, 2}));
}

TEST(AggregationEngine, StalenessGateRejectsOldEpochs)
{
    // Round 5 with a staleness floor of 3: partials computed from a
    // model older than epoch 3 are rejected; lagging-but-in-bound
    // partials are accepted and counted.
    AggregationEngine engine(AggregationConfig{});
    engine.begin(4, 5, 3);

    Message too_old{0, 5, {1.0, 1.0, 1.0, 1.0}};
    too_old.epoch = 2;
    EXPECT_FALSE(engine.onMessage(std::move(too_old)));
    EXPECT_EQ(engine.tooStaleDropped(), 1u);
    EXPECT_EQ(engine.accepted(), 0);

    Message lagging{1, 5, {1.0, 1.0, 1.0, 1.0}};
    lagging.epoch = 3;
    EXPECT_TRUE(engine.onMessage(std::move(lagging)));
    Message fresh{2, 5, {2.0, 2.0, 2.0, 2.0}};
    fresh.epoch = 5;
    EXPECT_TRUE(engine.onMessage(std::move(fresh)));

    EXPECT_EQ(engine.staleAccepted(), 1u);
    EXPECT_EQ(engine.maxEpochLag(), 2u);
    EXPECT_EQ(engine.minEpochAccepted(), 3u);
    EXPECT_EQ(engine.contributors(), 2);
    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{3, 3, 3, 3}));
}

TEST(AggregationEngine, ChunkEpochIsMinOverChunks)
{
    // A chunked sender's effective epoch is the oldest epoch any of
    // its chunks carried — the conservative reading for the
    // hierarchy's staleness propagation.
    AggregationEngine engine(AggregationConfig{});
    engine.begin(4, 7, 0);
    Message head{0, 7, {1.0, 1.0}};
    head.epoch = 7;
    EXPECT_TRUE(engine.onMessage(std::move(head)));
    Message tail{0, 7, {1.0, 1.0}};
    tail.offset = 2;
    tail.epoch = 6;
    EXPECT_TRUE(engine.onMessage(std::move(tail)));
    EXPECT_TRUE(engine.senderComplete(0));
    EXPECT_EQ(engine.minEpochAccepted(), 6u);
    EXPECT_EQ(engine.maxEpochLag(), 1u);
    auto sum = engine.finish();
    EXPECT_EQ(sum, (std::vector<double>{1, 1, 1, 1}));
}

TEST(AggregationEngine, DuplicateAfterRoundAdvanceIsNotStale)
{
    // The wire delivered sender 1's round-5 partial twice and the
    // round advanced before the copy landed: the copy is a duplicate.
    // Sender 2 never completed round 5, so its late partial is stale.
    AggregationEngine engine(AggregationConfig{});
    engine.begin(3, 5);
    EXPECT_TRUE(engine.onMessage(Message{1, 5, {1.0, 2.0, 3.0}}));
    Message head{2, 5, {7.0}};
    EXPECT_TRUE(engine.onMessage(std::move(head))); // incomplete
    engine.finish();

    engine.begin(3, 6);
    EXPECT_FALSE(engine.onMessage(Message{1, 5, {1.0, 2.0, 3.0}}));
    EXPECT_EQ(engine.duplicatesDropped(), 1u);
    EXPECT_EQ(engine.staleDropped(), 0u);
    EXPECT_FALSE(engine.onMessage(Message{2, 5, {7.0, 7.0, 7.0}}));
    EXPECT_EQ(engine.staleDropped(), 1u);
    // A round that has not happened yet is stale too.
    EXPECT_FALSE(engine.onMessage(Message{1, 7, {0.0, 0.0, 0.0}}));
    EXPECT_EQ(engine.staleDropped(), 2u);
    EXPECT_TRUE(engine.onMessage(Message{1, 6, {4.0, 4.0, 4.0}}));
    EXPECT_EQ(engine.finish(), (std::vector<double>{4, 4, 4}));

    // The history covers 64 rounds back from the sender's newest
    // accepted one: once sender 1 completes round 69, its round 6 is
    // still known and its round 5 is not.
    engine.begin(3, 69);
    EXPECT_TRUE(engine.onMessage(Message{1, 69, {1.0, 1.0, 1.0}}));
    EXPECT_FALSE(engine.onMessage(Message{1, 6, {4.0, 4.0, 4.0}}));
    EXPECT_EQ(engine.duplicatesDropped(), 2u);
    EXPECT_FALSE(engine.onMessage(Message{1, 5, {1.0, 2.0, 3.0}}));
    EXPECT_EQ(engine.staleDropped(), 3u);
    engine.finish();
}

TEST(AggregationEngine, DeterministicRoundStartsNoThread)
{
    // Deterministic mode parks payloads and folds them in finish(), so
    // its networking and aggregation pools never get a task and never
    // start a worker.
    const int before = testing_support::liveThreads();
    AggregationConfig config;
    config.deterministic = true;
    AggregationEngine engine(config);
    for (uint64_t round = 0; round < 3; ++round) {
        engine.begin(4, round);
        for (int sender = 2; sender >= 0; --sender)
            EXPECT_TRUE(engine.onMessage(
                Message{sender, round, std::vector<double>(4, 1.0)}));
        EXPECT_EQ(engine.finish(), (std::vector<double>{3, 3, 3, 3}));
        EXPECT_EQ(testing_support::liveThreads(), before);
    }
}

TEST(SystemDirector, SingleGroupTopology)
{
    auto topo = SystemDirector::assign(3, 1);
    EXPECT_EQ(topo.masterId(), 0);
    EXPECT_EQ(topo.nodes[0].role, NodeRole::MasterSigma);
    EXPECT_EQ(topo.nodes[1].role, NodeRole::Delta);
    EXPECT_EQ(topo.nodes[2].role, NodeRole::Delta);
    EXPECT_EQ(topo.groupMembers(0).size(), 2u);
    EXPECT_TRUE(topo.nonMasterSigmas().empty());
}

TEST(SystemDirector, HierarchicalTopology)
{
    auto topo = SystemDirector::assign(16, 4);
    EXPECT_EQ(topo.masterId(), 0);
    EXPECT_EQ(topo.nonMasterSigmas().size(), 3u);

    int deltas = 0;
    for (const auto &n : topo.nodes) {
        if (n.role == NodeRole::Delta) {
            ++deltas;
            EXPECT_EQ(n.parent, topo.groupSigma(n.group));
        }
        if (n.role == NodeRole::GroupSigma) {
            EXPECT_EQ(n.parent, 0);
        }
    }
    EXPECT_EQ(deltas, 12);
    for (int g = 0; g < 4; ++g)
        EXPECT_EQ(topo.groupMembers(g).size(), 3u);
}

TEST(SystemDirector, UnevenGroups)
{
    auto topo = SystemDirector::assign(10, 3);
    size_t total = 0;
    for (int g = 0; g < 3; ++g) {
        auto members = topo.groupMembers(g);
        total += members.size() + 1;
        EXPECT_GE(members.size(), 2u);
        EXPECT_LE(members.size(), 3u);
    }
    EXPECT_EQ(total, 10u);
}

TEST(SystemDirector, RejectsBadSpecs)
{
    EXPECT_THROW(SystemDirector::assign(0, 1), cosmic::CosmicError);
    EXPECT_THROW(SystemDirector::assign(4, 5), cosmic::CosmicError);
    EXPECT_THROW(SystemDirector::assign(4, 0), cosmic::CosmicError);
}

TEST(SystemDirector, DefaultGroups)
{
    EXPECT_EQ(SystemDirector::defaultGroups(3), 1);
    EXPECT_EQ(SystemDirector::defaultGroups(4), 1);
    EXPECT_EQ(SystemDirector::defaultGroups(8), 2);
    EXPECT_EQ(SystemDirector::defaultGroups(16), 4);
}

} // namespace
} // namespace cosmic::sys
