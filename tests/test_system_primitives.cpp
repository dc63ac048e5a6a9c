/**
 * @file
 * Concurrency tests for the system-software primitives: channels,
 * circular buffers, and thread pools.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "system/buffer_pool.h"
#include "system/channel.h"
#include "system/circular_buffer.h"
#include "system/thread_pool.h"
#include "proc_self.h"

namespace cosmic::sys {
namespace {

TEST(Channel, FifoWithinOneSender)
{
    Channel ch;
    for (int i = 0; i < 10; ++i)
        ch.send(Message{0, static_cast<uint64_t>(i), {double(i)}});
    Message msg;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(ch.receive(msg));
        EXPECT_EQ(msg.seq, static_cast<uint64_t>(i));
    }
    EXPECT_FALSE(ch.pending());
}

TEST(Channel, TryReceiveOnEmpty)
{
    Channel ch;
    Message msg;
    EXPECT_FALSE(ch.tryReceive(msg));
}

TEST(Channel, CloseWakesReceiver)
{
    Channel ch;
    std::atomic<bool> got_false{false};
    std::thread receiver([&] {
        Message msg;
        got_false = !ch.receive(msg);
    });
    ch.close();
    receiver.join();
    EXPECT_TRUE(got_false);
}

TEST(Channel, ManyProducersNoLoss)
{
    Channel ch;
    const int producers = 8;
    const int per_producer = 200;
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i)
                ch.send(Message{p, static_cast<uint64_t>(i), {}});
        });
    }
    for (auto &t : threads)
        t.join();

    std::vector<int> counts(producers, 0);
    Message msg;
    for (int i = 0; i < producers * per_producer; ++i) {
        ASSERT_TRUE(ch.receive(msg));
        ++counts[msg.from];
    }
    for (int p = 0; p < producers; ++p)
        EXPECT_EQ(counts[p], per_producer);
}

/**
 * The close/drain ordering contract (documented in channel.h):
 * messages sent before close() stay receivable — receivers drain the
 * queue first and only then observe the closed state.
 */
TEST(Channel, PreCloseSendsDrainBeforeClosedIsReported)
{
    Channel ch;
    ch.send(Message{0, 0, {1.0}});
    ch.send(Message{0, 1, {2.0}});
    ch.close();

    Message msg;
    ASSERT_TRUE(ch.receive(msg));
    EXPECT_EQ(msg.seq, 0u);
    ASSERT_TRUE(ch.receive(msg));
    EXPECT_EQ(msg.seq, 1u);
    EXPECT_FALSE(ch.receive(msg)); // drained -> closed
}

/** The other half of the contract: post-close sends are dropped (the
 *  socket is gone), so producers need no shutdown handshake. */
TEST(Channel, PostCloseSendsAreDropped)
{
    Channel ch;
    ch.send(Message{0, 0, {}});
    ch.close();
    ch.send(Message{0, 1, {}}); // eaten by the dead socket

    Message msg;
    ASSERT_TRUE(ch.receive(msg));
    EXPECT_EQ(msg.seq, 0u);
    EXPECT_FALSE(ch.receive(msg));
    EXPECT_FALSE(ch.pending());
}

TEST(Channel, ReceiveForTimesOutOnOpenEmptyChannel)
{
    Channel ch;
    Message msg;
    EXPECT_EQ(ch.receiveFor(msg, 5.0), RecvStatus::Timeout);
}

TEST(Channel, ReceiveForDequeuesAndThenReportsClosed)
{
    Channel ch;
    ch.send(Message{3, 7, {1.0}});
    ch.close();

    Message msg;
    EXPECT_EQ(ch.receiveFor(msg, 1000.0), RecvStatus::Ok);
    EXPECT_EQ(msg.from, 3);
    // Closed-and-drained must return immediately, not burn the window.
    EXPECT_EQ(ch.receiveFor(msg, 60000.0), RecvStatus::Closed);
}

TEST(Channel, ReceiveForWokenByLateSend)
{
    Channel ch;
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ch.send(Message{1, 0, {4.0}});
    });
    Message msg;
    EXPECT_EQ(ch.receiveFor(msg, 60000.0), RecvStatus::Ok);
    EXPECT_EQ(msg.from, 1);
    producer.join();
}

TEST(Channel, ReceiveForWokenByClose)
{
    Channel ch;
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ch.close();
    });
    Message msg;
    EXPECT_EQ(ch.receiveFor(msg, 60000.0), RecvStatus::Closed);
    closer.join();
}

TEST(Channel, ReceiveForSubQuantumTimeoutReturnsPromptly)
{
    // Regression: receiveFor used to rearm its full relative window on
    // every wakeup, so a timeout shorter than a scheduling quantum
    // could extend indefinitely. The deadline is absolute now — a
    // sub-millisecond (or non-positive) timeout must come back at
    // once, and a pending message must still win at zero timeout.
    Channel ch;
    Message msg;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(ch.receiveFor(msg, 0.05), RecvStatus::Timeout);
    EXPECT_EQ(ch.receiveFor(msg, 0.0), RecvStatus::Timeout);
    EXPECT_EQ(ch.receiveFor(msg, -5.0), RecvStatus::Timeout);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed_ms, 1000.0);

    ch.send(Message{3, 9, {1.0}});
    EXPECT_EQ(ch.receiveFor(msg, 0.0), RecvStatus::Ok);
    EXPECT_EQ(msg.from, 3);
    ch.close();
    EXPECT_EQ(ch.receiveFor(msg, 0.0), RecvStatus::Closed);
}

TEST(Channel, ReceiveForDeadlineIsAbsoluteUnderChurn)
{
    // Messages arriving for *other* consumers wake the timed waiter;
    // those wakeups must not push its deadline out. A greedy thread
    // drains everything the sender produces, so the timed receiver
    // mostly sees spurious wakeups — it must still return close to
    // its 100 ms window, not 100 ms after the last wakeup.
    Channel ch;
    std::atomic<bool> stop{false};
    std::thread greedy([&] {
        Message m;
        while (!stop.load(std::memory_order_relaxed))
            if (!ch.tryReceive(m))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
    });
    std::thread sender([&] {
        for (int i = 0; i < 100; ++i) {
            if (stop.load(std::memory_order_relaxed))
                break;
            ch.send(Message{0, static_cast<uint64_t>(i), {}});
            std::this_thread::sleep_for(
                std::chrono::milliseconds(3));
        }
    });
    Message msg;
    const auto t0 = std::chrono::steady_clock::now();
    const RecvStatus status = ch.receiveFor(msg, 100.0);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    sender.join();
    greedy.join();
    // The receiver may legitimately win a message off the churn (Ok)
    // or time out — but either way it must be done well before the
    // ~300 ms of churn ends plus another full window.
    EXPECT_TRUE(status == RecvStatus::Ok ||
                status == RecvStatus::Timeout);
    EXPECT_LT(elapsed_ms, 250.0);
}

TEST(CircularBuffer, BoundedAndOrdered)
{
    CircularBuffer ring(4);
    for (int i = 0; i < 4; ++i)
        ring.push(Chunk{0, i});
    EXPECT_EQ(ring.size(), 4u);

    Chunk c;
    ASSERT_TRUE(ring.pop(c));
    EXPECT_EQ(c.offset, 0);
    ring.push(Chunk{0, 4});
    for (int i = 1; i <= 4; ++i) {
        ASSERT_TRUE(ring.pop(c));
        EXPECT_EQ(c.offset, i);
    }
}

TEST(CircularBuffer, ProducerBlocksUntilConsumed)
{
    CircularBuffer ring(2);
    ring.push(Chunk{0, 0});
    ring.push(Chunk{0, 1});

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ring.push(Chunk{0, 2});
        pushed = true;
    });
    // Give the producer a chance to (wrongly) complete.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed);

    Chunk c;
    ASSERT_TRUE(ring.pop(c));
    producer.join();
    EXPECT_TRUE(pushed);
}

TEST(CircularBuffer, ConcurrentStressNoLossNoDup)
{
    CircularBuffer ring(8);
    const int producers = 4;
    const int per_producer = 500;
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            // The offset doubles as the chunk's unique identity (the
            // reference-record Chunk carries no owned values).
            for (int i = 0; i < per_producer; ++i)
                ring.push(Chunk{p, p * per_producer + i});
        });
    }

    std::mutex seen_mutex;
    std::set<int64_t> seen;
    std::vector<std::thread> consumers;
    std::atomic<int> consumed{0};
    for (int c = 0; c < 3; ++c) {
        consumers.emplace_back([&] {
            Chunk chunk;
            for (;;) {
                // Claim one pop; exactly as many pops as pushes happen.
                if (consumed.fetch_add(1) >= producers * per_producer)
                    return;
                ASSERT_TRUE(ring.pop(chunk));
                std::lock_guard<std::mutex> lock(seen_mutex);
                auto [it, inserted] = seen.insert(chunk.offset);
                EXPECT_TRUE(inserted) << "duplicate chunk";
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(producers * per_producer));
    EXPECT_LE(ring.highWater(), ring.capacity());
}

TEST(CircularBuffer, WrapAroundPreservesFifoAcrossManyCycles)
{
    // A tiny ring forced through every head position: push two, pop
    // one, so the occupancy oscillates and head_ wraps dozens of
    // times. Order must stay strictly FIFO through every wrap.
    CircularBuffer ring(3);
    int64_t next_push = 0;
    int64_t next_pop = 0;
    Chunk c;
    for (int step = 0; step < 50; ++step) {
        ring.push(Chunk{0, next_push++});
        if (ring.size() == ring.capacity() || step % 2 == 1) {
            ASSERT_TRUE(ring.pop(c));
            EXPECT_EQ(c.offset, next_pop++);
        }
    }
    while (ring.size() > 0) {
        ASSERT_TRUE(ring.pop(c));
        EXPECT_EQ(c.offset, next_pop++);
    }
    EXPECT_EQ(next_pop, next_push);
}

TEST(CircularBuffer, FullEmptyTransitionsKeepSizeExact)
{
    // Repeatedly swing between completely full and completely empty;
    // size() must be exact at every step and the high-water mark must
    // settle at capacity, never past it.
    CircularBuffer ring(4);
    Chunk c;
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (int i = 0; i < 4; ++i) {
            ring.push(Chunk{0, i});
            EXPECT_EQ(ring.size(), static_cast<size_t>(i + 1));
        }
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(ring.pop(c));
            EXPECT_EQ(ring.size(), static_cast<size_t>(3 - i));
        }
    }
    EXPECT_EQ(ring.highWater(), 4u);
}

TEST(CircularBuffer, ConsumerBlocksOnEmptyUntilProduced)
{
    CircularBuffer ring(2);
    std::atomic<bool> popped{false};
    Chunk got;
    std::thread consumer([&] {
        ASSERT_TRUE(ring.pop(got));
        popped = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(popped);

    ring.push(Chunk{0, 42});
    consumer.join();
    EXPECT_TRUE(popped);
    EXPECT_EQ(got.offset, 42);
}

TEST(CircularBuffer, CloseDrainsThenUnblocksEveryone)
{
    // Close with items still queued: consumers must drain what is
    // there, then get false; a producer blocked on a full ring must
    // wake instead of hanging forever.
    CircularBuffer ring(2);
    ring.push(Chunk{0, 0});
    ring.push(Chunk{0, 1});

    std::atomic<bool> producer_done{false};
    std::thread producer([&] {
        ring.push(Chunk{0, 2}); // blocks: ring full
        producer_done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(producer_done);

    ring.close();
    producer.join(); // close() must wake the blocked producer
    EXPECT_TRUE(producer_done);

    Chunk c;
    ASSERT_TRUE(ring.pop(c));
    EXPECT_EQ(c.offset, 0);
    ASSERT_TRUE(ring.pop(c));
    EXPECT_EQ(c.offset, 1);
    EXPECT_FALSE(ring.pop(c)) << "closed and drained rings pop false";
    EXPECT_FALSE(ring.pop(c)) << "and keep doing so";
}

TEST(CircularBuffer, ConcurrentPairHammersWrapAndTransitions)
{
    // One producer, one consumer, capacity 2: nearly every operation
    // is a full/empty transition and the head wraps constantly. FIFO
    // order must survive, and both sides must finish (no lost
    // wakeups).
    CircularBuffer ring(2);
    const int64_t total = 2000;
    std::thread producer([&] {
        for (int64_t i = 0; i < total; ++i)
            ring.push(Chunk{0, i});
    });
    Chunk c;
    for (int64_t i = 0; i < total; ++i) {
        ASSERT_TRUE(ring.pop(c));
        ASSERT_EQ(c.offset, i) << "FIFO broken at element " << i;
    }
    producer.join();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_LE(ring.highWater(), ring.capacity());
}

TEST(BufferPool, RecyclesCapacityAndCountsAllocations)
{
    BufferPool pool;
    auto a = pool.acquire(128);
    EXPECT_EQ(a.size(), 128u);
    EXPECT_EQ(pool.allocations(), 1u);
    pool.release(std::move(a));
    EXPECT_EQ(pool.freeCount(), 1u);

    // A smaller request reuses the recycled capacity without growing.
    auto b = pool.acquire(64);
    EXPECT_EQ(b.size(), 64u);
    EXPECT_EQ(pool.allocations(), 1u);
    EXPECT_EQ(pool.freeCount(), 0u);
    pool.release(std::move(b));

    // A wider request outgrows the parked buffer and is counted.
    auto c = pool.acquire(256);
    EXPECT_EQ(c.size(), 256u);
    EXPECT_EQ(pool.allocations(), 2u);
    pool.release(std::move(c));
    EXPECT_EQ(pool.acquires(), 3u);
}

TEST(BufferPool, IgnoresCapacityFreeReleases)
{
    BufferPool pool;
    pool.release(std::vector<double>{});
    EXPECT_EQ(pool.freeCount(), 0u);
}

TEST(BufferPool, ConcurrentAcquireReleaseKeepsBuffersDistinct)
{
    BufferPool pool;
    const int threads = 4;
    const int rounds = 200;
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (int r = 0; r < rounds; ++r) {
                auto buf = pool.acquire(32);
                std::fill(buf.begin(), buf.end(), double(t));
                for (double v : buf)
                    if (v != double(t))
                        ok = false;
                pool.release(std::move(buf));
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_TRUE(ok) << "two threads shared one pooled buffer";
    EXPECT_EQ(pool.acquires(),
              static_cast<uint64_t>(threads * rounds));
    EXPECT_LE(pool.allocations(), static_cast<uint64_t>(threads));
}

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 1000);
    EXPECT_EQ(pool.tasksExecuted(), 1000u);
}

TEST(ThreadPool, WaitIdleOnEmptyPool)
{
    ThreadPool pool(2);
    pool.waitIdle();
    SUCCEED();
}

TEST(ThreadPool, SpawnsNoWorkerBeforeFirstTask)
{
    testing_support::startRuntimeHelpers();
    const int before = testing_support::liveThreads();
    {
        // An unused pool reports its width, starts nothing, and its
        // waitIdle() and destructor return.
        ThreadPool idle(4);
        EXPECT_EQ(idle.size(), 4);
        EXPECT_EQ(testing_support::liveThreads(), before);
        idle.waitIdle();
        EXPECT_EQ(idle.tasksExecuted(), 0u);
    }
    EXPECT_EQ(testing_support::liveThreadsSettled(before), before);
    {
        // The first task starts every worker at once.
        ThreadPool pool(3);
        std::atomic<int> counter{0};
        pool.submit([&] { counter.fetch_add(1); });
        EXPECT_EQ(testing_support::liveThreads(), before + 3);
        pool.waitIdle();
        EXPECT_EQ(counter.load(), 1);
        EXPECT_EQ(pool.size(), 3);
    }
    EXPECT_EQ(testing_support::liveThreadsSettled(before), before);
}

TEST(ThreadPool, ReusedAcrossRounds)
{
    // The CoSMIC pools persist across iterations; no thread churn.
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { counter.fetch_add(1); });
        pool.waitIdle();
        EXPECT_EQ(counter.load(), (round + 1) * 50);
    }
    EXPECT_EQ(pool.size(), 2);
}

TEST(ThreadPool, ParallelismIsReal)
{
    ThreadPool pool(2);
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&] {
            int now = in_flight.fetch_add(1) + 1;
            int prev = max_in_flight.load();
            while (now > prev &&
                   !max_in_flight.compare_exchange_weak(prev, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            in_flight.fetch_sub(1);
        });
    }
    pool.waitIdle();
    EXPECT_GE(max_in_flight.load(), 2);
}

} // namespace
} // namespace cosmic::sys
