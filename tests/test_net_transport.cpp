/**
 * @file
 * Transport-seam tests: the TCP backend must deliver the same
 * messages — and, with deterministic aggregation, the same training
 * trajectory bit for bit — as the in-process channel fabric. Runs the
 * whole TCP stack (event loop, wire codec, handshake, reconnect
 * queues) inside one process, which is how TSan sees it.
 */
#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/transport.h"
#include "system/cluster_runtime.h"

namespace cosmic::net {
namespace {

/** Builds a TCP fabric on ephemeral loopback ports and ships a few
 *  messages across every directed pair. */
void
exerciseMesh(accel::Numeric payload)
{
    const int nodes = 3;
    sys::BufferPool pool;
    TransportConfig cfg;
    cfg.kind = TransportKind::Tcp;
    cfg.payload = payload;
    auto fabric = makeTransports(cfg, nodes, &pool);

    const int64_t words = 17;
    for (int from = 0; from < nodes; ++from) {
        for (int to = 0; to < nodes; ++to) {
            sys::Message msg;
            msg.from = from;
            msg.seq = static_cast<uint64_t>(from * nodes + to);
            msg.contributors = from + 1;
            msg.payload.assign(words, 0.5 * from - 0.25 * to);
            if (payload == accel::Numeric::Q16)
                quantizePayload(msg.payload); // pre-quantized source
            fabric[from]->send(to, std::move(msg));
        }
    }
    for (int to = 0; to < nodes; ++to) {
        std::vector<bool> seen(static_cast<size_t>(nodes), false);
        for (int k = 0; k < nodes; ++k) {
            sys::Message got;
            ASSERT_TRUE(fabric[to]->inbox().receive(got))
                << "node " << to << " message " << k;
            ASSERT_GE(got.from, 0);
            ASSERT_LT(got.from, nodes);
            EXPECT_FALSE(seen[static_cast<size_t>(got.from)]);
            seen[static_cast<size_t>(got.from)] = true;
            EXPECT_EQ(got.seq,
                      static_cast<uint64_t>(got.from * nodes + to));
            EXPECT_EQ(got.contributors, got.from + 1);
            ASSERT_EQ(got.payload.size(),
                      static_cast<size_t>(words));
            const double expected = 0.5 * got.from - 0.25 * to;
            for (double v : got.payload) {
                if (payload == accel::Numeric::F64)
                    EXPECT_EQ(v, expected);
                else
                    EXPECT_NEAR(v, expected, 1.0 / 65536.0);
            }
        }
    }
    NetStats total;
    for (auto &t : fabric)
        total += t->stats();
    // 3 self-sends take the loopback shortcut; 6 cross the wire.
    EXPECT_EQ(total.framesSent, 6u);
    EXPECT_EQ(total.framesReceived, 6u);
    EXPECT_GT(total.bytesSent, 0u);
    EXPECT_EQ(total.corruptFramesDropped, 0u);
    for (auto &t : fabric)
        t->shutdown();
}

TEST(NetTransport, TcpMeshDeliversEveryPairF64)
{
    exerciseMesh(accel::Numeric::F64);
}
TEST(NetTransport, TcpMeshDeliversEveryPairQ16)
{
    exerciseMesh(accel::Numeric::Q16);
}

TEST(NetTransport, EventLoopReportsEveryReadyWatch)
{
    EventLoop loop;
    std::vector<EventLoop::Event> events;

    // Every ready watch comes back from one wait(), however many.
    const int pipes = 100;
    std::vector<std::array<int, 2>> fds(pipes);
    for (auto &p : fds) {
        ASSERT_EQ(::pipe(p.data()), 0) << std::strerror(errno);
        const char byte = 1;
        ASSERT_EQ(::write(p[1], &byte, 1), 1);
        loop.add(p[0]);
    }
    ASSERT_EQ(loop.wait(events, 1000), pipes);
    std::set<int> reported;
    for (const auto &ev : events) {
        EXPECT_TRUE(ev.readable);
        EXPECT_FALSE(ev.writable);
        reported.insert(ev.fd);
    }
    EXPECT_EQ(reported.size(), static_cast<size_t>(pipes));
    for (const auto &p : fds)
        EXPECT_EQ(reported.count(p[0]), 1u);
    for (const auto &p : fds)
        loop.remove(p[0]);
    EXPECT_EQ(loop.wait(events, 0), 0);

    // Write interest turns POLLOUT reports on and off.
    const int writer = fds[0][1];
    loop.add(writer);
    EXPECT_EQ(loop.wait(events, 0), 0);
    loop.setWriteInterest(writer, true);
    ASSERT_EQ(loop.wait(events, 0), 1);
    EXPECT_EQ(events[0].fd, writer);
    EXPECT_TRUE(events[0].writable);
    loop.setWriteInterest(writer, false);
    EXPECT_EQ(loop.wait(events, 0), 0);
    loop.remove(writer);
    EXPECT_THROW(loop.remove(writer), CosmicError);
    EXPECT_THROW(loop.setWriteInterest(writer, true), CosmicError);

    // notify() wakes a wait() blocked on nothing ready.
    const uint64_t before = loop.wakeups();
    const auto start = std::chrono::steady_clock::now();
    int woke = -1;
    std::thread waiter([&] { woke = loop.wait(events, 10000); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.notify();
    waiter.join();
    EXPECT_EQ(woke, 0);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_EQ(loop.wakeups(), before + 1);

    for (const auto &p : fds) {
        ::close(p[0]);
        ::close(p[1]);
    }
}

/** Trains one cluster per backend with deterministic aggregation and
 *  demands bit-identical final models. */
void
expectBackendsBitIdentical(const std::string &workload,
                           accel::Numeric payload)
{
    sys::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.aggregation.deterministic = true;
    cfg.transport.payload = payload;

    cfg.transport.kind = TransportKind::InProcess;
    sys::ClusterRuntime inproc(ml::Workload::byName(workload), 64.0,
                               cfg);
    auto a = inproc.train(2);

    cfg.transport.kind = TransportKind::Tcp;
    sys::ClusterRuntime tcp(ml::Workload::byName(workload), 64.0, cfg);
    auto b = tcp.train(2);

    ASSERT_EQ(a.finalModel.size(), b.finalModel.size());
    for (size_t i = 0; i < a.finalModel.size(); ++i)
        EXPECT_EQ(std::memcmp(&a.finalModel[i], &b.finalModel[i],
                              sizeof(double)),
                  0)
            << "word " << i;
    // The TCP run actually crossed sockets.
    EXPECT_GT(b.net.bytesSent, 0u);
    EXPECT_GT(b.net.framesReceived, 0u);
    EXPECT_EQ(b.net.corruptFramesDropped, 0u);
    EXPECT_EQ(a.net.bytesSent, 0u); // in-process fabric has no wire
}

TEST(NetTransport, TrainingBitIdenticalAcrossBackendsF64)
{
    expectBackendsBitIdentical("stock", accel::Numeric::F64);
}

TEST(NetTransport, TrainingBitIdenticalAcrossBackendsQ16)
{
    expectBackendsBitIdentical("stock", accel::Numeric::Q16);
}

TEST(NetTransport, DeterministicAggregationIsBitStableInProcess)
{
    // The deterministic fold must make repeated in-process runs
    // bit-identical to each other (the property the cross-backend
    // comparison stands on).
    sys::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.aggregation.deterministic = true;
    sys::ClusterRuntime r1(ml::Workload::byName("tumor"), 64.0, cfg);
    auto a = r1.train(2);
    sys::ClusterRuntime r2(ml::Workload::byName("tumor"), 64.0, cfg);
    auto b = r2.train(2);
    ASSERT_EQ(a.finalModel.size(), b.finalModel.size());
    for (size_t i = 0; i < a.finalModel.size(); ++i)
        EXPECT_EQ(std::memcmp(&a.finalModel[i], &b.finalModel[i],
                              sizeof(double)),
                  0);
}

TEST(NetSocket, ParseHostPort)
{
    HostPort hp = parseHostPort("10.1.2.3:7000");
    EXPECT_EQ(hp.host, "10.1.2.3");
    EXPECT_EQ(hp.port, 7000);
    hp = parseHostPort(":0");
    EXPECT_EQ(hp.host, "127.0.0.1"); // empty host = loopback
    EXPECT_EQ(hp.port, 0);
}

TEST(NetSocket, EphemeralListenerResolvesItsPort)
{
    const int fd = listenTcp(HostPort{"127.0.0.1", 0});
    ASSERT_GE(fd, 0);
    EXPECT_GT(localPort(fd), 0);
    ::close(fd);
}

} // namespace
} // namespace cosmic::net
