/**
 * @file
 * Transport-seam tests: the TCP backend must deliver the same
 * messages — and, with deterministic aggregation, the same training
 * trajectory bit for bit — as the in-process channel fabric. Runs the
 * whole TCP stack (event loop, wire codec, handshake, reconnect
 * queues) inside one process, which is how TSan sees it.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include <unistd.h>

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

TEST(NetTransport, PollFallbackDeliversToo)
{
    // COSMIC_NET_FORCE_POLL routes the event loop through poll();
    // the transport must behave identically.
    ::setenv("COSMIC_NET_FORCE_POLL", "1", 1);
    {
        EventLoop probe;
        EXPECT_FALSE(probe.usingEpoll());
    }
    exerciseMesh(accel::Numeric::F64);
    ::unsetenv("COSMIC_NET_FORCE_POLL");
    EventLoop probe;
    EXPECT_TRUE(probe.usingEpoll());
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
