/**
 * @file
 * The pluggable transport seam between nodes.
 *
 * A Transport is one node's endpoint into the cluster fabric: send()
 * pushes a Message toward a peer and inbox() is the Channel the node's
 * protocol loop receives from. Two backends implement the interface:
 *
 *  - InProcessTransport — the original single-process fabric. Every
 *    endpoint shares one array of inbox Channels and send() is a
 *    queue push. Default, and bit-exact with the pre-transport
 *    runtime.
 *  - TcpTransport — real sockets. send() serializes the Message into
 *    the wire format (net/wire.h) and a dedicated network thread per
 *    node moves bytes through a non-blocking poll() event loop;
 *    decoded messages land in the same inbox Channel, with payloads
 *    acquired from the shared BufferPool so the zero-copy aggregation
 *    path downstream is unchanged.
 *
 * Fault injection lives here, at the transport seam: every backend's
 * send() runs the same faultCopies() filter (drop / delay / duplicate
 * from the FaultInjector), so chaos plans behave identically whether
 * messages cross a queue or a socket. Channel itself no longer knows
 * about faults.
 *
 * Payload kinds: F64 is lossless; Q16 mirrors the accelerator's
 * Q16.16 datapath on the wire (half the bytes). The in-process
 * backend applies the same quantization in Q16 mode, so a training
 * run is bit-identical across backends for *both* payload kinds.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "system/buffer_pool.h"
#include "system/channel.h"

namespace cosmic::sys {
class FaultInjector;
}

namespace cosmic::net {

/** Which fabric carries the messages. */
enum class TransportKind
{
    /** Shared in-process Channels (single OS process; default). */
    InProcess,
    /** Real TCP sockets + wire protocol (works across processes). */
    Tcp,
};

/** Cluster-level transport selection (ClusterConfig::transport). */
struct TransportConfig
{
    TransportKind kind = TransportKind::InProcess;
    /** Wire encoding of payload words (Q16 also quantizes in-process
     *  sends so the backends stay bit-identical). */
    accel::Numeric payload = accel::Numeric::F64;
    /**
     * TCP only: one "host:port" per node id. Empty = bind ephemeral
     * loopback ports automatically (single-process TCP tests/benches);
     * cosmicd passes the rendezvous list shared by all processes.
     */
    std::vector<std::string> hostPorts;
    /** Carried in the connection handshake; mismatch is a refused
     *  connection (a stale process from an old topology). */
    uint32_t topologyEpoch = 0;
    /** TCP only: budget for the full-mesh rendezvous at startup. */
    double connectTimeoutMs = 10000.0;
};

/** Per-endpoint wire observability counters (summed cluster-wide into
 *  TrainingReport::net and BENCH_net.json). */
struct NetStats
{
    uint64_t bytesSent = 0;
    uint64_t bytesReceived = 0;
    uint64_t framesSent = 0;
    uint64_t framesReceived = 0;
    /** Event-loop returns (poll wakeups) on the net thread. */
    uint64_t wakeups = 0;
    /** Frames rejected by the wire validity checks. */
    uint64_t corruptFramesDropped = 0;
    /** Connections re-established after a drop. */
    uint64_t reconnects = 0;
    /** Seconds spent encoding Messages (sender threads). */
    double serializeSec = 0.0;
    /** Seconds spent decoding frames (net thread). */
    double deserializeSec = 0.0;

    NetStats &operator+=(const NetStats &o);
};

/** One node's endpoint into the cluster fabric. */
class Transport
{
  public:
    virtual ~Transport();

    /** Delivers @p msg toward node @p to (never blocks on the peer;
     *  bytes or messages queue until the fabric drains them). */
    virtual void send(int to, sys::Message msg) = 0;

    /** The inbox this node's protocol loop receives from. */
    virtual sys::Channel &inbox() = 0;

    /** Wire counters for this endpoint (zeros for in-process). */
    virtual NetStats stats() const = 0;

    /** Stops the fabric for this endpoint and closes the inbox.
     *  Idempotent; called by the destructor. */
    virtual void shutdown() = 0;

    /** Installs the chaos hook consulted on every send (nullptr
     *  disables; zero-cost). Set before traffic starts. */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        injector_ = injector;
    }

  protected:
    /**
     * The shared fault seam: resolves the injected link faults for one
     * send. Serves delay faults inline (sender-side stall), then
     * returns how many copies to deliver — 0 (dropped), 1, or 2
     * (duplicated). A single null check when no injector is installed.
     */
    int faultCopies(const sys::Message &msg, int to);

  private:
    sys::FaultInjector *injector_ = nullptr;
};

/**
 * Builds the @p nodes endpoints of one cluster fabric.
 *
 * InProcess: all endpoints share a Channel array. Tcp: binds one
 * loopback listener per node (using config.hostPorts, or ephemeral
 * ports when empty) and returns endpoints whose network threads mesh
 * up lazily — still inside this one process, which is how the TCP
 * backend is exercised under gtest/TSan; cosmicd instead builds a
 * single endpoint per OS process via makeTcpEndpoint().
 *
 * @p pool supplies payload buffers for decoded messages (may be null).
 */
std::vector<std::unique_ptr<Transport>>
makeTransports(const TransportConfig &config, int nodes,
               sys::BufferPool *pool);

/**
 * Builds one TCP endpoint for node @p self of an @p nodes-node
 * cluster whose rendezvous list is config.hostPorts (required, size
 * == nodes). This is the cosmicd entry point: one endpoint per OS
 * process. @p listener_fd may pass a pre-bound listening socket
 * (inherited across fork); -1 binds config.hostPorts[self].
 */
std::unique_ptr<Transport>
makeTcpEndpoint(const TransportConfig &config, int self, int nodes,
                sys::BufferPool *pool, int listener_fd = -1);

} // namespace cosmic::net
