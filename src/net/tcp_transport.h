/**
 * @file
 * The TCP backend: real sockets under the Transport interface.
 *
 * One TcpTransport is one node's endpoint. It owns a listening socket,
 * a dedicated network thread, and one EventLoop; the full mesh is
 * built with a deterministic dial rule — node i *connects* to every
 * peer j < i and *accepts* from every j > i — so each pair gets
 * exactly one connection with no tie-breaking. Every new connection
 * exchanges a Hello frame carrying the sender's node id and the
 * topology epoch; an epoch mismatch (a stale process from an old
 * topology) closes the connection.
 *
 *   sender threads                      network thread
 *   --------------                      --------------
 *   send(to, msg)                       poll() wait()
 *     fault filter (drop/delay/dup)       accept -> Hello handshake
 *     encodeMessage -> bytes              connect-complete -> Hello
 *     append to pending[to]  --notify-->  splice pending -> outbox
 *     payload back to pool                flush writes (partial-write
 *                                           safe, EAGAIN -> POLLOUT)
 *                                         read -> inbuf -> peekFrame
 *                                         decodeMessage (pool buffers)
 *                                           -> inbox Channel
 *
 * Sender threads never touch a socket: they serialize, queue bytes,
 * and kick the network thread through the event loop's wakeup pipe.
 * The network thread owns every fd exclusively, so no socket state
 * needs locking; the only shared state is the pending byte queues
 * (one mutex) and the stats counters (relaxed atomics).
 *
 * A send() before the mesh is up just parks bytes in pending — the
 * network thread splices them once the peer's handshake completes, so
 * early traffic (iteration 0 racing the rendezvous) is never lost.
 * A torn connection drops its queued bytes (the wire ate them — the
 * failure-tolerant protocol's timeouts own recovery) and the dialing
 * side redials until the connect budget runs out.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"
#include "net/transport.h"

namespace cosmic::net {

/** One node's TCP endpoint (see file comment for the design). */
class TcpTransport final : public Transport
{
  public:
    /**
     * Starts the endpoint for node @p self of an @p nodes-node
     * cluster. config.hostPorts must list one endpoint per node.
     * @p listener_fd adopts a pre-bound listening socket (cosmicd
     * inherits these across fork); -1 binds hostPorts[self] here.
     */
    TcpTransport(const TransportConfig &config, int self, int nodes,
                 sys::BufferPool *pool, int listener_fd = -1);
    ~TcpTransport() override;

    void send(int to, sys::Message msg) override;
    sys::Channel &inbox() override { return inbox_; }
    NetStats stats() const override;
    void shutdown() override;

  private:
    /** Net-thread-owned state of one peer connection. */
    struct Peer
    {
        int fd = -1;
        /** Non-blocking connect in flight (completion = writable). */
        bool connecting = false;
        /** TCP up + our Hello queued: outbox may flow. */
        bool established = false;
        /** Was ever established (distinguishes reconnect from the
         *  initial rendezvous). */
        bool wasEstablished = false;
        /** Dial budget exhausted; pending bytes are dropped. */
        bool gaveUp = false;
        /** Earliest monotonic ms for the next dial attempt. */
        double retryAtMs = 0.0;
        /** Outbound bytes (net-thread owned; fed from pending_). */
        std::vector<uint8_t> outbox;
        size_t outOff = 0;
        /** Inbound byte stream awaiting complete frames. */
        std::vector<uint8_t> inbuf;
        size_t inOff = 0;
    };

    /** An accepted connection whose Hello has not yet arrived. */
    struct Anon
    {
        int fd = -1;
        std::vector<uint8_t> inbuf;
        size_t inOff = 0;
        std::vector<uint8_t> outbox;
        size_t outOff = 0;
    };

    void run();
    void startConnect(int id);
    void onConnectWritable(int id);
    void acceptNew();
    void promoteAnon(size_t idx, int id);
    bool readInto(int fd, std::vector<uint8_t> &inbuf,
                  bool &saw_eof);
    /** @return false when the connection must be closed. */
    bool parseFrames(int from_hint, std::vector<uint8_t> &inbuf,
                     size_t &in_off, int *hello_from);
    void flushPeer(int id);
    void flushBytes(int fd, std::vector<uint8_t> &outbox,
                    size_t &out_off, bool &fatal);
    void closePeer(int id, bool redial);
    void spliceOutbound();
    double nowMs() const;

    TransportConfig config_;
    int self_;
    int nodes_;
    sys::BufferPool *pool_;
    sys::Channel inbox_;
    EventLoop loop_;
    int listenFd_ = -1;
    std::vector<HostPort> peerAddr_;

    /** Sender-side byte queues, by destination node (sendMutex_). */
    std::mutex sendMutex_;
    std::vector<std::vector<uint8_t>> pending_;

    std::vector<Peer> peers_;
    std::vector<Anon> anons_;
    double dialDeadlineMs_ = 0.0;

    std::thread thread_;
    std::atomic<bool> running_{true};

    std::atomic<uint64_t> bytesSent_{0};
    std::atomic<uint64_t> bytesReceived_{0};
    std::atomic<uint64_t> framesSent_{0};
    std::atomic<uint64_t> framesReceived_{0};
    std::atomic<uint64_t> corrupt_{0};
    std::atomic<uint64_t> reconnects_{0};
    std::atomic<uint64_t> serializeNs_{0};
    std::atomic<uint64_t> deserializeNs_{0};
};

} // namespace cosmic::net
