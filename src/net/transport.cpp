#include "net/transport.h"

#include <chrono>
#include <thread>

#include "common/error.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "system/fault.h"

namespace cosmic::net {

NetStats &
NetStats::operator+=(const NetStats &o)
{
    bytesSent += o.bytesSent;
    bytesReceived += o.bytesReceived;
    framesSent += o.framesSent;
    framesReceived += o.framesReceived;
    wakeups += o.wakeups;
    corruptFramesDropped += o.corruptFramesDropped;
    reconnects += o.reconnects;
    serializeSec += o.serializeSec;
    deserializeSec += o.deserializeSec;
    return *this;
}

Transport::~Transport() = default;

int
Transport::faultCopies(const sys::Message &msg, int to)
{
    if (!injector_)
        return 1;
    sys::FaultInjector::SendAction action =
        injector_->onSend(msg.from, to, msg.seq);
    if (action.delayMs > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(action.delayMs));
    if (action.drop)
        return 0; // the wire ate it
    return action.duplicate ? 2 : 1;
}

namespace {

/**
 * The single-process fabric: one inbox Channel per node, shared by
 * every endpoint. send() is a queue push (twice for a duplicate
 * fault); in Q16 mode the payload is quantized in place first, which
 * is exactly what one encode/decode hop of the TCP backend does.
 */
class InProcessTransport final : public Transport
{
  public:
    struct Fabric
    {
        std::vector<std::unique_ptr<sys::Channel>> inboxes;
    };

    InProcessTransport(std::shared_ptr<Fabric> fabric, int self,
                       accel::Numeric payload)
        : fabric_(std::move(fabric)), self_(self), payload_(payload)
    {
    }

    ~InProcessTransport() override { InProcessTransport::shutdown(); }

    void
    send(int to, sys::Message msg) override
    {
        const int copies = faultCopies(msg, to);
        if (copies == 0)
            return;
        if (payload_ == accel::Numeric::Q16)
            quantizePayload(msg.payload);
        sys::Channel &inbox = *fabric_->inboxes[static_cast<size_t>(to)];
        if (copies > 1)
            inbox.send(msg); // deliberate copy: the dup fault
        inbox.send(std::move(msg));
    }

    sys::Channel &
    inbox() override
    {
        return *fabric_->inboxes[static_cast<size_t>(self_)];
    }

    NetStats
    stats() const override
    {
        return NetStats{}; // no wire
    }

    void
    shutdown() override
    {
        fabric_->inboxes[static_cast<size_t>(self_)]->close();
    }

  private:
    std::shared_ptr<Fabric> fabric_;
    int self_;
    accel::Numeric payload_;
};

} // namespace

std::vector<std::unique_ptr<Transport>>
makeTransports(const TransportConfig &config, int nodes,
               sys::BufferPool *pool)
{
    COSMIC_ASSERT(nodes > 0, "a cluster needs at least one node");
    std::vector<std::unique_ptr<Transport>> endpoints;
    endpoints.reserve(static_cast<size_t>(nodes));

    if (config.kind == TransportKind::InProcess) {
        auto fabric = std::make_shared<InProcessTransport::Fabric>();
        fabric->inboxes.reserve(static_cast<size_t>(nodes));
        for (int i = 0; i < nodes; ++i)
            fabric->inboxes.push_back(
                std::make_unique<sys::Channel>());
        for (int i = 0; i < nodes; ++i)
            endpoints.push_back(std::make_unique<InProcessTransport>(
                fabric, i, config.payload));
        return endpoints;
    }

    // TCP inside one process: bind every listener first (so no
    // endpoint can dial a port nobody owns yet), then build the
    // endpoints around the pre-bound fds.
    TransportConfig resolved = config;
    std::vector<int> listeners(static_cast<size_t>(nodes), -1);
    if (resolved.hostPorts.empty()) {
        resolved.hostPorts.resize(static_cast<size_t>(nodes));
        for (int i = 0; i < nodes; ++i) {
            listeners[static_cast<size_t>(i)] =
                listenTcp(HostPort{"127.0.0.1", 0});
            resolved.hostPorts[static_cast<size_t>(i)] =
                "127.0.0.1:" +
                std::to_string(
                    localPort(listeners[static_cast<size_t>(i)]));
        }
    } else {
        COSMIC_ASSERT(
            resolved.hostPorts.size() == static_cast<size_t>(nodes),
            "transport.hostPorts lists "
                << resolved.hostPorts.size() << " endpoints for "
                << nodes << " nodes");
        for (int i = 0; i < nodes; ++i)
            listeners[static_cast<size_t>(i)] = listenTcp(
                parseHostPort(resolved.hostPorts[static_cast<size_t>(i)]));
    }
    for (int i = 0; i < nodes; ++i)
        endpoints.push_back(makeTcpEndpoint(
            resolved, i, nodes, pool, listeners[static_cast<size_t>(i)]));
    return endpoints;
}

std::unique_ptr<Transport>
makeTcpEndpoint(const TransportConfig &config, int self, int nodes,
                sys::BufferPool *pool, int listener_fd)
{
    COSMIC_ASSERT(config.hostPorts.size() == static_cast<size_t>(nodes),
                  "TCP endpoint needs one host:port per node ("
                      << config.hostPorts.size() << " given for "
                      << nodes << " nodes)");
    COSMIC_ASSERT(self >= 0 && self < nodes,
                  "node id " << self << " out of range");
    return std::make_unique<TcpTransport>(config, self, nodes, pool,
                                          listener_fd);
}

} // namespace cosmic::net
