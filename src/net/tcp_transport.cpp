#include "net/tcp_transport.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"
#include "net/wire.h"

namespace cosmic::net {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
elapsedNs(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

} // namespace

TcpTransport::TcpTransport(const TransportConfig &config, int self,
                           int nodes, sys::BufferPool *pool,
                           int listener_fd)
    : config_(config), self_(self), nodes_(nodes), pool_(pool)
{
    COSMIC_ASSERT(config_.hostPorts.size() ==
                      static_cast<size_t>(nodes_),
                  "TcpTransport needs one host:port per node");
    peerAddr_.reserve(static_cast<size_t>(nodes_));
    for (const std::string &spec : config_.hostPorts)
        peerAddr_.push_back(parseHostPort(spec));
    listenFd_ = listener_fd >= 0
                    ? listener_fd
                    : listenTcp(peerAddr_[static_cast<size_t>(self_)]);
    setNonBlocking(listenFd_);
    pending_.resize(static_cast<size_t>(nodes_));
    peers_.resize(static_cast<size_t>(nodes_));
    thread_ = std::thread([this] { run(); });
}

TcpTransport::~TcpTransport() { shutdown(); }

void
TcpTransport::shutdown()
{
    if (running_.exchange(false)) {
        loop_.notify();
        if (thread_.joinable())
            thread_.join();
    } else if (thread_.joinable()) {
        thread_.join();
    }
    inbox_.close();
}

void
TcpTransport::send(int to, sys::Message msg)
{
    COSMIC_ASSERT(to >= 0 && to < nodes_,
                  "send to node " << to << " of " << nodes_);
    const int copies = faultCopies(msg, to);
    if (copies == 0)
        return;
    if (to == self_) {
        // Loopback shortcut: no self-connection exists, but the
        // payload still takes the one-hop wire quantization in Q16
        // mode so delivery is encoding-equivalent.
        if (config_.payload == accel::Numeric::Q16)
            quantizePayload(msg.payload);
        if (copies > 1)
            inbox_.send(msg);
        inbox_.send(std::move(msg));
        return;
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<uint8_t> bytes;
    bytes.reserve(kFrameHeaderBytes +
                  msg.payload.size() * wordBytes(config_.payload));
    encodeMessage(msg, config_.payload, bytes);
    serializeNs_.fetch_add(elapsedNs(t0), std::memory_order_relaxed);
    framesSent_.fetch_add(static_cast<uint64_t>(copies),
                          std::memory_order_relaxed);
    if (pool_)
        pool_->release(std::move(msg.payload));
    {
        std::lock_guard<std::mutex> lock(sendMutex_);
        std::vector<uint8_t> &q = pending_[static_cast<size_t>(to)];
        q.insert(q.end(), bytes.begin(), bytes.end());
        if (copies > 1)
            q.insert(q.end(), bytes.begin(), bytes.end());
    }
    loop_.notify();
}

NetStats
TcpTransport::stats() const
{
    NetStats s;
    s.bytesSent = bytesSent_.load();
    s.bytesReceived = bytesReceived_.load();
    s.framesSent = framesSent_.load();
    s.framesReceived = framesReceived_.load();
    s.wakeups = loop_.wakeups();
    s.corruptFramesDropped = corrupt_.load();
    s.reconnects = reconnects_.load();
    s.serializeSec = static_cast<double>(serializeNs_.load()) * 1e-9;
    s.deserializeSec =
        static_cast<double>(deserializeNs_.load()) * 1e-9;
    return s;
}

double
TcpTransport::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

void
TcpTransport::run()
{
    loop_.add(listenFd_);
    dialDeadlineMs_ = nowMs() + config_.connectTimeoutMs;
    std::vector<EventLoop::Event> events;

    while (running_.load(std::memory_order_relaxed)) {
        const double now = nowMs();
        bool dialing = false;
        for (int j = 0; j < self_; ++j) {
            Peer &p = peers_[static_cast<size_t>(j)];
            if (p.fd >= 0 || p.gaveUp)
                continue;
            if (now >= dialDeadlineMs_) {
                p.gaveUp = true;
                std::fprintf(stderr,
                             "[cosmic-net] node %d: gave up dialing "
                             "peer %d (%s:%u)\n",
                             self_, j,
                             peerAddr_[static_cast<size_t>(j)]
                                 .host.c_str(),
                             peerAddr_[static_cast<size_t>(j)].port);
                continue;
            }
            if (now >= p.retryAtMs)
                startConnect(j);
            dialing = true;
        }
        spliceOutbound();

        const int timeout_ms = dialing ? 20 : -1;
        loop_.wait(events, timeout_ms);
        if (!running_.load(std::memory_order_relaxed))
            break;

        for (const EventLoop::Event &ev : events) {
            if (ev.fd == listenFd_) {
                if (ev.readable)
                    acceptNew();
                continue;
            }
            // Anonymous accepted connection awaiting its Hello?
            bool handled = false;
            for (size_t a = 0; a < anons_.size(); ++a) {
                if (anons_[a].fd != ev.fd)
                    continue;
                handled = true;
                bool dead = ev.hangup;
                if (ev.readable && !dead) {
                    bool eof = false;
                    dead = !readInto(ev.fd, anons_[a].inbuf, eof) ||
                           eof;
                }
                int hello_from = -1;
                if (!dead)
                    dead = !parseFrames(-1, anons_[a].inbuf,
                                        anons_[a].inOff, &hello_from);
                if (!dead && ev.writable) {
                    bool fatal = false;
                    flushBytes(ev.fd, anons_[a].outbox,
                               anons_[a].outOff, fatal);
                    dead = fatal;
                    if (!dead &&
                        anons_[a].outOff >= anons_[a].outbox.size())
                        loop_.setWriteInterest(ev.fd, false);
                }
                if (dead) {
                    loop_.remove(ev.fd);
                    ::close(ev.fd);
                    anons_.erase(anons_.begin() +
                                 static_cast<long>(a));
                } else if (hello_from >= 0) {
                    promoteAnon(a, hello_from);
                }
                break;
            }
            if (handled)
                continue;
            for (int j = 0; j < nodes_; ++j) {
                Peer &p = peers_[static_cast<size_t>(j)];
                if (p.fd != ev.fd)
                    continue;
                if (p.connecting) {
                    if (ev.writable || ev.hangup)
                        onConnectWritable(j);
                    break;
                }
                if (ev.hangup) {
                    closePeer(j, /*redial=*/j < self_);
                    break;
                }
                if (ev.readable) {
                    bool eof = false;
                    bool ok = readInto(ev.fd, p.inbuf, eof);
                    if (ok)
                        ok = parseFrames(j, p.inbuf, p.inOff,
                                         nullptr);
                    if (!ok || eof) {
                        closePeer(j, /*redial=*/j < self_);
                        break;
                    }
                }
                if (ev.writable)
                    flushPeer(j);
                break;
            }
        }
    }

    // Drain before teardown: a broadcast sent right before shutdown
    // (the master's last iteration) must reach the wire, not die in
    // an outbox. Bounded so a wedged peer cannot hang the exit.
    const double drain_deadline = nowMs() + 2000.0;
    while (nowMs() < drain_deadline) {
        spliceOutbound();
        bool outstanding = false;
        {
            std::lock_guard<std::mutex> lock(sendMutex_);
            for (int j = 0; j < nodes_; ++j) {
                const Peer &p = peers_[static_cast<size_t>(j)];
                if (!pending_[static_cast<size_t>(j)].empty() &&
                    p.established)
                    outstanding = true;
                if (p.fd >= 0 && p.outOff < p.outbox.size())
                    outstanding = true;
            }
        }
        if (!outstanding)
            break;
        loop_.wait(events, 10); // let POLLOUT come around
    }

    // Net thread owns every fd: close them all on the way out.
    for (int j = 0; j < nodes_; ++j) {
        Peer &p = peers_[static_cast<size_t>(j)];
        if (p.fd >= 0) {
            loop_.remove(p.fd);
            ::close(p.fd);
            p.fd = -1;
        }
    }
    for (Anon &a : anons_) {
        loop_.remove(a.fd);
        ::close(a.fd);
    }
    anons_.clear();
    loop_.remove(listenFd_);
    ::close(listenFd_);
    listenFd_ = -1;
    inbox_.close();
}

void
TcpTransport::startConnect(int id)
{
    Peer &p = peers_[static_cast<size_t>(id)];
    p.fd = connectTcpNonBlocking(peerAddr_[static_cast<size_t>(id)]);
    p.connecting = true;
    // Completion (or refusal) is reported as write readiness.
    loop_.add(p.fd, /*want_write=*/true);
}

void
TcpTransport::onConnectWritable(int id)
{
    Peer &p = peers_[static_cast<size_t>(id)];
    p.connecting = false;
    if (!finishConnect(p.fd)) {
        closePeer(id, /*redial=*/true);
        return;
    }
    // Hello goes out first, ahead of any spliced traffic.
    p.outbox.clear();
    p.outOff = 0;
    encodeHello(self_, config_.topologyEpoch, p.outbox);
    p.established = true;
    if (p.wasEstablished)
        reconnects_.fetch_add(1, std::memory_order_relaxed);
    p.wasEstablished = true;
    flushPeer(id);
}

void
TcpTransport::acceptNew()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient error: nothing to accept
        setNonBlocking(fd);
        setNoDelay(fd);
        Anon anon;
        anon.fd = fd;
        // We greet first; the peer's Hello tells us who they are.
        encodeHello(self_, config_.topologyEpoch, anon.outbox);
        bool fatal = false;
        flushBytes(fd, anon.outbox, anon.outOff, fatal);
        if (fatal) {
            ::close(fd);
            continue;
        }
        loop_.add(fd, anon.outOff < anon.outbox.size());
        anons_.push_back(std::move(anon));
    }
}

void
TcpTransport::promoteAnon(size_t idx, int id)
{
    Anon anon = std::move(anons_[idx]);
    anons_.erase(anons_.begin() + static_cast<long>(idx));
    if (id <= self_ || id >= nodes_) {
        // Only higher-id peers dial us; anything else is a protocol
        // violation (or a duplicate direction) — refuse it.
        std::fprintf(stderr,
                     "[cosmic-net] node %d: unexpected Hello from "
                     "node %d on accepted connection\n",
                     self_, id);
        loop_.remove(anon.fd);
        ::close(anon.fd);
        return;
    }
    Peer &p = peers_[static_cast<size_t>(id)];
    if (p.fd >= 0) {
        // Stale duplicate (peer redialed before we saw the hangup):
        // the fresh connection wins.
        loop_.remove(p.fd);
        ::close(p.fd);
        if (p.established)
            reconnects_.fetch_add(1, std::memory_order_relaxed);
        p = Peer{};
    }
    p.fd = anon.fd;
    p.established = true;
    p.wasEstablished = true;
    p.outbox = std::move(anon.outbox);
    p.outOff = anon.outOff;
    p.inbuf = std::move(anon.inbuf);
    p.inOff = anon.inOff;
    // Frames may have arrived right behind the Hello.
    if (!parseFrames(id, p.inbuf, p.inOff, nullptr)) {
        closePeer(id, /*redial=*/false);
        return;
    }
    flushPeer(id);
}

bool
TcpTransport::readInto(int fd, std::vector<uint8_t> &inbuf,
                       bool &saw_eof)
{
    char buf[65536];
    while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            inbuf.insert(inbuf.end(), buf, buf + n);
            bytesReceived_.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
            continue;
        }
        if (n == 0) {
            saw_eof = true;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false;
    }
}

bool
TcpTransport::parseFrames(int from_hint,
                          std::vector<uint8_t> &inbuf, size_t &in_off,
                          int *hello_from)
{
    while (in_off < inbuf.size()) {
        WireHeader hdr;
        size_t frame_bytes = 0;
        const FrameStatus status =
            peekFrame(inbuf.data() + in_off, inbuf.size() - in_off,
                      hdr, frame_bytes);
        if (status == FrameStatus::NeedMore)
            break;
        if (status == FrameStatus::Corrupt) {
            corrupt_.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr,
                         "[cosmic-net] node %d: corrupt frame from "
                         "node %d, dropping connection\n",
                         self_, from_hint);
            return false;
        }
        if (hdr.frame == FrameKind::Hello) {
            if (hdr.seq !=
                static_cast<uint64_t>(config_.topologyEpoch)) {
                std::fprintf(stderr,
                             "[cosmic-net] node %d: topology epoch "
                             "mismatch (%llu != %u) from node %d\n",
                             self_,
                             static_cast<unsigned long long>(hdr.seq),
                             config_.topologyEpoch, hdr.from);
                return false;
            }
            if (hello_from)
                *hello_from = hdr.from;
            in_off += frame_bytes;
            if (hello_from)
                break; // promote first; remaining bytes parse after
            continue;
        }
        if (from_hint < 0) {
            // A data frame before the Hello: protocol violation.
            corrupt_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        const Clock::time_point t0 = Clock::now();
        sys::Message msg;
        decodeMessage(hdr, inbuf.data() + in_off, msg, pool_);
        deserializeNs_.fetch_add(elapsedNs(t0),
                                 std::memory_order_relaxed);
        framesReceived_.fetch_add(1, std::memory_order_relaxed);
        inbox_.send(std::move(msg));
        in_off += frame_bytes;
    }
    // Compact the consumed prefix so the buffer cannot grow without
    // bound across iterations.
    if (in_off > 0) {
        inbuf.erase(inbuf.begin(), inbuf.begin() +
                                       static_cast<long>(in_off));
        in_off = 0;
    }
    return true;
}

void
TcpTransport::flushBytes(int fd, std::vector<uint8_t> &outbox,
                         size_t &out_off, bool &fatal)
{
    fatal = false;
    while (out_off < outbox.size()) {
        const ssize_t n =
            ::send(fd, outbox.data() + out_off,
                   outbox.size() - out_off, MSG_NOSIGNAL);
        if (n > 0) {
            out_off += static_cast<size_t>(n);
            bytesSent_.fetch_add(static_cast<uint64_t>(n),
                                 std::memory_order_relaxed);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        fatal = true;
        return;
    }
    outbox.clear();
    out_off = 0;
}

void
TcpTransport::flushPeer(int id)
{
    Peer &p = peers_[static_cast<size_t>(id)];
    if (p.fd < 0)
        return;
    bool fatal = false;
    flushBytes(p.fd, p.outbox, p.outOff, fatal);
    if (fatal) {
        closePeer(id, /*redial=*/id < self_);
        return;
    }
    loop_.setWriteInterest(p.fd, p.outOff < p.outbox.size());
}

void
TcpTransport::closePeer(int id, bool redial)
{
    Peer &p = peers_[static_cast<size_t>(id)];
    if (p.fd < 0)
        return;
    loop_.remove(p.fd);
    ::close(p.fd);
    const bool was_established = p.established;
    const bool was_ever = p.wasEstablished;
    p = Peer{};
    p.wasEstablished = was_ever;
    if (was_established && redial)
        reconnects_.fetch_add(1, std::memory_order_relaxed);
    if (redial)
        p.retryAtMs = nowMs() + 50.0;
    // Queued-but-unsent bytes died with the connection (a torn stream
    // cannot be resumed mid-frame); the failure-tolerant protocol's
    // receive timeouts own recovery.
    std::lock_guard<std::mutex> lock(sendMutex_);
    pending_[static_cast<size_t>(id)].clear();
}

void
TcpTransport::spliceOutbound()
{
    // Move sender-queued bytes into established peers' outboxes.
    {
        std::lock_guard<std::mutex> lock(sendMutex_);
        for (int j = 0; j < nodes_; ++j) {
            Peer &p = peers_[static_cast<size_t>(j)];
            std::vector<uint8_t> &q =
                pending_[static_cast<size_t>(j)];
            if (q.empty())
                continue;
            if (!p.established) {
                if (p.gaveUp)
                    q.clear(); // unreachable peer: the wire ate them
                continue;
            }
            if (p.outbox.empty()) {
                p.outbox = std::move(q);
                p.outOff = 0;
            } else {
                p.outbox.insert(p.outbox.end(), q.begin(), q.end());
            }
            q.clear();
        }
    }
    for (int j = 0; j < nodes_; ++j) {
        Peer &p = peers_[static_cast<size_t>(j)];
        if (p.established && p.outOff < p.outbox.size())
            flushPeer(j);
    }
}

} // namespace cosmic::net
