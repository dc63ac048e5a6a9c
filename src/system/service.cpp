#include "system/service.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "net/socket.h"
#include "net/wire.h"

namespace cosmic::sys {

namespace {

/** Status snapshot word layout inside a JobStatus payload. */
constexpr size_t kStatusWords = 5;

/** Sends all of @p data; false (errno set) when the send fails. */
bool
trySendAll(int fd, const uint8_t *data, size_t size)
{
    size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::send(fd, data + sent, size - sent,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

void
sendAll(int fd, const uint8_t *data, size_t size)
{
    if (!trySendAll(fd, data, size))
        COSMIC_FATAL("service: send failed: " << std::strerror(errno));
}

/** Encodes @p progress as a JobStatus frame for @p job_id. */
sys::Message
statusMessage(uint64_t job_id, const JobProgress &progress)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::JobStatus;
    msg.seq = job_id;
    msg.contributors = static_cast<int>(progress.state);
    msg.payload = {static_cast<double>(progress.epochsDone),
                   static_cast<double>(progress.totalEpochs),
                   progress.lastLoss, progress.queueWaitSec,
                   static_cast<double>(progress.iterations)};
    if (!progress.error.empty()) {
        std::vector<double> text;
        msg.offset = net::packText(progress.error, text);
        msg.payload.insert(msg.payload.end(), text.begin(),
                           text.end());
    }
    return msg;
}

/** Decodes a JobStatus frame back into a snapshot. */
JobProgress
decodeStatus(const sys::Message &msg)
{
    if (msg.kind != sys::MsgKind::JobStatus)
        COSMIC_FATAL("service: expected JobStatus, got msgKind "
                     << static_cast<int>(msg.kind));
    if (msg.payload.size() < kStatusWords)
        COSMIC_FATAL("service: short JobStatus payload ("
                     << msg.payload.size() << " words)");
    JobProgress p;
    p.state = static_cast<JobState>(msg.contributors);
    p.epochsDone = static_cast<int>(msg.payload[0]);
    p.totalEpochs = static_cast<int>(msg.payload[1]);
    p.lastLoss = msg.payload[2];
    p.queueWaitSec = msg.payload[3];
    p.iterations = static_cast<uint64_t>(msg.payload[4]);
    if (msg.offset > 0) {
        // The error text rides after the status words; unpackText
        // reads from the payload head, so hand it just the tail.
        sys::Message text;
        text.payload.assign(msg.payload.begin() + kStatusWords,
                            msg.payload.end());
        text.offset = msg.offset;
        p.error = net::unpackText(text);
    }
    return p;
}

bool
terminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled ||
           state == JobState::Rejected;
}

} // namespace

/** One accepted connection: fd + write lock (the handler's replies
 *  and a streaming subscription's pushes interleave). */
struct ServiceFrontDoor::Connection
{
    int fd = -1;
    std::mutex writeMu;
    /** No more frames go out (the peer hung up, or shutdown/close). */
    bool shut = false;
    bool closed = false;

    /**
     * Sends @p msg. A peer that hung up (EPIPE, ECONNRESET) does not
     * throw: progress pushes run on the job's thread, and a subscriber
     * leaving must not fail the job. The connection is shut down
     * instead, which drops this and every later frame and wakes the
     * handler's recv(), which then closes the fd.
     */
    void
    write(const sys::Message &msg)
    {
        std::lock_guard<std::mutex> lock(writeMu);
        if (shut)
            return;
        std::vector<uint8_t> frame;
        net::encodeMessage(msg, accel::Numeric::F64, frame);
        if (!trySendAll(fd, frame.data(), frame.size()))
            shutdownLocked();
    }

    /**
     * Ends all traffic and wakes a recv() blocked on the fd. The fd
     * stays open until close(), so its number cannot be reused under
     * a handler still inside recv().
     */
    void
    shutdown()
    {
        std::lock_guard<std::mutex> lock(writeMu);
        shutdownLocked();
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(writeMu);
        shutdownLocked();
        if (!closed) {
            ::close(fd);
            closed = true;
        }
    }

  private:
    void
    shutdownLocked()
    {
        if (!shut) {
            ::shutdown(fd, SHUT_RDWR);
            shut = true;
        }
    }
};

/** One connection's handler thread and the connection it serves. */
struct ServiceFrontDoor::Handler
{
    std::shared_ptr<Connection> conn;
    std::thread thread;
};

ServiceFrontDoor::ServiceFrontDoor(const SchedulerConfig &cfg,
                                   const std::string &endpoint)
    : scheduler_(cfg)
{
    const net::HostPort hp = net::parseHostPort(endpoint);
    listenFd_ = net::listenTcp(hp);
    port_ = net::localPort(listenFd_);
    // The loop gets the fd by value: stop() resets the member while
    // the loop may still be reading.
    acceptor_ = std::thread([this, fd = listenFd_] { acceptLoop(fd); });
}

ServiceFrontDoor::~ServiceFrontDoor() { stop(); }

void
ServiceFrontDoor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    // Shutting the listener down wakes the blocked accept(); close it
    // only after the loop is gone, so its number cannot be reused
    // under a running accept().
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    std::unordered_map<uint64_t, Handler> handlers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        handlers.swap(handlers_);
    }
    // Wake every handler, and close each fd only once its handler has
    // left recv().
    for (auto &[id, h] : handlers)
        h.conn->shutdown();
    for (auto &[id, h] : handlers) {
        h.thread.join();
        h.conn->close();
    }
    scheduler_.shutdown();
}

void
ServiceFrontDoor::reapFinished()
{
    std::vector<Handler> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (uint64_t id : finished_) {
            auto it = handlers_.find(id);
            done.push_back(std::move(it->second));
            handlers_.erase(it);
        }
        finished_.clear();
    }
    // Each of these threads has left handle() and only unwinds now.
    for (auto &h : done)
        h.thread.join();
}

void
ServiceFrontDoor::acceptLoop(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down by stop()
        }
        net::setNoDelay(fd);
        reapFinished();
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            conn->close();
            return;
        }
        // The thread reports back under mu_, which this guard holds
        // until the entry is in place.
        const uint64_t id = nextConn_++;
        handlers_.emplace(
            id, Handler{conn, std::thread([this, conn, id] {
                            try {
                                handle(conn);
                            } catch (const std::exception &) {
                                // Nothing is left to serve on this
                                // connection.
                                conn->close();
                            }
                            std::lock_guard<std::mutex> lock(mu_);
                            finished_.push_back(id);
                        })});
    }
}

void
ServiceFrontDoor::handle(std::shared_ptr<Connection> conn)
{
    std::vector<uint8_t> buf;
    uint8_t chunk[4096];
    for (;;) {
        // Drain complete frames already buffered.
        size_t consumed = 0;
        for (;;) {
            net::WireHeader hdr;
            size_t frame_bytes = 0;
            const net::FrameStatus st =
                net::peekFrame(buf.data() + consumed,
                               buf.size() - consumed, hdr,
                               frame_bytes);
            if (st == net::FrameStatus::NeedMore)
                break;
            if (st == net::FrameStatus::Corrupt) {
                conn->close();
                return;
            }
            sys::Message msg;
            net::decodeMessage(hdr, buf.data() + consumed, msg,
                               nullptr);
            consumed += frame_bytes;

            switch (msg.kind) {
            case sys::MsgKind::SubmitJob: {
                JobSpec spec;
                uint64_t id = 0;
                try {
                    spec = JobSpec::fromText(net::unpackText(msg));
                    id = scheduler_.submit(std::move(spec));
                    conn->write(
                        statusMessage(id, scheduler_.progress(id)));
                } catch (const std::exception &e) {
                    // A malformed spec never reaches the scheduler;
                    // ack with a Rejected snapshot (id 0).
                    JobProgress p;
                    p.state = JobState::Rejected;
                    p.error = e.what();
                    conn->write(statusMessage(0, p));
                }
                break;
            }
            case sys::MsgKind::JobStatus: {
                auto session = scheduler_.session(msg.seq);
                if (!session) {
                    JobProgress p;
                    p.state = JobState::Rejected;
                    p.error = "unknown job id";
                    conn->write(statusMessage(msg.seq, p));
                    break;
                }
                if (msg.contributors == 1) {
                    // Streaming subscription: push every transition
                    // until terminal. The weak_ptr keeps a dead
                    // connection from holding the session alive.
                    const uint64_t id = msg.seq;
                    std::weak_ptr<Connection> weak = conn;
                    session->setProgressSink(
                        [weak, id](const JobProgress &p) {
                            if (auto c = weak.lock())
                                c->write(statusMessage(id, p));
                        });
                    // The sink only fires on *future* transitions; a
                    // job already terminal would stream nothing, so
                    // always push the current snapshot too.
                    conn->write(
                        statusMessage(id, session->progress()));
                } else {
                    conn->write(statusMessage(
                        msg.seq, session->progress()));
                }
                break;
            }
            case sys::MsgKind::JobResult: {
                auto session = scheduler_.session(msg.seq);
                if (!session) {
                    JobProgress p;
                    p.state = JobState::Rejected;
                    p.error = "unknown job id";
                    conn->write(statusMessage(msg.seq, p));
                    break;
                }
                const JobProgress p = session->progress();
                if (p.state == JobState::Done) {
                    sys::Message reply;
                    reply.kind = sys::MsgKind::JobResult;
                    reply.seq = msg.seq;
                    reply.contributors = static_cast<int>(p.state);
                    reply.payload = session->report().finalModel;
                    conn->write(reply);
                } else {
                    conn->write(statusMessage(msg.seq, p));
                }
                break;
            }
            case sys::MsgKind::CancelJob: {
                scheduler_.cancel(msg.seq);
                auto session = scheduler_.session(msg.seq);
                JobProgress p;
                if (session) {
                    p = session->progress();
                } else {
                    p.state = JobState::Rejected;
                    p.error = "unknown job id";
                }
                conn->write(statusMessage(msg.seq, p));
                break;
            }
            default:
                // Training msgKinds do not belong on a service
                // connection; drop it rather than guess.
                conn->close();
                return;
            }
        }
        if (consumed > 0)
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<long>(consumed));

        const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            conn->close();
            return;
        }
        buf.insert(buf.end(), chunk, chunk + n);
    }
}

// ---------------------------------------------------------------------
// ServiceClient

ServiceClient::ServiceClient(const std::string &endpoint)
{
    const net::HostPort hp = net::parseHostPort(endpoint);
    fd_ = net::connectTcpNonBlocking(hp);
    struct pollfd pfd
    {
        fd_, POLLOUT, 0
    };
    const int rc = ::poll(&pfd, 1, 5000);
    if (rc <= 0 || !net::finishConnect(fd_)) {
        ::close(fd_);
        fd_ = -1;
        COSMIC_FATAL("service client: cannot connect to "
                     << endpoint);
    }
    net::setNoDelay(fd_);
    // The conversation is synchronous request/response — clear the
    // O_NONBLOCK the connect helper set and block on replies.
    const int f = ::fcntl(fd_, F_GETFL, 0);
    if (f >= 0)
        ::fcntl(fd_, F_SETFL, f & ~O_NONBLOCK);
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ServiceClient::send(const sys::Message &msg)
{
    std::vector<uint8_t> frame;
    net::encodeMessage(msg, accel::Numeric::F64, frame);
    sendAll(fd_, frame.data(), frame.size());
}

sys::Message
ServiceClient::recv()
{
    uint8_t chunk[4096];
    for (;;) {
        net::WireHeader hdr;
        size_t frame_bytes = 0;
        const net::FrameStatus st = net::peekFrame(
            rxbuf_.data(), rxbuf_.size(), hdr, frame_bytes);
        if (st == net::FrameStatus::Corrupt)
            COSMIC_FATAL("service client: corrupt reply stream");
        if (st == net::FrameStatus::Ready) {
            sys::Message msg;
            net::decodeMessage(hdr, rxbuf_.data(), msg, nullptr);
            rxbuf_.erase(rxbuf_.begin(),
                         rxbuf_.begin() +
                             static_cast<long>(frame_bytes));
            return msg;
        }
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            COSMIC_FATAL("service client: connection closed "
                         "mid-reply");
        rxbuf_.insert(rxbuf_.end(), chunk, chunk + n);
    }
}

uint64_t
ServiceClient::submit(const JobSpec &spec, JobProgress *ack)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::SubmitJob;
    msg.offset = net::packText(spec.toText(), msg.payload);
    send(msg);
    const sys::Message reply = recv();
    const JobProgress p = decodeStatus(reply);
    if (ack)
        *ack = p;
    return reply.seq;
}

JobProgress
ServiceClient::status(uint64_t id)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::JobStatus;
    msg.seq = id;
    send(msg);
    return decodeStatus(recv());
}

JobProgress
ServiceClient::wait(
    uint64_t id,
    const std::function<void(const JobProgress &)> &onProgress)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::JobStatus;
    msg.seq = id;
    msg.contributors = 1; // subscribe
    send(msg);
    for (;;) {
        const JobProgress p = decodeStatus(recv());
        if (onProgress)
            onProgress(p);
        if (terminal(p.state))
            return p;
    }
}

JobProgress
ServiceClient::cancel(uint64_t id)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::CancelJob;
    msg.seq = id;
    send(msg);
    return decodeStatus(recv());
}

std::vector<double>
ServiceClient::result(uint64_t id)
{
    sys::Message msg;
    msg.kind = sys::MsgKind::JobResult;
    msg.seq = id;
    send(msg);
    const sys::Message reply = recv();
    if (reply.kind == sys::MsgKind::JobResult)
        return reply.payload;
    const JobProgress p = decodeStatus(reply);
    COSMIC_FATAL("service client: job " << id << " has no result ("
                 << jobStateName(p.state)
                 << (p.error.empty() ? "" : ": " + p.error) << ")");
}

} // namespace cosmic::sys
