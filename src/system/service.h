/**
 * @file
 * The cosmicd front door: training-as-a-service over the wire.
 *
 * ServiceFrontDoor listens on a TCP endpoint and speaks the existing
 * versioned wire protocol (net/wire.h) with the service msgKinds:
 *
 *   client -> server                server -> client
 *   ----------------                ----------------
 *   SubmitJob  spec text            JobStatus  (ack: Queued/Rejected)
 *   JobStatus  seq=id, empty        JobStatus  snapshot
 *   JobStatus  seq=id, contrib=1    JobStatus  stream until terminal
 *   JobResult  seq=id, empty        JobResult  final model, or
 *                                   JobStatus  when not Done
 *   CancelJob  seq=id               JobStatus  snapshot
 *
 * A JobStatus reply encodes the snapshot as 5 payload words —
 * [epochsDone, totalEpochs, lastLoss, queueWaitSec, iterations] —
 * with the JobState in `contributors`, the job id in `seq`, and the
 * failure text (when any) packed after the status words with its byte
 * length in `offset`. A JobResult reply carries the final model as an
 * F64 payload. Submissions ride as packText'd JobSpec::toText().
 *
 * The streaming form (`contributors = 1` on a JobStatus request)
 * subscribes the connection to the session's progress sink: every
 * state transition and epoch completion is pushed as a JobStatus
 * frame, ending with the terminal snapshot. Other requests on the
 * same connection stay valid — writes are serialized per connection.
 *
 * Behind the door sits a JobScheduler (scheduler.h): admission,
 * FIFO + max-concurrency, node-slot partitioning, and the shared
 * BuildCache that deduplicates compiles across tenants.
 *
 * ServiceClient is the matching blocking client used by `cosmicd
 * --submit`, tests and the service benchmark.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "system/scheduler.h"

namespace cosmic::sys {

/**
 * Accepts service connections and routes them to a JobScheduler.
 * Construct with the scheduler's resource budget and a "host:port"
 * endpoint (port 0 binds an ephemeral port — read it back with
 * port()). Each connection gets one handler thread; once a client
 * hangs up, the next accept joins that thread and drops the
 * connection, so a long-lived door holds only its live connections.
 * The destructor stops the listener, joins every handler, and shuts
 * the scheduler down.
 */
class ServiceFrontDoor
{
  public:
    ServiceFrontDoor(const SchedulerConfig &cfg,
                     const std::string &endpoint);
    ~ServiceFrontDoor();

    ServiceFrontDoor(const ServiceFrontDoor &) = delete;
    ServiceFrontDoor &operator=(const ServiceFrontDoor &) = delete;

    /** The bound port (resolves an ephemeral bind). */
    uint16_t port() const { return port_; }

    /** Direct access for in-process observation (stats, drain). */
    JobScheduler &scheduler() { return scheduler_; }

    /** Stops accepting, closes every connection, joins handlers, and
     *  shuts the scheduler down. Idempotent. */
    void stop();

  private:
    struct Connection;
    struct Handler;

    void acceptLoop(int listen_fd);
    void handle(std::shared_ptr<Connection> conn);
    /** Joins the handlers whose client hung up and drops their
     *  connections. Called by the accept loop. */
    void reapFinished();

    JobScheduler scheduler_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptor_;

    std::mutex mu_;
    bool stopping_ = false;
    /** Live connections by id; guarded by mu_. */
    std::unordered_map<uint64_t, Handler> handlers_;
    /** Ids whose handle() returned, awaiting reapFinished(). */
    std::vector<uint64_t> finished_;
    uint64_t nextConn_ = 0;
};

/**
 * Blocking client for one ServiceFrontDoor connection. Synchronous
 * request/response; not thread-safe (one conversation per client).
 * All calls throw CosmicError on protocol or connection errors.
 */
class ServiceClient
{
  public:
    /** Connects to "host:port". */
    explicit ServiceClient(const std::string &endpoint);
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Submits a job; returns its id. The ack snapshot (Queued or
     *  Rejected-with-reason) lands in @p ack when given. */
    uint64_t submit(const JobSpec &spec, JobProgress *ack = nullptr);

    /** One status snapshot. */
    JobProgress status(uint64_t id);

    /**
     * Streams progress until the job reaches a terminal state
     * (Done/Failed/Cancelled/Rejected); returns the terminal
     * snapshot. @p onProgress (optional) sees every pushed frame.
     */
    JobProgress
    wait(uint64_t id,
         const std::function<void(const JobProgress &)> &onProgress =
             nullptr);

    /** Requests cancellation; returns the post-cancel snapshot. */
    JobProgress cancel(uint64_t id);

    /** Fetches a Done job's final model. Throws when the job is not
     *  Done (the failure snapshot's error is in the message). */
    std::vector<double> result(uint64_t id);

  private:
    void send(const sys::Message &msg);
    sys::Message recv();

    int fd_ = -1;
    std::vector<uint8_t> rxbuf_;
};

} // namespace cosmic::sys
