/**
 * @file
 * The scheduler layer: admission control + cluster partitioning.
 *
 * A JobScheduler owns many Sessions (session.h) and decides which of
 * them may train at once on a fixed budget of cluster resources:
 *
 *  - **Node slots.** The scheduler tracks `totalNodes` node slots.
 *    Each job asks for `spec.cluster.nodes`; it is admitted only when
 *    that many slots are free, and holds them until it finishes. The
 *    sum of admitted jobs' node counts never exceeds the budget, so
 *    concurrent tenants train on disjoint node subsets.
 *
 *  - **Job lifetime.** A job's ClusterRuntime (threads, partitions,
 *    fabric) exists only while a worker runs it: when Session::run()
 *    returns Done, Failed or Cancelled, the worker calls
 *    Session::releaseRuntime() and only then hands the node slots
 *    back. At most `maxConcurrent` clusters are ever alive; a finished
 *    job costs its spec, progress snapshot and TrainingReport.
 *
 *  - **PE-matrix threads.** With `peThreadsPerNode > 0` the per-node
 *    accelerator fabric is also carved: each tenant's share is
 *    peThreadsPerNode / maxConcurrent threads, applied both to the
 *    runtime (acceleratorThreadsPerNode is clamped to the share) and
 *    to the planner through the forceThreads/forceRowsPerThread seam,
 *    so per-job plans reflect the carved sub-array instead of the
 *    whole fabric.
 *
 * Trajectory safety: training math must stay a pure function of the
 * JobSpec, never of scheduler decisions. Thread counts are only safe
 * to scale because the math depends on sgdShardsPerNode — so submit()
 * pins sgdShardsPerNode to the *requested* thread count before any
 * carving, and forceThreads is a planner-only knob (regression-proved
 * in test_service.cpp: a carved job's trajectory bit-matches its solo
 * run).
 *
 * Policy: strict FIFO with a max-concurrency cap. Only the queue head
 * is ever admitted — a small job never jumps a large one — and at most
 * `maxConcurrent` jobs run at once regardless of free slots. submit()
 * never blocks: jobs that cannot be queued (queue full, impossible
 * resources, invalid config) are Rejected immediately with a reason.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "system/session.h"

namespace cosmic::sys {

/** Resource budget + policy for one scheduler. */
struct SchedulerConfig
{
    /** Cluster node slots shared across concurrent jobs. */
    int totalNodes = 8;
    /** Jobs allowed to train at once. */
    int maxConcurrent = 2;
    /** Jobs allowed to wait beyond the running ones; submissions past
     *  this are Rejected, not queued. */
    int maxQueued = 16;
    /**
     * Per-node PE-matrix thread budget to carve across tenants
     * (0 = leave each job's thread counts alone). Each tenant gets
     * peThreadsPerNode / maxConcurrent threads.
     */
    int peThreadsPerNode = 0;
    /** Rows-per-thread for the pinned planner design point when
     *  carving (forceRowsPerThread). */
    int peRowsPerThread = 8;
};

/** Monotonic counters + instantaneous gauges, all under one lock. */
struct SchedulerStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    /** Deepest the wait queue ever got. */
    size_t peakQueueDepth = 0;
    /** Gauges at the time stats() was called. */
    int runningNow = 0;
    size_t queuedNow = 0;
    int freeNodes = 0;
};

/**
 * Multi-tenant admission + partitioning over a fixed node budget.
 * Thread-safe: submit/cancel/progress/stats may race with the worker
 * pool freely. The destructor shuts down (abandoning queued jobs);
 * call drain() first to let the queue empty.
 */
class JobScheduler
{
  public:
    explicit JobScheduler(SchedulerConfig cfg);
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Submits a job; returns its id immediately (never blocks on
     * training). The returned id is always valid for session()/
     * progress() — rejected jobs get a Session in the Rejected state
     * whose progress().error says why.
     */
    uint64_t submit(JobSpec spec);

    /** The session behind @p id (nullptr for an unknown id). Once
     *  the job is terminal its runtime() is gone; spec(), progress()
     *  and report() remain. */
    std::shared_ptr<Session> session(uint64_t id) const;

    /** Snapshot of @p id's progress. Throws CosmicError on unknown. */
    JobProgress progress(uint64_t id) const;

    /** Requests cancellation (queued or running). False if unknown. */
    bool cancel(uint64_t id);

    /** Blocks until the queue is empty and nothing is running. */
    void drain();

    /** Stops the worker pool. Running jobs are cancelled and joined;
     *  still-queued jobs are Rejected ("shut down before
     *  admission"). Idempotent. */
    void shutdown();

    SchedulerStats stats() const;
    const SchedulerConfig &config() const { return cfg_; }

  private:
    struct Pending
    {
        uint64_t id = 0;
        std::shared_ptr<Session> session;
        int nodes = 0;
        std::chrono::steady_clock::time_point enqueued;
    };

    void worker();

    SchedulerConfig cfg_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idle_;
    std::deque<Pending> queue_;
    std::unordered_map<uint64_t, std::shared_ptr<Session>> jobs_;
    SchedulerStats stats_;
    int freeNodes_ = 0;
    int running_ = 0;
    uint64_t nextId_ = 1;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace cosmic::sys
