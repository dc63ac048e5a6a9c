#include "system/scheduler.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace cosmic::sys {

JobScheduler::JobScheduler(SchedulerConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.totalNodes <= 0)
        COSMIC_FATAL("SchedulerConfig: totalNodes must be positive "
                     "(got " << cfg_.totalNodes << ")");
    if (cfg_.maxConcurrent <= 0)
        COSMIC_FATAL("SchedulerConfig: maxConcurrent must be positive "
                     "(got " << cfg_.maxConcurrent << ")");
    if (cfg_.maxQueued < 0)
        COSMIC_FATAL("SchedulerConfig: maxQueued must be >= 0 (got "
                     << cfg_.maxQueued << ")");
    if (cfg_.peThreadsPerNode < 0)
        COSMIC_FATAL("SchedulerConfig: peThreadsPerNode must be >= 0 "
                     "(got " << cfg_.peThreadsPerNode << ")");
    if (cfg_.peThreadsPerNode > 0 && cfg_.peRowsPerThread <= 0)
        COSMIC_FATAL("SchedulerConfig: peRowsPerThread must be "
                     "positive when carving (got "
                     << cfg_.peRowsPerThread << ")");
    freeNodes_ = cfg_.totalNodes;
    stats_.freeNodes = freeNodes_;
    workers_.reserve(static_cast<size_t>(cfg_.maxConcurrent));
    for (int i = 0; i < cfg_.maxConcurrent; ++i)
        workers_.emplace_back([this] { worker(); });
}

JobScheduler::~JobScheduler() { shutdown(); }

uint64_t
JobScheduler::submit(JobSpec spec)
{
    // Resource carving happens here, before the Session ever sees the
    // spec, so a job's trajectory is a pure function of what the
    // Session is constructed with.
    ClusterConfig &cluster = spec.cluster;
    // Pin the math first: sgdShards defaults to the accelerator
    // thread count, so it must be fixed to the *requested* count
    // before any thread scaling — otherwise carving would change the
    // gradient fold and the trajectory with it.
    if (cluster.sgdShardsPerNode == 0)
        cluster.sgdShardsPerNode = cluster.acceleratorThreadsPerNode;
    if (cfg_.peThreadsPerNode > 0) {
        const int share = std::max(
            1, cfg_.peThreadsPerNode / cfg_.maxConcurrent);
        cluster.acceleratorThreadsPerNode =
            std::min(cluster.acceleratorThreadsPerNode, share);
        // Pin the planner to the carved sub-array unless the job
        // forced its own design point.
        if (cluster.compile.forceThreads <= 0 ||
            cluster.compile.forceRowsPerThread <= 0) {
            cluster.compile.forceThreads = share;
            cluster.compile.forceRowsPerThread = cfg_.peRowsPerThread;
        }
    }

    auto session = std::make_shared<Session>(std::move(spec));
    const JobSpec &final_spec = session->spec();

    std::string refusal;
    if (final_spec.cluster.nodes > cfg_.totalNodes) {
        std::ostringstream why;
        why << "job wants " << final_spec.cluster.nodes
            << " nodes but the cluster has " << cfg_.totalNodes;
        refusal = why.str();
    } else {
        try {
            final_spec.cluster.validate();
        } catch (const std::exception &e) {
            refusal = e.what();
        }
    }

    uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = nextId_++;
        jobs_.emplace(id, session);
        ++stats_.submitted;
        if (refusal.empty() && stop_)
            refusal = "scheduler is shut down";
        if (refusal.empty() &&
            queue_.size() >= static_cast<size_t>(cfg_.maxQueued)) {
            std::ostringstream why;
            why << "queue full (" << queue_.size() << " waiting, max "
                << cfg_.maxQueued << ")";
            refusal = why.str();
        }
        if (refusal.empty()) {
            queue_.push_back({id, session, final_spec.cluster.nodes,
                              std::chrono::steady_clock::now()});
            stats_.peakQueueDepth =
                std::max(stats_.peakQueueDepth, queue_.size());
        } else {
            ++stats_.rejected;
        }
    }
    if (!refusal.empty())
        session->reject(refusal);
    else
        cv_.notify_all();
    return id;
}

void
JobScheduler::worker()
{
    for (;;) {
        Pending job;
        int nodes_held = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            // Strict FIFO: only the head may be admitted. A head that
            // has already been cancelled passes through without
            // waiting for (or holding) node slots.
            cv_.wait(lock, [&] {
                return stop_ ||
                       (!queue_.empty() &&
                        (queue_.front().nodes <= freeNodes_ ||
                         queue_.front().session->cancelRequested()));
            });
            if (stop_)
                return;
            if (queue_.empty() ||
                (queue_.front().nodes > freeNodes_ &&
                 !queue_.front().session->cancelRequested()))
                continue; // lost the race to a sibling worker
            job = std::move(queue_.front());
            queue_.pop_front();
            nodes_held =
                job.session->cancelRequested() ? 0 : job.nodes;
            freeNodes_ -= nodes_held;
            ++running_;
            ++stats_.admitted;
        }
        // Another head may have become admissible.
        cv_.notify_all();

        const double wait_sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - job.enqueued)
                .count();
        job.session->setQueueWait(wait_sec);
        try {
            job.session->run();
        } catch (const std::exception &) {
            // Recorded in the session's progress (Failed + message);
            // the scheduler keeps serving other tenants.
        }
        // The job is terminal: tear its cluster down before its node
        // slots go back, so live clusters never outnumber workers.
        // The session keeps its spec, progress and report.
        job.session->releaseRuntime();

        {
            std::lock_guard<std::mutex> lock(mu_);
            freeNodes_ += nodes_held;
            --running_;
            switch (job.session->progress().state) {
            case JobState::Done:
                ++stats_.completed;
                break;
            case JobState::Failed:
                ++stats_.failed;
                break;
            case JobState::Cancelled:
                ++stats_.cancelled;
                break;
            default:
                break;
            }
        }
        cv_.notify_all();
        idle_.notify_all();
    }
}

std::shared_ptr<Session>
JobScheduler::session(uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

JobProgress
JobScheduler::progress(uint64_t id) const
{
    auto s = session(id);
    if (!s)
        COSMIC_FATAL("JobScheduler: unknown job id " << id);
    return s->progress();
}

bool
JobScheduler::cancel(uint64_t id)
{
    auto s = session(id);
    if (!s)
        return false;
    s->cancel();
    // A cancelled queue head no longer needs node slots — wake the
    // workers so it can pass through.
    cv_.notify_all();
    return true;
}

void
JobScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock,
               [&] { return queue_.empty() && running_ == 0; });
}

void
JobScheduler::shutdown()
{
    std::deque<Pending> abandoned;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_ && workers_.empty())
            return;
        stop_ = true;
        abandoned.swap(queue_);
    }
    cv_.notify_all();
    // Ask running jobs to stop at their next iteration boundary so
    // the joins below terminate promptly.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, s] : jobs_)
            s->cancel();
    }
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
    for (auto &p : abandoned) {
        p.session->cancel();
        p.session->reject("scheduler shut down before admission");
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.rejected;
    }
    idle_.notify_all();
}

SchedulerStats
JobScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    SchedulerStats snapshot = stats_;
    snapshot.runningNow = running_;
    snapshot.queuedNow = queue_.size();
    snapshot.freeNodes = freeNodes_;
    return snapshot;
}

} // namespace cosmic::sys
