/**
 * @file
 * Internally managed thread pool.
 *
 * The CoSMIC system software avoids generic OS thread management by
 * keeping two internally managed pools per Sigma node — one for
 * networking, one for aggregation (paper Sec. 3). Threads are created
 * once and reused across connections and iterations, which is exactly
 * what this pool provides: a fixed set of workers draining a task
 * queue, with a waitIdle() barrier for iteration boundaries.
 *
 * The workers start with the first submit(), not at construction, so
 * a pool its owner never feeds costs no thread. The deterministic
 * AggregationEngine is the case in point: it parks payloads and folds
 * them in finish(), so its networking and aggregation pools stay
 * empty for the engine's whole life.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cosmic::sys {

/** Fixed-size worker pool with a FIFO task queue. */
class ThreadPool
{
  public:
    /** Sizes the pool to @p threads workers; none starts until the
     *  first submit(). */
    explicit ThreadPool(int threads);

    /** Stops accepting work, drains the queue, joins the workers
     *  (if any were started). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueues a task for the next free worker; the first call
     *  starts all size() workers. */
    void submit(std::function<void()> task);

    /** Blocks until the queue is empty and all workers are idle
     *  (returns at once on a pool that never ran a task). */
    void waitIdle();

    /** The configured width, whether or not the workers started. */
    int size() const { return threads_; }

    /** Tasks executed since construction (observability). */
    uint64_t tasksExecuted() const;

  private:
    void workerLoop();

    const int threads_;
    /** Empty until the first submit(); written under mutex_. */
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable idle_;
    int active_ = 0;
    uint64_t executed_ = 0;
    bool stopping_ = false;
};

} // namespace cosmic::sys
