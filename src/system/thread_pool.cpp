#include "system/thread_pool.h"

#include "common/error.h"

namespace cosmic::sys {

ThreadPool::ThreadPool(int threads) : threads_(threads)
{
    COSMIC_ASSERT(threads > 0, "thread pool needs at least one worker");
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    // No submit() can race the destructor, so workers_ is quiescent.
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        COSMIC_ASSERT(!stopping_, "submit on a stopping pool");
        queue_.push_back(std::move(task));
        // First task: start the whole pool. Workers block on mutex_
        // until this guard releases it, then find the task queued.
        if (workers_.empty()) {
            workers_.reserve(static_cast<size_t>(threads_));
            for (int i = 0; i < threads_; ++i)
                workers_.emplace_back([this] { workerLoop(); });
        }
    }
    workAvailable_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

uint64_t
ThreadPool::tasksExecuted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(
                lock, [&] { return !queue_.empty() || stopping_; });
            if (queue_.empty()) {
                // Stopping and drained.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            ++executed_;
        }
        idle_.notify_all();
    }
}

} // namespace cosmic::sys
