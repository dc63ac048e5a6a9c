/**
 * @file
 * The network thread's readiness loop, built on poll().
 *
 * Each TCP transport endpoint runs one dedicated network thread that
 * blocks here — the paper's Incoming Network Handler dispatches on
 * socket readiness (Sec. 3), and poll() gives that readiness on every
 * POSIX host. A transport watches a handful of sockets, so rebuilding
 * the pollfd set per wait costs nothing measurable.
 *
 * The loop watches a set of fds for read/write readiness plus one
 * internal wakeup pipe: notify() is the only thread-safe entry point
 * and is how sender threads kick the network thread after queueing
 * outbound bytes. Every return from wait() is counted — the wakeup
 * counter feeds BENCH_net.json so the benches can report how many
 * times the loop woke per iteration.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include <poll.h>

namespace cosmic::net {

/** Readiness-event dispatcher for one network thread. */
class EventLoop
{
  public:
    /** One readiness report. */
    struct Event
    {
        int fd = -1;
        bool readable = false;
        bool writable = false;
        /** Peer hung up or the fd errored; the owner should close. */
        bool hangup = false;
    };

    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Registers @p fd for read (always) and optionally write. */
    void add(int fd, bool want_write = false);

    /** Adjusts write interest for a registered fd. */
    void setWriteInterest(int fd, bool want_write);

    /** Deregisters @p fd (the caller closes it). */
    void remove(int fd);

    /**
     * Blocks up to @p timeout_ms (-1 = forever) for readiness and
     * fills @p out with one event per ready fd. Internal wakeup-pipe
     * events are consumed and not reported.
     * @return Number of events in @p out.
     */
    int wait(std::vector<Event> &out, int timeout_ms);

    /** Thread-safe: wakes a blocked wait(). */
    void notify();

    /** Times wait() returned (the wakeup observability stat). */
    uint64_t wakeups() const { return wakeups_.load(); }

  private:
    struct Watch
    {
        int fd = -1;
        bool wantWrite = false;
    };

    /** Wakeup pipe: [0] read end watched by the loop, [1] written by
     *  notify(). */
    int wakePipe_[2] = {-1, -1};
    /** Registered fds. */
    std::vector<Watch> watches_;
    /** Scratch pollfd array, rebuilt per wait. */
    std::vector<::pollfd> pollScratch_;
    std::atomic<uint64_t> wakeups_{0};
};

} // namespace cosmic::net
