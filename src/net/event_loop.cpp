#include "net/event_loop.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "common/error.h"

namespace cosmic::net {

namespace {

void
makeNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    COSMIC_ASSERT(flags >= 0, "fcntl(F_GETFL) failed: "
                  << std::strerror(errno));
    COSMIC_ASSERT(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(F_SETFL, O_NONBLOCK) failed: "
                  << std::strerror(errno));
}

} // namespace

EventLoop::EventLoop()
{
    COSMIC_ASSERT(::pipe(wakePipe_) == 0,
                  "event-loop wakeup pipe failed: "
                  << std::strerror(errno));
    makeNonBlocking(wakePipe_[0]);
    makeNonBlocking(wakePipe_[1]);
}

EventLoop::~EventLoop()
{
    if (wakePipe_[0] >= 0)
        ::close(wakePipe_[0]);
    if (wakePipe_[1] >= 0)
        ::close(wakePipe_[1]);
}

void
EventLoop::add(int fd, bool want_write)
{
    watches_.push_back(Watch{fd, want_write});
}

void
EventLoop::setWriteInterest(int fd, bool want_write)
{
    for (Watch &w : watches_) {
        if (w.fd == fd) {
            w.wantWrite = want_write;
            return;
        }
    }
    COSMIC_FATAL("setWriteInterest on unregistered fd " << fd);
}

void
EventLoop::remove(int fd)
{
    for (size_t i = 0; i < watches_.size(); ++i) {
        if (watches_[i].fd != fd)
            continue;
        watches_.erase(watches_.begin() + static_cast<long>(i));
        return;
    }
    COSMIC_FATAL("remove of unregistered fd " << fd);
}

int
EventLoop::wait(std::vector<Event> &out, int timeout_ms)
{
    out.clear();
    pollScratch_.clear();
    pollScratch_.push_back({wakePipe_[0], POLLIN, 0});
    for (const Watch &w : watches_)
        pollScratch_.push_back(
            {w.fd,
             static_cast<short>(POLLIN | (w.wantWrite ? POLLOUT : 0)),
             0});
    int n;
    do {
        n = ::poll(pollScratch_.data(), pollScratch_.size(), timeout_ms);
    } while (n < 0 && errno == EINTR);
    COSMIC_ASSERT(n >= 0, "poll failed: " << std::strerror(errno));
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (pollScratch_[0].revents & POLLIN) {
        char buf[64];
        while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
        }
    }
    for (size_t i = 1; i < pollScratch_.size(); ++i) {
        const short re = pollScratch_[i].revents;
        if (re == 0)
            continue;
        Event ev;
        ev.fd = pollScratch_[i].fd;
        ev.readable = (re & POLLIN) != 0;
        ev.writable = (re & POLLOUT) != 0;
        ev.hangup = (re & (POLLHUP | POLLERR | POLLNVAL)) != 0;
        out.push_back(ev);
    }
    return static_cast<int>(out.size());
}

void
EventLoop::notify()
{
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] ssize_t rc = ::write(wakePipe_[1], &byte, 1);
}

} // namespace cosmic::net
