/**
 * @file
 * Process resource counts for the resource-reclamation tests, read
 * from /proc/self.
 *
 * Every test runs in its own process (gtest_discover_tests), so the
 * counts a test reads are its own.
 */
#pragma once

#include <dirent.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace cosmic::testing_support {

/** Threads in this process right now: the entries of /proc/self/task.
 *  A thread that exited but was never joined is not counted. */
inline int
liveThreads()
{
    DIR *dir = ::opendir("/proc/self/task");
    if (!dir)
        return -1;
    int count = 0;
    while (const dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.')
            ++count;
    ::closedir(dir);
    return count;
}

/**
 * liveThreads() once it has dropped to @p expected, or after 2 s. A
 * joined thread can outlive its join() by a moment in the kernel's
 * task list, so a count taken right after joins must wait for it.
 */
inline int
liveThreadsSettled(int expected)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    int count = liveThreads();
    while (count > expected && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count = liveThreads();
    }
    return count;
}

/** Runs and joins one empty thread. A sanitizer runtime may start a
 *  helper thread of its own at the process's first thread creation;
 *  call this before taking a baseline so later counts see only the
 *  test's threads. */
inline void
startRuntimeHelpers()
{
    std::thread([] {}).join();
}

/** Mapped regions in this process: the lines of /proc/self/maps. An
 *  exited thread that was never joined still holds its stack and
 *  guard page here. */
inline int
mappedRegions()
{
    std::ifstream maps("/proc/self/maps");
    int count = 0;
    for (std::string line; std::getline(maps, line);)
        ++count;
    return count;
}

} // namespace cosmic::testing_support
