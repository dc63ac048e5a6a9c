#include "host.h"

#include <sys/resource.h>

#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

int
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            int n = 0;
            status >> n;
            return n;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

} // namespace perfbench
