/**
 * @file
 * Process-level observations: peak memory, CPU time, thread count.
 */
#pragma once

namespace perfbench {

/** Peak resident set of this process so far (MiB). */
double peakRssMb();

/** CPU seconds this process has used, all threads. */
double processCpuSeconds();

/** Threads alive in this process now. */
int threadCount();

} // namespace perfbench
