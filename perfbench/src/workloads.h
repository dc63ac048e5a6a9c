/**
 * @file
 * The benchmark's four workloads and the helpers they share.
 *
 * Every workload drives the stack only through public entry points,
 * does a fixed amount of work (sized from --seconds by a per-workload
 * constant, never stopped by a clock), checks its outputs, and fills
 * a Result. An untraced run reports the end-to-end metrics; a traced
 * run first repeats the untraced work (for the tracing overhead and
 * the traced-vs-untraced output comparison), then runs the same work
 * again under spans and reports the per-layer metrics.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Nominal run length; the work is scaled linearly from it. */
    int seconds = 15;
    bool trace = false;
    /** Where a traced run writes its Chrome trace (empty = nowhere). */
    std::string traceOut;
};

/** The six small Table 1 programs: compile-suite's elastic leg and
 *  service-burst's job mix. */
inline const std::vector<std::string> kSmallPrograms = {
    "stock", "texture", "tumor", "cancer1", "face", "cancer2"};

/** `train-compute` (wire = false) and `train-wire` (wire = true). */
Result runTrain(const RunOptions &opts, bool wire);
Result runCompileSuite(const RunOptions &opts);
Result runServiceBurst(const RunOptions &opts);

/** Self-test hook: @p passes untraced compile-suite passes. Fails
 *  unless every compile's counts repeat exactly from pass to pass;
 *  carries one pass's summed counts (dfg.nodes_in, ...). */
Result compileCountsSelfTest(uint64_t seed, int64_t passes);

/** @p perTenSeconds units of work scaled to @p seconds, and at least
 *  @p minimum (what the run's tail percentile needs). */
int64_t workUnits(double perTenSeconds, int seconds, int64_t minimum);

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/**
 * Throughput robust to slow spells of the host: @p stamps are the
 * seconds (since the measured phase began, ascending) at which each
 * of a run's equal work units completed, each worth @p unitsPerStamp;
 * consecutive stamps are cut into @p blocks blocks and the median
 * block's units per second is returned.
 */
double medianBlockRate(const std::vector<double> &stamps,
                       double unitsPerStamp, size_t blocks);

/**
 * Latency robust to slow spells of the host: @p samples, in the order
 * they were taken, are cut into consecutive blocks — as many as
 * @p maxBlocks allows while each block's @p p quantile keeps 10
 * samples beyond it (see percentile()) — and the median over blocks
 * of each block's @p p quantile is returned (p = 0.5: each block's
 * median). @p blocksUsed, when given, receives the block count.
 */
double medianBlockPercentile(const std::vector<double> &samples, double p,
                             size_t maxBlocks,
                             size_t *blocksUsed = nullptr);

/**
 * The per-layer metrics every traced run reports: the tree's
 * unattributed time, the tracing overhead against the untraced wall,
 * and process CPU over wall (host.cores_busy). Fails @p result when
 * the self times of a root's span tree miss its wall by more than 1%
 * of the summed root walls (plus 0.1 ms), and writes the Chrome
 * trace.
 */
void addTraceMetrics(Result &result, const Tracer &tracer,
                     double tracedWallSec, double untracedWallSec,
                     double coresBusy, const std::string &traceOut);

} // namespace perfbench
