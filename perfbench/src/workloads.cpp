#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** Share of the summed root walls a root's tree of self times may
 *  miss its wall by. */
constexpr double kReconcileTolerance = 0.01;

} // namespace

int64_t
workUnits(double perTenSeconds, int seconds, int64_t minimum)
{
    return std::max<int64_t>(minimum,
                             std::llround(perTenSeconds * seconds / 10.0));
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
medianBlockRate(const std::vector<double> &stamps, double unitsPerStamp,
                size_t blocks)
{
    if (stamps.empty())
        throw std::invalid_argument("block rate of no work");
    blocks = std::clamp<size_t>(blocks, 1, stamps.size());
    const size_t per = stamps.size() / blocks;
    std::vector<double> rates;
    for (size_t b = 0; b < blocks; ++b) {
        const double from = b == 0 ? 0.0 : stamps[b * per - 1];
        const double to = stamps[(b + 1) * per - 1];
        rates.push_back(unitsPerStamp * static_cast<double>(per) /
                        (to - from));
    }
    return median(rates);
}

double
medianBlockPercentile(const std::vector<double> &samples, double p,
                      size_t maxBlocks, size_t *blocksUsed)
{
    size_t blocks = std::max<size_t>(maxBlocks, 1);
    while (blocks > 1 && samplesBeyond(samples.size() / blocks, p) < 10)
        --blocks;
    std::vector<double> perBlock;
    for (size_t b = 0; b < blocks; ++b) {
        const std::vector<double> block(
            samples.begin() + b * samples.size() / blocks,
            samples.begin() + (b + 1) * samples.size() / blocks);
        perBlock.push_back(p == 0.5 ? median(block) : percentile(block, p));
    }
    if (blocksUsed)
        *blocksUsed = blocks;
    return median(perBlock);
}

void
addTraceMetrics(Result &result, const Tracer &tracer,
                double tracedWallSec, double untracedWallSec,
                double coresBusy, const std::string &traceOut)
{
    const TraceSummary sum = summarize(tracer.spans());
    const double limitMs =
        kReconcileTolerance * sum.rootWallMs + 0.1;
    if (!(sum.maxReconcileErrorMs <= limitMs)) {
        std::ostringstream what;
        what << "trace does not reconcile: self times miss the root "
                "wall by "
             << sum.maxReconcileErrorMs << " ms (limit " << limitMs
             << " ms)";
        result.fail(what.str());
    }
    result.add("trace.unattributed_ms", sum.unattributedMs, "ms");
    result.add("trace.reconcile_error_ms", sum.maxReconcileErrorMs, "ms");
    result.add("trace.overhead_pct",
               100.0 * (tracedWallSec - untracedWallSec) / untracedWallSec,
               "%");
    result.add("host.cores_busy", coresBusy, "cores");
    if (!traceOut.empty())
        tracer.writeChrome(traceOut);
}

} // namespace perfbench
