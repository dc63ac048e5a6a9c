#include "planner/planner.h"

#include <algorithm>
#include <memory>

#include "common/error.h"
#include "dfg/analysis.h"

namespace cosmic::planner {

using accel::AcceleratorPlan;
using accel::PlatformSpec;

namespace {

/** Planner::maxThreads given the DFG's interim high-water mark. */
int64_t
threadBound(const dfg::Translation &tr, const PlatformSpec &platform,
            int64_t interim_words)
{
    // dfg::storageWords, with its maxLiveInterim term supplied.
    int64_t storage_bytes =
        4 * (2 * tr.recordWords + tr.modelWords + interim_words);
    COSMIC_ASSERT(storage_bytes > 0, "empty DFG storage footprint");
    int64_t by_storage = platform.bramBytes / storage_bytes;
    int64_t t_max = std::min<int64_t>(
        {std::max<int64_t>(by_storage, 1), platform.maxRows,
         tr.minibatch});
    return std::max<int64_t>(t_max, 1);
}

/** Planner::makePlan given the DFG's interim high-water mark. */
AcceleratorPlan
sizePlan(const dfg::Translation &tr, const PlatformSpec &platform,
         int threads, int rows_per_thread, int64_t interim_words)
{
    COSMIC_ASSERT(threads >= 1 && rows_per_thread >= 1,
                  "degenerate design point");
    AcceleratorPlan plan;
    plan.platform = platform;
    plan.columns = platform.columns;
    plan.rowsPerThread = rows_per_thread;
    plan.threads = threads;

    const int64_t pes = plan.pesPerThread();
    auto per_pe = [pes](int64_t words) {
        return (words + pes - 1) / pes + 1;
    };
    // Double-buffered data (prefetch), the thread's model copy, and the
    // interim high-water mark, spread over the thread's PEs.
    plan.dataBufWordsPerPe = per_pe(2 * tr.recordWords);
    plan.modelBufWordsPerPe = per_pe(tr.modelWords);
    plan.interimBufWordsPerPe = per_pe(interim_words);
    return plan;
}

} // namespace

int64_t
Planner::maxThreads(const dfg::Translation &tr,
                    const PlatformSpec &platform)
{
    return threadBound(tr, platform, dfg::maxLiveInterim(tr.dfg));
}

std::vector<std::pair<int, int>>
Planner::enumerateDesignPoints(const PlatformSpec &platform, int64_t t_max)
{
    std::vector<std::pair<int, int>> points;
    for (int rows = 1; rows <= platform.maxRows; ++rows) {
        if (platform.maxRows % rows != 0)
            continue;
        for (int threads = 1;
             threads <= t_max && threads * rows <= platform.maxRows;
             threads *= 2) {
            points.emplace_back(threads, rows);
        }
    }
    return points;
}

AcceleratorPlan
Planner::makePlan(const dfg::Translation &tr,
                  const PlatformSpec &platform, int threads,
                  int rows_per_thread)
{
    return sizePlan(tr, platform, threads, rows_per_thread,
                    dfg::maxLiveInterim(tr.dfg));
}

PlanResult
Planner::plan(const dfg::Translation &tr, const PlatformSpec &platform,
              const compiler::CompileOptions &options)
{
    // Nothing here depends on the design point: analyze the DFG once
    // and share it with every kernel compile and elastic probe below.
    const dfg::DfgAnalysis analysis = dfg::analyze(tr.dfg);
    PlanResult result;
    result.maxThreadsBound =
        threadBound(tr, platform, analysis.maxLiveInterim);

    // Sensitivity sweeps pin a single explicit point: no exploration,
    // no t_max restriction (studying off-design points is the point).
    const bool forced =
        options.forceThreads > 0 && options.forceRowsPerThread > 0;
    auto points =
        forced ? std::vector<std::pair<int, int>>{
                     {options.forceThreads, options.forceRowsPerThread}}
               : enumerateDesignPoints(platform, result.maxThreadsBound);
    COSMIC_ASSERT(!points.empty(), "no design points to explore");

    // For very large DFGs (millions of operations), points with few
    // rows per thread cannot win — the thread count is capped by the
    // model's storage footprint, so narrow threads just starve the DFG
    // of PEs — and they are the most expensive to schedule. Prune them
    // to keep full exploration in the paper's minutes-not-hours range.
    if (!forced && options.pruneSmallRows && tr.dfg.size() > 1000000) {
        int min_rows = std::max(1, platform.maxRows / 8);
        std::erase_if(points, [&](const std::pair<int, int> &p) {
            return p.second < min_rows;
        });
        COSMIC_ASSERT(!points.empty(), "pruning removed all points");
    }

    // The schedule depends only on the thread's PE sub-array, i.e. on
    // rows-per-thread, and the points come grouped by row count: one
    // kernel is compiled per group, and only it and the best point's
    // kernel stay alive.
    std::shared_ptr<compiler::CompiledKernel> kernel;
    std::shared_ptr<compiler::CompiledKernel> best_kernel;
    // The elastic probe likewise depends only on the kernel (rows); the
    // BRAM budget depends on the thread count, so fitting is per point.
    const bool elastic = options.elasticMode;
    std::optional<accel::BufferPlacement> probe;

    double best_throughput = -1.0;
    int64_t best_pes = 0;
    auto consider = [&](const DesignPoint &point,
                        const AcceleratorPlan &plan,
                        const accel::BufferPlacement *placement) {
        result.explored.push_back(point);
        // "Smallest, best-performing": strictly better throughput wins;
        // a tie (within 0.5%) goes to the design with fewer PEs.
        double throughput = point.recordsPerSecond;
        int64_t pes = plan.totalPes();
        bool better = throughput > best_throughput * 1.005;
        bool tied_smaller = throughput > best_throughput * 0.995 &&
                            best_pes > 0 && pes < best_pes;
        if (better || tied_smaller) {
            best_throughput = std::max(throughput, best_throughput);
            best_pes = pes;
            result.plan = plan;
            result.chosenIndex = result.explored.size() - 1;
            best_kernel = kernel;
            if (placement)
                result.elasticPlacement = *placement;
            else
                result.elasticPlacement.reset();
        }
    };

    for (const auto &[threads, rows] : points) {
        AcceleratorPlan plan = sizePlan(tr, platform, threads, rows,
                                        analysis.maxLiveInterim);
        if (!kernel || kernel->mapping.rowsPerThread != rows) {
            kernel = std::make_shared<compiler::CompiledKernel>(
                compiler::KernelCompiler::compile(tr, plan, options,
                                                  analysis));
            probe.reset();
        }
        accel::PerfEstimator perf(tr, *kernel, plan);
        accel::BatchTime batch = perf.batchTime(tr.minibatch);

        DesignPoint point;
        point.threads = threads;
        point.rowsPerThread = rows;
        point.cyclesPerRecord = perf.cyclesPerRecordPerThread();
        point.recordsPerSecond = tr.minibatch / batch.totalSec();
        point.memoryBound = perf.memoryBound();
        consider(point, plan, nullptr);

        if (!elastic)
            continue;

        // Elastic variant of the same point: the same mapping fired
        // dataflow-style, with the FIFO placement fitted to this thread
        // count's BRAM share. A placement that cannot fit is not a
        // feasible design — recorded for the exploration chart but
        // never chosen.
        if (!probe)
            probe = accel::BufferOptimizer::probe(tr, *kernel, analysis,
                                                  plan);
        accel::BufferPlacement placement = accel::BufferOptimizer::fit(
            tr, *kernel, analysis, *probe,
            accel::BufferOptimizer::budgetPerThread(
                plan, options.elasticBufferBudgetBytes));

        accel::PerfParams eparams = perf.params();
        eparams.computeCyclesPerRecord = placement.cyclesPerRecord;
        accel::PerfEstimator eperf(eparams);

        DesignPoint epoint;
        epoint.threads = threads;
        epoint.rowsPerThread = rows;
        epoint.elastic = true;
        epoint.bufferBytes = placement.bufferBytesPerThread;
        epoint.cyclesPerRecord = eperf.cyclesPerRecordPerThread();
        epoint.recordsPerSecond =
            tr.minibatch / eperf.batchTime(tr.minibatch).totalSec();
        epoint.memoryBound = eperf.memoryBound();
        if (placement.withinBudget) {
            consider(epoint, plan, &placement);
        } else {
            result.explored.push_back(epoint);
        }
    }

    // The mapping and schedule depend only on the row count, but the
    // kernel's memory schedule was built for the first thread count of
    // its group; its Thread Index Table must list the chosen plan's
    // threads.
    COSMIC_ASSERT(best_kernel, "no design point was chosen");
    result.kernel = std::move(*best_kernel);
    result.kernel.memory =
        compiler::MemoryScheduleBuilder::build(tr, result.plan);
    return result;
}

} // namespace cosmic::planner
