/**
 * @file
 * The Planner: shapes the multi-threaded template for a target chip.
 *
 * Following paper Sec. 4.4, the Planner:
 *  1. fixes the column count to the words the memory interface can
 *     deliver per cycle at the chip's nominal design point, and the
 *     maximum row count from the chip's compute budget;
 *  2. bounds the number of worker threads by
 *     t_max = min(BRAM / DFG.storage(), row_max, mini-batch);
 *  3. enumerates the (threads x rows-per-thread) design space at row
 *     granularity and evaluates each point with the performance
 *     estimation tool (the static schedule), choosing the smallest
 *     best-performing point.
 *
 * Exploration cost is kept down at two levels. The analyses that do
 * not depend on the design point at all (the scheduler's static issue
 * order and broadcast-slot layout, the critical path, the operation
 * count, the interim high-water mark behind t_max and buffer sizing,
 * and the elastic firing heights) are computed once per plan() call by
 * dfg::analyze and shared by every point. The schedule depends only on
 * rows-per-thread, so one kernel is compiled per distinct row count
 * and reused across thread counts — this is what makes full
 * exploration take seconds, as the paper's "less than five minutes for
 * UltraScale+" suggests. The chosen point's kernel gets the memory
 * schedule of the chosen plan, so PlanResult::kernel is exactly what
 * KernelCompiler::compile would produce for PlanResult::plan.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "accel/buffer_opt.h"
#include "accel/perf.h"
#include "accel/plan.h"
#include "compiler/kernel.h"
#include "dfg/translator.h"

namespace cosmic::planner {

/** One evaluated point of the design space. */
struct DesignPoint
{
    int threads = 0;
    int rowsPerThread = 0;
    /** Steady-state cycles per record for one thread at this point. */
    double cyclesPerRecord = 0.0;
    /** Mini-batch throughput in records per second for the chip. */
    double recordsPerSecond = 0.0;
    bool memoryBound = false;
    /** Elastic (dataflow-fired) variant of the static point above. */
    bool elastic = false;
    /** Inter-PE FIFO bytes per thread (elastic points only); charged
     *  against the platform's BRAM budget alongside t_max. */
    int64_t bufferBytes = 0;
};

/** The chosen plan plus the full exploration record. */
struct PlanResult
{
    accel::AcceleratorPlan plan;
    /** The compiled kernel of `plan` (its Thread Index Table lists
     *  plan.threads threads). */
    compiler::CompiledKernel kernel;
    std::vector<DesignPoint> explored;
    /** The t_max bound of Sec. 4.4. */
    int64_t maxThreadsBound = 0;
    /** Index of the chosen point within `explored`. */
    size_t chosenIndex = 0;
    /** FIFO placement of the chosen point, when it is elastic
     *  (explored[chosenIndex].elastic). */
    std::optional<accel::BufferPlacement> elasticPlacement;
};

/** The architecture layer's planning engine. */
class Planner
{
  public:
    /**
     * Plans and compiles the accelerator for @p translation on
     * @p platform, exploring the pruned design space.
     *
     * Exploration knobs live in @p options: `pruneSmallRows` skips
     * narrow-thread points for very large DFGs (they cannot win and
     * dominate exploration time; the design-space-exploration figure
     * disables it to chart the whole space), and
     * `forceThreads`/`forceRowsPerThread` pin a single explicit design
     * point for sensitivity sweeps.
     */
    static PlanResult plan(const dfg::Translation &translation,
                           const accel::PlatformSpec &platform,
                           const compiler::CompileOptions &options = {});

    /** The t_max bound (Sec. 4.4). */
    static int64_t maxThreads(const dfg::Translation &translation,
                              const accel::PlatformSpec &platform);

    /**
     * Enumerates candidate (threads, rowsPerThread) pairs: rows at
     * divisor granularity of the fabric's row count, threads in powers
     * of two, threads*rows within the fabric, threads within t_max.
     */
    static std::vector<std::pair<int, int>>
    enumerateDesignPoints(const accel::PlatformSpec &platform,
                          int64_t t_max);

    /**
     * Builds a concrete plan (with Planner buffer sizing) for an
     * explicit design point — used by sensitivity sweeps.
     */
    static accel::AcceleratorPlan
    makePlan(const dfg::Translation &translation,
             const accel::PlatformSpec &platform, int threads,
             int rows_per_thread);
};

} // namespace cosmic::planner
