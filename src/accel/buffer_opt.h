/**
 * @file
 * Inter-PE buffer placement: sizing the elastic FIFOs.
 *
 * Elastic execution (elastic.h) turns buffer capacity into the central
 * dataflow knob: too small and backpressure serializes producers, too
 * large and the FIFOs eat the BRAM the planner wants for prefetch
 * buffers. The optimizer exploits a property of the simulator's
 * credit-based flow control: a probe run with unbounded FIFOs records
 * each link's peak occupancy, and capping every link at exactly its
 * observed peak reproduces the unbounded run cycle for cycle (no
 * injection is ever refused that the probe admitted). That peak
 * placement is therefore the cheapest placement with unthrottled
 * throughput; when it exceeds the BRAM left over after the planner's
 * data/model/interim buffers, capacities are scaled down and the
 * throughput cost is re-measured.
 *
 * The planner folds this into its design-space exploration: elastic
 * design points charge their buffer bytes against the platform's BRAM
 * budget alongside t_max (a placement that cannot fit is not explored).
 */
#pragma once

#include <cstdint>

#include "accel/elastic.h"
#include "accel/plan.h"
#include "compiler/kernel.h"
#include "dfg/analysis.h"
#include "dfg/translator.h"

namespace cosmic::accel {

/** A sized set of inter-PE FIFOs plus its measured cost/benefit. */
struct BufferPlacement
{
    /** Elastic configuration realizing the placement (per-link caps). */
    ElasticConfig config;
    /** Per-link capacity and the probe's observed peak/traffic. */
    std::vector<ElasticLinkStats> links;
    /** FIFO bytes per worker thread (4 bytes per slot). */
    int64_t bufferBytesPerThread = 0;
    /** BRAM share available to one thread's FIFOs. */
    int64_t budgetBytesPerThread = 0;
    bool withinBudget = true;
    /** Steady-state elastic cycles per record (probe batch average). */
    int64_t cyclesPerRecord = 0;
    /** PE-array occupancy of the probe run. */
    double utilization = 0.0;
    /** Records streamed by the probe. */
    int probeRecords = 0;
};

/** Places and sizes the elastic FIFOs for one compiled kernel. */
class BufferOptimizer
{
  public:
    /**
     * BRAM bytes one thread's FIFOs may consume: what the platform has
     * left after the plan's per-PE buffers, divided across threads
     * (@p override_bytes > 0 replaces the computed share).
     */
    static int64_t budgetPerThread(const AcceleratorPlan &plan,
                                   int64_t override_bytes = 0);

    /**
     * Unbounded-capacity probe: streams @p probe_records synthetic
     * records, caps every link at its observed peak occupancy. Timing
     * is value-independent, so the placement transfers to real data.
     * @p analysis is dfg::analyze of the translation's DFG.
     */
    static BufferPlacement probe(const dfg::Translation &translation,
                                 const compiler::CompiledKernel &kernel,
                                 const dfg::DfgAnalysis &analysis,
                                 const AcceleratorPlan &plan,
                                 int probe_records = 6);

    /**
     * Fits a probe placement into @p budget_bytes, scaling capacities
     * down (and re-measuring throughput) when the peak placement does
     * not fit. Falls back to the peak placement with withinBudget =
     * false when no completing configuration fits.
     */
    static BufferPlacement fit(const dfg::Translation &translation,
                               const compiler::CompiledKernel &kernel,
                               const dfg::DfgAnalysis &analysis,
                               const BufferPlacement &probed,
                               int64_t budget_bytes);

    /** probe + fit against the plan's remaining-BRAM share. */
    static BufferPlacement
    optimize(const dfg::Translation &translation,
             const compiler::CompiledKernel &kernel,
             const AcceleratorPlan &plan, int probe_records = 6,
             int64_t budget_override = 0);
};

} // namespace cosmic::accel
