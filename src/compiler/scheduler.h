/**
 * @file
 * Cycle-level static scheduling of a mapped DFG.
 *
 * The scheduler produces the per-PE issue cycles that the Constructor
 * turns into state machines (FPGA) or microcode (P-ASIC). It is a list
 * scheduler that prioritizes operations with the longest dependence
 * chain (paper Sec. 6) and reserves the contended interconnect
 * resources greedily, so the resulting makespan reflects both compute
 * and communication — the property that makes it usable as the
 * Planner's performance-estimation tool (paper Sec. 4.4).
 *
 * PE timing follows the five-stage pipeline of Sec. 5.1: one operation
 * issues per PE per cycle; the writeback-to-ALU bypass lets dependent
 * operations on the same PE issue back-to-back; nonlinear operations
 * take an extra cycle in the lookup-table unit.
 *
 * Every operand is strictly taller than its consumer, so by the time
 * the first operation of height h would leave a ready queue, all taller
 * operations have left it and every operation of height h is ready: a
 * longest-chain-first queue (ties to the lower id) always pops in
 * (height descending, id ascending) order. The scheduler therefore
 * walks that static order (dfg::DfgAnalysis::issueOrder) instead of
 * keeping a queue. The order, like the broadcast-slot layout, does not
 * depend on the mapping, so the Planner computes it once per DFG and
 * shares it across every design point it schedules.
 *
 * The walk's cost is its memory reads. It streams each operation's
 * operands from the analysis's issue-ordered copy rather than reading
 * the operation's node, which issue order visits out of id order. The
 * operands themselves land anywhere in the graph, so it reads an
 * operand's facts from the analysis's one-byte traits rather than its
 * 16-byte node. It reads the operand's ready
 * cycle from the issue cycles, since every operand issues before its
 * consumers. A producer with at least as many consumer edges as there
 * are rows finds its broadcast to row r in its slot r without a scan.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/interconnect.h"
#include "compiler/mapper.h"
#include "dfg/analysis.h"
#include "dfg/graph.h"

namespace cosmic::compiler {

/** The static schedule and its summary metrics. */
struct ScheduleResult
{
    /** Issue cycle per node; -1 for constants and inputs. */
    std::vector<int64_t> issueCycle;

    /** Cycles from record availability to the last gradient value,
     *  including the per-record gradient accumulation into the interim
     *  buffers. This is the compute cycles-per-record of one thread. */
    int64_t makespan = 0;

    /** Busiest PE: operations it executes per record. */
    int64_t maxPeBusy = 0;
    /** Busiest shared bus: transfers it carries per record. */
    int64_t maxBusBusy = 0;

    int64_t neighborTransfers = 0;
    int64_t rowBusTransfers = 0;
    int64_t treeBusTransfers = 0;
    int64_t sharedBusTransfers = 0;

    int64_t
    totalTransfers() const
    {
        return neighborTransfers + rowBusTransfers + treeBusTransfers +
               sharedBusTransfers;
    }
};

/** Schedules a mapped DFG onto the thread's PE array. */
class Scheduler
{
  public:
    /** Schedules with the shared analyses of @p dfg (dfg::analyze). */
    static ScheduleResult schedule(const dfg::Dfg &dfg,
                                   const Mapping &mapping,
                                   const InterconnectModel &interconnect,
                                   const dfg::DfgAnalysis &analysis);

    /** Same, computing the analyses for this one call. */
    static ScheduleResult schedule(const dfg::Dfg &dfg,
                                   const Mapping &mapping,
                                   const InterconnectModel &interconnect);

    /** Latency of one operation in the PE pipeline. */
    static int64_t
    opLatency(dfg::OpKind op)
    {
        return dfg::isNonlinear(op) ? 2 : 1;
    }

    /** Same, from the operation's dfg::DfgAnalysis::traits byte. */
    static int64_t
    opLatency(uint8_t traits)
    {
        return traits & dfg::trait::kNonlinear ? 2 : 1;
    }
};

} // namespace cosmic::compiler
