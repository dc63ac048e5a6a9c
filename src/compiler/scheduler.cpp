#include "compiler/scheduler.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "dfg/analysis.h"

namespace cosmic::compiler {

using dfg::Dfg;
using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

ScheduleResult
Scheduler::schedule(const Dfg &dfg, const Mapping &mapping,
                    const InterconnectModel &interconnect)
{
    return schedule(dfg, mapping, interconnect, dfg::analyze(dfg));
}

ScheduleResult
Scheduler::schedule(const Dfg &dfg, const Mapping &mapping,
                    const InterconnectModel &interconnect,
                    const dfg::DfgAnalysis &analysis)
{
    const int64_t n = dfg.size();
    COSMIC_ASSERT(static_cast<int64_t>(analysis.fanoutBase.size()) == n + 1,
                  "analysis of a different DFG");
    ScheduleResult result;
    result.issueCycle.assign(n, -1);

    std::vector<int64_t> pe_free(mapping.numPes, 0);
    std::vector<int64_t> bus_free(interconnect.busCount(), 0);
    std::vector<int64_t> pe_busy(mapping.numPes, 0);
    std::vector<int64_t> bus_busy(interconnect.busCount(), 0);

    // Buses deliver to a whole row at once (the shared row bus and the
    // tree lanes are broadcast media, paper Sec. 5.1), so a value with
    // many consumers in one destination row pays for a single transfer.
    // Each producer owns one (destination row, arrival cycle) slot per
    // consumer edge at its fanout offset; row -1 marks a free slot. The
    // flat bus counts as row 0. A producer with at least as many
    // consumer edges as there are rows keeps row r's delivery in its
    // slot r; any other fills its slots front to back, so finding a row
    // scans fewer slots than the row count.
    struct Delivery
    {
        int32_t row = -1;
        int32_t cycle = 0;
    };
    std::vector<Delivery> delivered(analysis.fanoutBase[n]);
    const bool shared_bus = interconnect.kind() == BusKind::SingleShared;
    const int64_t dst_rows = shared_bus ? 1 : mapping.rowsPerThread;

    // An operand's value is ready when its producer finishes, which the
    // issue cycles already hold (every operand issues before its
    // consumers); inputs are resident from cycle 0. Reading the traits
    // byte instead of the 16-byte node keeps these reads in cache.
    const uint8_t *traits = analysis.traits.data();
    const NodeId *operands = analysis.issueOperands.data();
    for (NodeId v : analysis.issueOrder) {
        const int pe = mapping.peOf[v];
        COSMIC_ASSERT(pe >= 0 && pe < mapping.numPes,
                      "operation " << v << " is unmapped");

        int64_t operands_ready = 0;
        for (const NodeId *end = operands + 3; operands != end;
             ++operands) {
            const NodeId o = *operands;
            if (o == kInvalidNode)
                continue;
            int src_pe = mapping.peOf[o];
            int64_t avail = (traits[o] & dfg::trait::kInput)
                                ? 0
                                : result.issueCycle[o] + opLatency(traits[o]);
            if (src_pe != pe) {
                Route r = interconnect.route(src_pe, pe);
                if (r.bus < 0) {
                    // Dedicated neighbour link: contention-free.
                    avail += r.latency;
                    ++result.neighborTransfers;
                } else {
                    const int32_t dst_row =
                        shared_bus ? 0 : pe / mapping.columns;
                    const int64_t base = analysis.fanoutBase[o];
                    Delivery *slot = &delivered[base];
                    if (analysis.fanoutBase[o + 1] - base >= dst_rows) {
                        slot += dst_row;
                    } else {
                        // This edge has no slot of its own yet, so a
                        // free one lies inside o's range.
                        while (slot->row >= 0 && slot->row != dst_row)
                            ++slot;
                    }
                    if (slot->row == dst_row) {
                        // Already broadcast onto this row's bus.
                        avail = std::max<int64_t>(avail, slot->cycle);
                    } else {
                        int64_t start =
                            std::max(avail, bus_free[r.bus]);
                        bus_free[r.bus] = start + 1;
                        ++bus_busy[r.bus];
                        avail = start + r.latency;
                        *slot = Delivery{dst_row,
                                         static_cast<int32_t>(avail)};
                        if (shared_bus) {
                            ++result.sharedBusTransfers;
                        } else if (r.bus < mapping.rowsPerThread) {
                            ++result.rowBusTransfers;
                        } else {
                            ++result.treeBusTransfers;
                        }
                    }
                }
            }
            operands_ready = std::max(operands_ready, avail);
        }

        int64_t issue = std::max(operands_ready, pe_free[pe]);
        pe_free[pe] = issue + 1;
        ++pe_busy[pe];
        result.issueCycle[v] = issue;
        result.makespan =
            std::max(result.makespan, issue + opLatency(traits[v]));
    }

    // Delivery cycles are kept in 32 bits; none exceeds the makespan.
    COSMIC_ASSERT(result.makespan <= INT32_MAX,
                  "schedule exceeds 2^31 cycles");

    // Per-record gradient accumulation: one add per gradient element on
    // the PE that owns it, serialized with that PE's other work.
    std::vector<int64_t> grad_per_pe(mapping.numPes, 0);
    for (NodeId g : dfg.gradientNodes()) {
        if (g == kInvalidNode)
            continue;
        int pe = mapping.peOf[g];
        if (pe >= 0) {
            ++grad_per_pe[pe];
            ++pe_busy[pe];
        }
    }
    int64_t max_grad = 0;
    for (int64_t c : grad_per_pe)
        max_grad = std::max(max_grad, c);
    result.makespan += max_grad;

    for (int64_t b : pe_busy)
        result.maxPeBusy = std::max(result.maxPeBusy, b);
    for (int64_t b : bus_busy)
        result.maxBusBusy = std::max(result.maxBusBusy, b);
    return result;
}

} // namespace cosmic::compiler
