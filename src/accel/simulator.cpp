#include "accel/simulator.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "compiler/interconnect.h"
#include "compiler/scheduler.h"
#include "dfg/interp.h"

namespace cosmic::accel {

using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

CycleSimulator::CycleSimulator(const dfg::Translation &translation,
                               const compiler::CompiledKernel &kernel,
                               Numeric numeric)
    : tr_(translation), kernel_(kernel), numeric_(numeric),
      bus_(compiler::BusKind::Hierarchical, kernel.mapping.columns,
           kernel.mapping.rowsPerThread)
{
    const auto &issue = kernel_.schedule.issueCycle;
    order_.reserve(tr_.dfg.size());
    for (NodeId v = 0; v < tr_.dfg.size(); ++v) {
        const auto &node = tr_.dfg.node(v);
        if (node.op == OpKind::Const || node.op == OpKind::Input)
            continue;
        COSMIC_ASSERT(issue[v] >= 0, "unscheduled op " << v);
        order_.push_back(v);
    }
    std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
        if (issue[a] != issue[b])
            return issue[a] < issue[b];
        return a < b;
    });

    // Per-edge route table: one bus.route lookup per cross-PE operand
    // edge here at build time, zero per record in run().
    const auto &mapping = kernel_.mapping;
    routes_.resize(order_.size());
    for (size_t i = 0; i < order_.size(); ++i) {
        const auto &node = tr_.dfg.node(order_[i]);
        const int pe = mapping.peOf[order_[i]];
        const NodeId ids[3] = {node.a, node.b, node.c};
        for (int k = 0; k < 3; ++k) {
            OperandRoute &route = routes_[i][k];
            if (ids[k] == kInvalidNode) {
                route.kind = OperandKind::Absent;
                continue;
            }
            const auto &op_node = tr_.dfg.node(ids[k]);
            if (op_node.op == OpKind::Const ||
                op_node.op == OpKind::Input) {
                route.kind = OperandKind::Resident;
            } else if (mapping.peOf[ids[k]] == pe) {
                route.kind = OperandKind::SamePe;
            } else {
                route.kind = OperandKind::CrossPe;
                route.latency =
                    bus_.route(mapping.peOf[ids[k]], pe).latency;
            }
        }
    }

    // Scratch buffers are sized once; constants never change between
    // records, so they are preloaded here and only inputs are
    // refreshed per run.
    value_.assign(tr_.dfg.size(), 0.0);
    finish_.assign(tr_.dfg.size(), 0);
    produced_.assign(tr_.dfg.size(), 0);
    for (NodeId v = 0; v < tr_.dfg.size(); ++v) {
        const auto &node = tr_.dfg.node(v);
        if (node.op == OpKind::Const)
            value_[v] = roundTo(numeric_, tr_.dfg.constValue(v));
        else if (node.op == OpKind::Input)
            inputs_.push_back(v);
    }
}

SimulationResult
CycleSimulator::run(std::span<const double> record,
                    std::span<const double> model) const
{
    const dfg::Dfg &dfg = tr_.dfg;
    const auto &mapping = kernel_.mapping;
    const auto &issue = kernel_.schedule.issueCycle;

    SimulationResult result;
    ReentrancyGuard::Scope in_use(guard_);
    COSMIC_ASSERT(static_cast<int64_t>(record.size()) >=
                      tr_.recordWords,
                  "record too short");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr_.modelWords,
                  "model too short");

    // Per-node value and finish time, in the member scratch buffers.
    // Inputs/constants are resident from cycle 0 (the memory interface
    // prefetched); constants were preloaded at construction, and every
    // operation slot is rewritten before it is read (produced_ guards
    // stale cross-record reads).
    std::vector<double> &value = value_;
    std::vector<int64_t> &finish = finish_;
    std::vector<char> &produced = produced_;
    std::fill(finish.begin(), finish.end(), 0);
    std::fill(produced.begin(), produced.end(), 0);
    for (NodeId v : inputs_) {
        const auto &node = dfg.node(v);
        value[v] = roundTo(numeric_,
                           node.category == dfg::Category::Data
                               ? record[dfg.inputPos(v)]
                               : model[dfg.inputPos(v)]);
    }

    auto fail = [&](NodeId v, NodeId o, int64_t arrival) {
        if (!result.ok)
            return;
        result.ok = false;
        std::ostringstream oss;
        oss << "op " << v << " on PE " << mapping.peOf[v]
            << " issues at cycle " << issue[v] << " but operand " << o
            << " from PE " << mapping.peOf[o] << " only arrives at "
            << arrival;
        result.violation = oss.str();
    };

    for (size_t i = 0; i < order_.size(); ++i) {
        const NodeId v = order_[i];
        const auto &node = dfg.node(v);
        double operands[3] = {0.0, 0.0, 0.0};
        const NodeId ids[3] = {node.a, node.b, node.c};
        for (int k = 0; k < 3; ++k) {
            const OperandRoute &route = routes_[i][k];
            if (route.kind == OperandKind::Absent)
                continue;
            const NodeId o = ids[k];
            if (route.kind != OperandKind::Resident) {
                if (!produced[o]) {
                    // Executed in time order, so an unproduced operand
                    // means the schedule runs the consumer first.
                    fail(v, o, -1);
                }
                int64_t arrival = finish[o];
                if (route.kind == OperandKind::CrossPe) {
                    arrival += route.latency;
                    ++result.messages;
                    // The scheduler reserved the transfer's bus slot;
                    // arrival at pure route latency is the earliest
                    // physically possible time.
                    if (issue[v] + 1 < arrival)
                        fail(v, o, arrival);
                } else if (issue[v] < arrival) {
                    fail(v, o, arrival);
                }
            }
            operands[k] = value[o];
        }
        value[v] = roundTo(numeric_,
                           dfg::evaluateOp(node.op, operands[0],
                                           operands[1], operands[2]));
        finish[v] = issue[v] + compiler::Scheduler::opLatency(node.op);
        produced[v] = 1;
        result.cycles = std::max(result.cycles, finish[v]);
    }

    const auto &grads = dfg.gradientNodes();
    result.gradient.assign(grads.size(), 0.0);
    for (size_t g = 0; g < grads.size(); ++g)
        result.gradient[g] = value[grads[g]];
    return result;
}

} // namespace cosmic::accel
