/**
 * @file
 * Property tests for the static scheduler: dependence and resource
 * validity of the emitted schedule, latency modeling, monotonicity
 * with PE count, and exact agreement with a reference list scheduler
 * that keeps an explicit ready queue.
 */
#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <unordered_map>

#include "compiler/kernel.h"
#include "compiler/pipeline.h"
#include "dfg/analysis.h"
#include "dfg/translator.h"
#include "kernel_compare.h"
#include "ml/workloads.h"
#include "planner/planner.h"
#include "random_dfg.h"

namespace cosmic::compiler {
namespace {

using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

dfg::Translation
translateWorkload(const std::string &name, double scale = 128.0)
{
    const auto &w = ml::Workload::byName(name);
    return compile::translateSource(w.dslSource(scale));
}

CompiledKernel
compileAt(const dfg::Translation &tr, int rows,
          const CompileOptions &opts = {})
{
    auto plan = planner::Planner::makePlan(
        tr, accel::PlatformSpec::ultrascalePlus(), 1, rows);
    return KernelCompiler::compile(tr, plan, opts);
}

class ScheduleValidity
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(ScheduleValidity, RespectsDependencesAndResources)
{
    auto [name, rows] = GetParam();
    auto tr = translateWorkload(name);
    CompiledKernel k = compileAt(tr, rows);
    const auto &issue = k.schedule.issueCycle;

    // Every operation has an issue cycle; inputs and constants do not.
    std::map<std::pair<int, int64_t>, int> pe_cycle_use;
    for (NodeId v = 0; v < tr.dfg.size(); ++v) {
        const auto &node = tr.dfg.node(v);
        bool is_op = node.op != OpKind::Const &&
                     node.op != OpKind::Input;
        if (!is_op) {
            EXPECT_EQ(issue[v], -1);
            continue;
        }
        ASSERT_GE(issue[v], 0) << "op " << v << " unscheduled";

        // Dependences: an op never issues before an operand finished
        // (same-PE bypass makes back-to-back legal; cross-PE operands
        // additionally need transfer time, which only increases the
        // bound checked here).
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode)
                continue;
            const auto &op_node = tr.dfg.node(o);
            if (op_node.op == OpKind::Const ||
                op_node.op == OpKind::Input)
                continue;
            int64_t op_finish =
                issue[o] + Scheduler::opLatency(op_node.op);
            int64_t min_gap =
                k.mapping.peOf[o] == k.mapping.peOf[v] ? 0 : 1;
            EXPECT_GE(issue[v], op_finish + min_gap - 1)
                << "op " << v << " issues before operand " << o;
        }

        // Structural hazard: one issue per PE per cycle.
        auto key = std::make_pair(k.mapping.peOf[v], issue[v]);
        EXPECT_EQ(pe_cycle_use[key]++, 0)
            << "two ops issue on PE " << key.first << " at cycle "
            << key.second;
    }

    // Makespan bounds: at least the critical path and the busiest PE,
    // at most the fully serialized schedule.
    EXPECT_GE(k.schedule.makespan, dfg::criticalPathLength(tr.dfg));
    EXPECT_GE(k.schedule.makespan, k.schedule.maxPeBusy);
    EXPECT_LE(k.schedule.makespan,
              10 * tr.dfg.operationCount() + 1000);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, ScheduleValidity,
    ::testing::Combine(::testing::Values("stock", "tumor", "face",
                                         "movielens"),
                       ::testing::Values(1, 4, 16, 48)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_R" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Scheduler, MoreRowsNeverHurtMuch)
{
    auto tr = translateWorkload("face");
    int64_t prev = -1;
    for (int rows : {1, 2, 4, 8, 16, 32, 48}) {
        CompiledKernel k = compileAt(tr, rows);
        if (prev >= 0) {
            // Greedy list scheduling is not perfectly monotone, but
            // doubling the PEs must never make things much worse.
            EXPECT_LE(k.schedule.makespan,
                      static_cast<int64_t>(prev * 1.15) + 8)
                << "at rows=" << rows;
        }
        prev = k.schedule.makespan;
    }
}

TEST(Scheduler, NonlinearOpsTakeExtraLatency)
{
    EXPECT_EQ(Scheduler::opLatency(OpKind::Add), 1);
    EXPECT_EQ(Scheduler::opLatency(OpKind::Mul), 1);
    EXPECT_EQ(Scheduler::opLatency(OpKind::Sigmoid), 2);
    EXPECT_EQ(Scheduler::opLatency(OpKind::Div), 2);
    EXPECT_EQ(Scheduler::opLatency(OpKind::Log), 2);
    EXPECT_EQ(Scheduler::opLatency(OpKind::Select), 1);
}

TEST(Scheduler, SingleSharedBusIsSlower)
{
    auto tr = translateWorkload("stock");
    CompileOptions cosmic_opts;
    CompileOptions tabla_opts;
    tabla_opts.bus = BusKind::SingleShared;
    tabla_opts.strategy = MappingStrategy::OperationFirst;

    CompiledKernel hier = compileAt(tr, 48, cosmic_opts);
    CompiledKernel flat = compileAt(tr, 48, tabla_opts);
    EXPECT_LT(hier.schedule.makespan, flat.schedule.makespan);
}

TEST(Scheduler, ChainScheduleIsExact)
{
    // A pure dependence chain on one PE: bypass lets each op issue the
    // cycle after its predecessor; makespan equals the chain length.
    auto tr = compile::translateSource(R"(
        model_input x[1];
        model w[1];
        gradient g[1];
        iterator i[0:1];
        a[i] = w[i] * x[i];
        b[i] = a[i] + 1;
        c[i] = b[i] + 2;
        g[i] = c[i] + 3;
    )");
    CompiledKernel k = compileAt(tr, 1);
    // 4 linear ops + 1 gradient-accumulation slot.
    EXPECT_EQ(k.schedule.makespan, 5);
}

TEST(Scheduler, TransferCountsAreConsistent)
{
    auto tr = translateWorkload("tumor");
    CompiledKernel k = compileAt(tr, 8);
    const auto &s = k.schedule;
    EXPECT_EQ(s.sharedBusTransfers, 0);
    EXPECT_GT(s.totalTransfers(), 0);
    // Broadcast caching means bus transfers never exceed cross edges.
    EXPECT_LE(s.rowBusTransfers + s.treeBusTransfers,
              countEdges(tr.dfg, k.mapping).crossPe);
}

// ------------------------------------------- reference list scheduler

/**
 * The textbook form of the scheduler: a ready queue popped tallest
 * chain first (ties to the lower id), per-node unscheduled-operand
 * counts, and a hash map of (producer, destination row) broadcasts.
 * Scheduler::schedule must reproduce it exactly.
 */
ScheduleResult
referenceSchedule(const dfg::Dfg &dfg, const Mapping &mapping,
                  const InterconnectModel &interconnect)
{
    struct ReadyOp
    {
        int32_t height;
        NodeId id;

        bool
        operator<(const ReadyOp &other) const
        {
            if (height != other.height)
                return height < other.height;
            return id > other.id;
        }
    };
    auto is_op = [&](NodeId v) {
        OpKind op = dfg.node(v).op;
        return op != OpKind::Const && op != OpKind::Input;
    };

    const int64_t n = dfg.size();
    ScheduleResult result;
    result.issueCycle.assign(n, -1);
    std::vector<int32_t> height = dfg::computeHeights(dfg);
    dfg::SuccessorCsr succ = dfg::buildSuccessors(dfg);

    std::vector<int32_t> pending(n, 0);
    for (NodeId v = 0; v < n; ++v) {
        if (!is_op(v))
            continue;
        const auto &node = dfg.node(v);
        for (NodeId o : {node.a, node.b, node.c})
            if (o != kInvalidNode && is_op(o))
                ++pending[v];
    }
    std::priority_queue<ReadyOp> ready;
    for (NodeId v = 0; v < n; ++v)
        if (is_op(v) && pending[v] == 0)
            ready.push(ReadyOp{height[v], v});

    std::vector<int64_t> finish(n, 0);
    std::vector<int64_t> pe_free(mapping.numPes, 0);
    std::vector<int64_t> bus_free(interconnect.busCount(), 0);
    std::vector<int64_t> pe_busy(mapping.numPes, 0);
    std::vector<int64_t> bus_busy(interconnect.busCount(), 0);
    std::unordered_map<uint64_t, int64_t> delivered;
    const uint64_t row_stride =
        static_cast<uint64_t>(mapping.rowsPerThread) + 1;
    const bool shared_bus = interconnect.kind() == BusKind::SingleShared;

    int64_t scheduled = 0;
    while (!ready.empty()) {
        const NodeId v = ready.top().id;
        ready.pop();
        const auto &node = dfg.node(v);
        const int pe = mapping.peOf[v];
        int64_t operands_ready = 0;
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode || dfg.node(o).op == OpKind::Const)
                continue;
            int src_pe = mapping.peOf[o];
            int64_t avail = finish[o];
            if (src_pe != pe) {
                Route r = interconnect.route(src_pe, pe);
                if (r.bus < 0) {
                    avail += r.latency;
                    ++result.neighborTransfers;
                } else {
                    int dst_row = shared_bus ? 0 : pe / mapping.columns;
                    uint64_t key = static_cast<uint64_t>(o) * row_stride +
                                   static_cast<uint64_t>(dst_row);
                    auto it = delivered.find(key);
                    if (it != delivered.end()) {
                        avail = std::max(avail, it->second);
                    } else {
                        int64_t start = std::max(avail, bus_free[r.bus]);
                        bus_free[r.bus] = start + 1;
                        ++bus_busy[r.bus];
                        avail = start + r.latency;
                        delivered.emplace(key, avail);
                        if (shared_bus)
                            ++result.sharedBusTransfers;
                        else if (r.bus < mapping.rowsPerThread)
                            ++result.rowBusTransfers;
                        else
                            ++result.treeBusTransfers;
                    }
                }
            }
            operands_ready = std::max(operands_ready, avail);
        }
        int64_t issue = std::max(operands_ready, pe_free[pe]);
        pe_free[pe] = issue + 1;
        ++pe_busy[pe];
        result.issueCycle[v] = issue;
        finish[v] = issue + Scheduler::opLatency(node.op);
        result.makespan = std::max(result.makespan, finish[v]);
        ++scheduled;

        auto [begin, end] = succ.successors(v);
        for (const NodeId *s = begin; s != end; ++s)
            if (--pending[*s] == 0)
                ready.push(ReadyOp{height[*s], *s});
    }
    EXPECT_EQ(scheduled, dfg.operationCount());

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

/**
 * Schedules @p tr on @p platform at every (rows, strategy, bus)
 * combination with both schedulers and expects identical results.
 * Returns the shared-bus transfers the reference counted, so callers
 * can check the sweep exercised broadcast reuse.
 */
int64_t
expectMatchesReference(const dfg::Translation &tr,
                       const accel::PlatformSpec &platform,
                       const std::vector<int> &row_counts,
                       const std::string &label)
{
    const dfg::DfgAnalysis analysis = dfg::analyze(tr.dfg);
    int64_t bus_transfers = 0;
    for (int rows : row_counts) {
        auto plan = planner::Planner::makePlan(tr, platform, 1, rows);
        for (MappingStrategy strategy :
             {MappingStrategy::DataFirst, MappingStrategy::OperationFirst}) {
            Mapping mapping = Mapper::map(tr.dfg, plan, strategy);
            for (BusKind bus :
                 {BusKind::Hierarchical, BusKind::SingleShared}) {
                SCOPED_TRACE(label + " rows=" + std::to_string(rows) +
                             " strategy=" +
                             std::to_string(static_cast<int>(strategy)) +
                             " bus=" + std::to_string(static_cast<int>(bus)));
                InterconnectModel interconnect(bus, plan.columns, rows);
                ScheduleResult want =
                    referenceSchedule(tr.dfg, mapping, interconnect);
                expectSameSchedule(Scheduler::schedule(tr.dfg, mapping,
                                                       interconnect,
                                                       analysis),
                                   want);
                bus_transfers += want.totalTransfers() -
                                 want.neighborTransfers;
            }
        }
    }
    return bus_transfers;
}

TEST(SchedulerEquivalence, MatchesReferenceOnEveryProgramAndShape)
{
    const auto platform = accel::PlatformSpec::ultrascalePlus();
    std::vector<int> divisors;
    for (int rows = 1; rows <= platform.maxRows; ++rows)
        if (platform.maxRows % rows == 0)
            divisors.push_back(rows);
    ASSERT_EQ(divisors.size(), 10u);
    for (const auto &w : ml::Workload::suite())
        expectMatchesReference(translateWorkload(w.name, 16.0), platform,
                               divisors, w.name);
}

TEST(SchedulerEquivalence, MatchesReferenceOnRandomDfgs)
{
    // A narrow chip, so the random graphs' few operations still share
    // PEs and buses.
    const auto platform = accel::PlatformSpec::zynq();
    int64_t bus_transfers = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed)
        bus_transfers += expectMatchesReference(
            fuzz::randomTranslation(seed), platform, {1, platform.maxRows},
            "seed " + std::to_string(seed));
    EXPECT_GT(bus_transfers, 0);
}

TEST(SchedulerEquivalence, IssueOrderIsTallestFirstThenById)
{
    auto tr = translateWorkload("tumor", 16.0);
    const dfg::DfgAnalysis a = dfg::analyze(tr.dfg);
    ASSERT_EQ(static_cast<int64_t>(a.issueOrder.size()),
              tr.dfg.operationCount());
    EXPECT_EQ(a.operationCount, tr.dfg.operationCount());
    EXPECT_EQ(a.criticalPath, dfg::criticalPathLength(tr.dfg));
    EXPECT_EQ(a.maxLiveInterim, dfg::maxLiveInterim(tr.dfg));
    const std::vector<int32_t> height = dfg::computeHeights(tr.dfg);
    for (size_t i = 1; i < a.issueOrder.size(); ++i) {
        NodeId prev = a.issueOrder[i - 1];
        NodeId cur = a.issueOrder[i];
        EXPECT_TRUE(height[prev] > height[cur] ||
                    (height[prev] == height[cur] && prev < cur))
            << "positions " << i - 1 << ", " << i;
    }
    dfg::SuccessorCsr succ = dfg::buildSuccessors(tr.dfg);
    ASSERT_EQ(a.fanoutBase.size(), succ.offsets.size());
    for (size_t v = 0; v < succ.offsets.size(); ++v)
        ASSERT_EQ(a.fanoutBase[v], succ.offsets[v]) << "offset " << v;
}

} // namespace
} // namespace cosmic::compiler
