/**
 * @file
 * Property tests for the data/operation mappers (Algorithm 1 and the
 * TABLA-style baseline), parameterized over PE array shapes and
 * benchmarks.
 */
#include <gtest/gtest.h>

#include "compiler/mapper.h"
#include "compiler/pipeline.h"
#include "ml/workloads.h"
#include "planner/planner.h"

namespace cosmic::compiler {
namespace {

using dfg::Category;
using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

dfg::Translation
translateWorkload(const std::string &name, double scale = 128.0)
{
    const auto &w = ml::Workload::byName(name);
    return compile::translateSource(w.dslSource(scale));
}

accel::AcceleratorPlan
planFor(const dfg::Translation &tr, int threads, int rows)
{
    return planner::Planner::makePlan(
        tr, accel::PlatformSpec::ultrascalePlus(), threads, rows);
}

/** (benchmark, rowsPerThread) sweep. */
class MapperProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(MapperProperty, DataFirstInvariants)
{
    auto [name, rows] = GetParam();
    auto tr = translateWorkload(name);
    auto plan = planFor(tr, 1, rows);
    Mapping m = Mapper::map(tr.dfg, plan, MappingStrategy::DataFirst);

    ASSERT_EQ(m.numPes, plan.pesPerThread());
    for (NodeId v = 0; v < tr.dfg.size(); ++v) {
        const auto &node = tr.dfg.node(v);
        if (node.op == OpKind::Const) {
            EXPECT_EQ(m.peOf[v], -1) << "constants are immediates";
            continue;
        }
        ASSERT_GE(m.peOf[v], 0) << "node " << v << " unmapped";
        ASSERT_LT(m.peOf[v], m.numPes);

        if (node.op == OpKind::Input &&
            node.category == Category::Data) {
            // DATA elements sit on the PE their memory column feeds.
            int64_t pos = tr.dfg.inputPos(v);
            int col = static_cast<int>(pos % m.columns);
            int row = static_cast<int>((pos / m.columns) %
                                       m.rowsPerThread);
            EXPECT_EQ(m.peOf[v], row * m.columns + col);
        }
    }

    // Algorithm 1's defining property: every operation is co-located
    // with at least one of its non-immediate operands.
    for (NodeId v = 0; v < tr.dfg.size(); ++v) {
        const auto &node = tr.dfg.node(v);
        if (node.op == OpKind::Const || node.op == OpKind::Input)
            continue;
        bool colocated = false;
        bool has_operand = false;
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode ||
                tr.dfg.node(o).op == OpKind::Const)
                continue;
            has_operand = true;
            if (m.peOf[o] == m.peOf[v])
                colocated = true;
        }
        if (has_operand) {
            EXPECT_TRUE(colocated) << "op " << v << " far from all "
                                   << "of its operands";
        }
    }
}

TEST_P(MapperProperty, DataFirstBeatsOperationFirstOnCommunication)
{
    auto [name, rows] = GetParam();
    auto tr = translateWorkload(name);
    auto plan = planFor(tr, 1, rows);
    Mapping data_first =
        Mapper::map(tr.dfg, plan, MappingStrategy::DataFirst);
    Mapping op_first =
        Mapper::map(tr.dfg, plan, MappingStrategy::OperationFirst);

    const EdgeCounts data_edges = countEdges(tr.dfg, data_first);
    const EdgeCounts op_edges = countEdges(tr.dfg, op_first);
    EXPECT_EQ(data_edges.total, op_edges.total);
    // The whole point of Algorithm 1 (paper Sec. 6): fewer cross-PE
    // edges than the latency-oriented mapping.
    EXPECT_LT(data_edges.crossPe, op_edges.crossPe);
}

TEST_P(MapperProperty, OperationFirstMapsEverything)
{
    auto [name, rows] = GetParam();
    auto tr = translateWorkload(name);
    auto plan = planFor(tr, 1, rows);
    Mapping m =
        Mapper::map(tr.dfg, plan, MappingStrategy::OperationFirst);
    for (NodeId v = 0; v < tr.dfg.size(); ++v) {
        if (tr.dfg.node(v).op == OpKind::Const)
            continue;
        EXPECT_GE(m.peOf[v], 0);
        EXPECT_LT(m.peOf[v], m.numPes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, MapperProperty,
    ::testing::Combine(::testing::Values("stock", "tumor", "face",
                                         "mnist", "movielens"),
                       ::testing::Values(1, 4, 16, 48)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_R" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Mapper, ModelParametersPlacedBesideConsumers)
{
    // g[i] = w[i] * x[i]: each w element must land on its x's PE.
    auto tr = compile::translateSource(R"(
        model_input x[32];
        model w[32];
        gradient g[32];
        iterator i[0:32];
        g[i] = w[i] * x[i];
    )");
    auto plan = planFor(tr, 1, 2);
    Mapping m = Mapper::map(tr.dfg, plan, MappingStrategy::DataFirst);

    for (NodeId v = 0; v < tr.dfg.size(); ++v) {
        const auto &node = tr.dfg.node(v);
        if (node.op != OpKind::Mul)
            continue;
        EXPECT_EQ(m.peOf[node.a], m.peOf[v]);
        EXPECT_EQ(m.peOf[node.b], m.peOf[v]);
    }
    EXPECT_EQ(countEdges(tr.dfg, m).crossPe, 0);
}

} // namespace
} // namespace cosmic::compiler
