#include "compiler/mapper.h"

#include <algorithm>

#include "common/error.h"

namespace cosmic::compiler {

using dfg::Category;
using dfg::Dfg;
using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

namespace {

/** PE that the memory-interface column feeding stream word @p pos hits. */
int
dataPeForStreamPos(int64_t pos, int columns, int rows_per_thread)
{
    int col = static_cast<int>(pos % columns);
    int row = static_cast<int>((pos / columns) % rows_per_thread);
    return row * columns + col;
}

} // namespace

Mapping
Mapper::map(const Dfg &dfg, const accel::AcceleratorPlan &plan,
            MappingStrategy strategy)
{
    return map(dfg, plan, strategy, dfg::analyze(dfg));
}

Mapping
Mapper::map(const Dfg &dfg, const accel::AcceleratorPlan &plan,
            MappingStrategy strategy, const dfg::DfgAnalysis &analysis)
{
    COSMIC_ASSERT(plan.pesPerThread() > 0, "plan has no PEs per thread");
    COSMIC_ASSERT(static_cast<int64_t>(analysis.traits.size()) ==
                      dfg.size(),
                  "analysis of a different DFG");
    return strategy == MappingStrategy::DataFirst
               ? mapDataFirst(dfg, plan, analysis)
               : mapOperationFirst(dfg, plan);
}

Mapping
Mapper::mapDataFirst(const Dfg &dfg, const accel::AcceleratorPlan &plan,
                     const dfg::DfgAnalysis &analysis)
{
    namespace trait = dfg::trait;
    Mapping m;
    m.numPes = plan.pesPerThread();
    m.columns = plan.columns;
    m.rowsPerThread = plan.rowsPerThread;
    m.peOf.assign(dfg.size(), -1);
    const uint8_t *traits = analysis.traits.data();

    // Step 1 (data map): each DATA element goes to the PE wired to the
    // memory column that delivers it — this is what makes marshaling
    // unnecessary.
    for (NodeId v = 0; v < dfg.size(); ++v) {
        if ((traits[v] & trait::kInput) &&
            dfg::traitCategory(traits[v]) == Category::Data) {
            m.peOf[v] = dataPeForStreamPos(dfg.inputPos(v), m.columns,
                                           m.rowsPerThread);
        }
    }

    // Steps 2-6 (Algorithm 1): walk operations in topological order
    // (node ids) and map each to the PE holding one of its operands,
    // placing MODEL parameters beside their consumers on first use.
    // When several operands of the same category qualify, Algorithm 1
    // leaves the choice open; we (a) prefer an operand no other
    // operation consumes — shared values broadcast cheaply over the
    // buses while private values would have to move — and (b) break
    // ties toward the least-loaded PE so reduction spines spread
    // instead of collapsing onto the leftmost leaf's PE.
    std::vector<int64_t> load(m.numPes, 0);
    int32_t round_robin = 0;
    auto next_round_robin = [&] {
        const int32_t pe = round_robin;
        if (++round_robin == m.numPes)
            round_robin = 0;
        return pe;
    };
    for (NodeId v = 0; v < dfg.size(); ++v) {
        if (traits[v] & (trait::kConst | trait::kInput))
            continue;
        const auto &node = dfg.node(v);

        NodeId ops[3] = {node.a, node.b, node.c};
        NodeId data_op = kInvalidNode;
        NodeId model_op = kInvalidNode;
        int32_t best_interim_pe = -1;
        bool best_is_private = false;
        for (NodeId o : ops) {
            if (o == kInvalidNode)
                continue;
            switch (dfg::traitCategory(traits[o])) {
              case Category::Data:
                if (data_op == kInvalidNode)
                    data_op = o;
                break;
              case Category::Model:
                if (model_op == kInvalidNode)
                    model_op = o;
                break;
              case Category::Interim: {
                int32_t pe = m.peOf[o];
                if (pe < 0)
                    break;
                bool is_private = !(traits[o] & trait::kShared);
                bool better =
                    best_interim_pe < 0 ||
                    (is_private && !best_is_private) ||
                    (is_private == best_is_private &&
                     load[pe] < load[best_interim_pe]);
                if (better) {
                    best_interim_pe = pe;
                    best_is_private = is_private;
                }
                break;
              }
              case Category::Immed:
                break;
            }
        }

        if (data_op != kInvalidNode) {
            // Rule 3: stick with the training data; co-locate a MODEL
            // operand if it has not been placed yet.
            m.peOf[v] = m.peOf[data_op];
            if (model_op != kInvalidNode && m.peOf[model_op] < 0)
                m.peOf[model_op] = m.peOf[v];
        } else if (model_op != kInvalidNode) {
            // Rule 4: follow the model parameter; place it round-robin
            // on first use so neighbouring PEs work in parallel.
            if (m.peOf[model_op] < 0)
                m.peOf[model_op] = next_round_robin();
            m.peOf[v] = m.peOf[model_op];
        } else if (best_interim_pe >= 0) {
            // Rule 5: stay where an intermediate operand lives,
            // preferring the least-loaded owner.
            m.peOf[v] = best_interim_pe;
        } else {
            // Constant-only expression: round-robin.
            m.peOf[v] = next_round_robin();
        }
        ++load[m.peOf[v]];
    }

    // Any MODEL parameter never consumed by an operation (possible when
    // a gradient directly re-emits a parameter) still needs a home.
    for (NodeId v = 0; v < dfg.size(); ++v)
        if ((traits[v] & trait::kInput) && m.peOf[v] < 0)
            m.peOf[v] = next_round_robin();
    return m;
}

Mapping
Mapper::mapOperationFirst(const Dfg &dfg,
                          const accel::AcceleratorPlan &plan)
{
    Mapping m;
    m.numPes = plan.pesPerThread();
    m.columns = plan.columns;
    m.rowsPerThread = plan.rowsPerThread;
    m.peOf.assign(dfg.size(), -1);

    // TABLA-style: compute ASAP levels, then hand the operations of each
    // level out round-robin so every PE has work — latency-optimal if
    // communication were free.
    std::vector<int32_t> level(dfg.size(), 0);
    for (NodeId v = 0; v < dfg.size(); ++v) {
        const auto &node = dfg.node(v);
        if (node.op == OpKind::Const || node.op == OpKind::Input)
            continue;
        int32_t lv = 0;
        for (NodeId o : {node.a, node.b, node.c})
            if (o != kInvalidNode)
                lv = std::max(lv, level[o]);
        level[v] = lv + 1;
    }

    std::vector<int32_t> next_pe_at_level;
    for (NodeId v = 0; v < dfg.size(); ++v) {
        const auto &node = dfg.node(v);
        if (node.op == OpKind::Const || node.op == OpKind::Input)
            continue;
        if (static_cast<size_t>(level[v]) >= next_pe_at_level.size())
            next_pe_at_level.resize(level[v] + 1, 0);
        int32_t &rr = next_pe_at_level[level[v]];
        m.peOf[v] = rr;
        rr = (rr + 1) % m.numPes;
    }

    // Inputs go to their first consumer (TABLA marshals data to suit the
    // operation map; we grant it that marshaling for free).
    for (NodeId v = 0; v < dfg.size(); ++v) {
        const auto &node = dfg.node(v);
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode)
                continue;
            if (dfg.node(o).op == OpKind::Input && m.peOf[o] < 0)
                m.peOf[o] = m.peOf[v];
        }
    }
    for (NodeId v = 0; v < dfg.size(); ++v) {
        if (dfg.node(v).op == OpKind::Input && m.peOf[v] < 0)
            m.peOf[v] = 0;
    }
    return m;
}

EdgeCounts
countEdges(const Dfg &dfg, const Mapping &mapping)
{
    EdgeCounts counts;
    for (NodeId v = 0; v < dfg.size(); ++v) {
        const auto &node = dfg.node(v);
        if (node.op == OpKind::Const || node.op == OpKind::Input)
            continue;
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode || dfg.node(o).op == OpKind::Const)
                continue;
            ++counts.total;
            if (mapping.peOf[o] != mapping.peOf[v])
                ++counts.crossPe;
        }
    }
    return counts;
}

} // namespace cosmic::compiler
