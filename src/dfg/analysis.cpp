#include "dfg/analysis.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace cosmic::dfg {

SuccessorCsr
buildSuccessors(const Dfg &dfg)
{
    const int64_t n = dfg.size();
    SuccessorCsr csr;
    csr.offsets.assign(n + 1, 0);

    auto for_each_operand = [&](NodeId id, auto &&fn) {
        const Node &node = dfg.node(id);
        if (node.a != kInvalidNode)
            fn(node.a);
        if (node.b != kInvalidNode)
            fn(node.b);
        if (node.c != kInvalidNode)
            fn(node.c);
    };

    for (NodeId v = 0; v < n; ++v)
        for_each_operand(v, [&](NodeId op) { ++csr.offsets[op + 1]; });
    for (int64_t i = 1; i <= n; ++i)
        csr.offsets[i] += csr.offsets[i - 1];

    csr.targets.resize(csr.offsets[n]);
    std::vector<int64_t> cursor(csr.offsets.begin(),
                                csr.offsets.end() - 1);
    for (NodeId v = 0; v < n; ++v)
        for_each_operand(v, [&](NodeId op) {
            csr.targets[cursor[op]++] = v;
        });
    return csr;
}

std::vector<int32_t>
computeHeights(const Dfg &dfg)
{
    const int64_t n = dfg.size();
    std::vector<int32_t> height(n, 0);
    // Ids are topological, so one reverse sweep relaxing operands
    // computes the longest downstream chain exactly.
    for (NodeId v = static_cast<NodeId>(n) - 1; v >= 0; --v) {
        const Node &node = dfg.node(v);
        bool is_op = node.op != OpKind::Const && node.op != OpKind::Input;
        int32_t through = height[v] + (is_op ? 1 : 0);
        if (node.a != kInvalidNode)
            height[node.a] = std::max(height[node.a], through);
        if (node.b != kInvalidNode)
            height[node.b] = std::max(height[node.b], through);
        if (node.c != kInvalidNode)
            height[node.c] = std::max(height[node.c], through);
    }
    return height;
}

namespace {

bool
isOperation(const Node &node)
{
    return node.op != OpKind::Const && node.op != OpKind::Input;
}

int64_t
longestChain(const Dfg &dfg, const std::vector<int32_t> &height)
{
    int64_t longest = 0;
    for (NodeId v = 0; v < dfg.size(); ++v)
        longest = std::max<int64_t>(
            longest, height[v] + (isOperation(dfg.node(v)) ? 1 : 0));
    return longest;
}

} // namespace

int64_t
criticalPathLength(const Dfg &dfg)
{
    return longestChain(dfg, computeHeights(dfg));
}

int64_t
maxLiveInterim(const Dfg &dfg)
{
    const int64_t n = dfg.size();
    std::vector<NodeId> last_use(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        if (node.a != kInvalidNode)
            last_use[node.a] = v;
        if (node.b != kInvalidNode)
            last_use[node.b] = v;
        if (node.c != kInvalidNode)
            last_use[node.c] = v;
    }
    // Values with no consumer (gradient outputs among them) die right
    // after production: gradients are folded into the thread's local
    // model copy in place, so they never occupy a long-lived buffer.
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        bool is_op = node.op != OpKind::Const && node.op != OpKind::Input;
        if (is_op && last_use[v] == kInvalidNode)
            last_use[v] = v;
    }

    // Sweep in execution order counting births and deaths.
    std::vector<int32_t> deaths(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        bool interim = node.op != OpKind::Const &&
                       node.op != OpKind::Input;
        if (interim && last_use[v] != kInvalidNode)
            ++deaths[last_use[v]];
    }
    int64_t alive = 0;
    int64_t high_water = 0;
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        bool interim = node.op != OpKind::Const &&
                       node.op != OpKind::Input;
        if (interim && last_use[v] != kInvalidNode) {
            ++alive;
            high_water = std::max(high_water, alive);
        }
        alive -= deaths[v];
    }
    return high_water;
}

int64_t
storageWords(const Dfg &dfg, int64_t record_words, int64_t model_words)
{
    return 2 * record_words + model_words + maxLiveInterim(dfg);
}

DfgAnalysis
analyze(const Dfg &dfg)
{
    const int64_t n = dfg.size();
    DfgAnalysis a;
    const std::vector<int32_t> height = computeHeights(dfg);
    a.criticalPath = longestChain(dfg, height);
    a.maxLiveInterim = maxLiveInterim(dfg);

    // At most three operand edges per node.
    COSMIC_ASSERT(3 * n <= std::numeric_limits<int32_t>::max(),
                  "DFG too large for 32-bit edge offsets");
    a.fanoutBase.assign(n + 1, 0);
    int32_t *fanout = a.fanoutBase.data();
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        for (NodeId o : {node.a, node.b, node.c})
            if (o != kInvalidNode)
                ++fanout[o + 1];
    }

    // Traits from a per-OpKind table and the edge counts, branch-free:
    // neither the node kinds nor sharing follow a pattern in id order.
    uint8_t op_bits[256];
    for (int op = 0; op < 256; ++op)
        op_bits[op] = isNonlinear(static_cast<OpKind>(op))
                          ? trait::kNonlinear
                          : 0;
    op_bits[static_cast<uint8_t>(OpKind::Const)] = trait::kConst;
    op_bits[static_cast<uint8_t>(OpKind::Input)] = trait::kInput;
    a.traits.resize(n);
    uint8_t *traits = a.traits.data();
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        traits[v] = static_cast<uint8_t>(node.category) |
                    op_bits[static_cast<uint8_t>(node.op)] |
                    (fanout[v + 1] > 1 ? trait::kShared : 0);
    }
    for (int64_t i = 1; i <= n; ++i)
        fanout[i] += fanout[i - 1];

    // Counting sort of the operations by height, tallest bucket first;
    // filling each bucket in id order breaks ties by ascending id.
    const uint8_t leaf = trait::kConst | trait::kInput;
    std::vector<int64_t> bucket(a.criticalPath + 2, 0);
    for (NodeId v = 0; v < n; ++v)
        if (!(traits[v] & leaf))
            ++bucket[height[v]];
    int64_t next = 0;
    for (int64_t h = a.criticalPath; h >= 0; --h) {
        const int64_t count = bucket[h];
        bucket[h] = next;
        next += count;
    }
    a.operationCount = next;
    a.issueOrder.resize(next);
    a.issueOperands.resize(3 * next);
    for (NodeId v = 0; v < n; ++v) {
        if (traits[v] & leaf)
            continue;
        const int64_t pos = bucket[height[v]]++;
        a.issueOrder[pos] = v;
        const Node &node = dfg.node(v);
        NodeId *operand = &a.issueOperands[3 * pos];
        for (NodeId o : {node.a, node.b, node.c})
            *operand++ = o != kInvalidNode && !(traits[o] & trait::kConst)
                             ? o
                             : kInvalidNode;
    }
    return a;
}

} // namespace cosmic::dfg
