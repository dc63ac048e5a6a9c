#include "dfg/interp.h"

#include <algorithm>

#include "common/error.h"

namespace cosmic::dfg {

Interpreter::Interpreter(const Translation &translation,
                         accel::Numeric numeric)
    : tr_(translation), numeric_(numeric)
{
    values_.resize(tr_.dfg.size(), 0.0);
}

void
Interpreter::run(std::span<const double> record,
                 std::span<const double> model,
                 std::vector<double> &grad_out) const
{
    const Dfg &dfg = tr_.dfg;
    COSMIC_ASSERT(static_cast<int64_t>(record.size()) >= tr_.recordWords,
                  "record shorter than the translation's stream layout");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr_.modelWords,
                  "model shorter than the translation's layout");

    const int64_t n = dfg.size();
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        switch (node.op) {
          case OpKind::Const:
            values_[v] = dfg.constValue(v);
            break;
          case OpKind::Input:
            values_[v] = (node.category == Category::Data)
                             ? record[dfg.inputPos(v)]
                             : model[dfg.inputPos(v)];
            break;
          default:
            values_[v] = evaluateOp(
                node.op, values_[node.a],
                node.b != kInvalidNode ? values_[node.b] : 0.0,
                node.c != kInvalidNode ? values_[node.c] : 0.0);
            break;
        }
        values_[v] = accel::roundTo(numeric_, values_[v]);
    }

    grad_out.assign(tr_.gradientWords, 0.0);
    const auto &grads = dfg.gradientNodes();
    for (size_t g = 0; g < grads.size(); ++g)
        grad_out[g] = values_[grads[g]];
}

void
Interpreter::accumulate(std::span<const double> records,
                        int64_t record_count,
                        std::span<const double> model,
                        std::vector<double> &grad_out) const
{
    grad_out.assign(tr_.gradientWords, 0.0);
    std::vector<double> scratch;
    for (int64_t r = 0; r < record_count; ++r) {
        auto record = records.subspan(r * tr_.recordWords,
                                      tr_.recordWords);
        run(record, model, scratch);
        for (int64_t i = 0; i < tr_.gradientWords; ++i)
            grad_out[i] += scratch[i];
    }
}

} // namespace cosmic::dfg
