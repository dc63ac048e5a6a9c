#include "dfg/translator.h"

#include <functional>

#include "common/error.h"

namespace cosmic::dfg {

using dsl::VarClass;

const TensorInfo &
Translation::tensor(const std::string &name) const
{
    for (const auto &t : tensors)
        if (t.name == name)
            return t;
    COSMIC_FATAL("translation has no tensor named '" << name << "'");
}

Translation
Translation::withGraph(Dfg graph) const
{
    Translation out;
    out.dfg = std::move(graph);
    out.tensors = tensors;
    out.recordWords = recordWords;
    out.modelWords = modelWords;
    out.gradientWords = gradientWords;
    out.aggregator = aggregator;
    out.minibatch = minibatch;
    return out;
}

Translation
Translator::translate(const dsl::Program &program)
{
    Translation out;
    out.aggregator = program.aggregator();
    out.minibatch = program.minibatch();
    Translator t(program, out);
    return out;
}

Translator::Translator(const dsl::Program &program, Translation &out)
    : program_(program), out_(out)
{
    layoutTensors();
    runStatements();
    for (size_t g = 0; g < out_.dfg.gradientNodes().size(); ++g) {
        if (out_.dfg.gradientNodes()[g] == kInvalidNode)
            COSMIC_FATAL("translator: gradient element " << g
                         << " is never assigned");
    }
}

void
Translator::layoutTensors()
{
    // Record stream: model_input tensors first, then model_output, each
    // in declaration order. Model and gradient get their own layouts.
    int64_t data_off = 0;
    int64_t model_off = 0;
    int64_t grad_off = 0;

    auto add = [&](const dsl::VarDecl &v, int64_t base) {
        TensorInfo info;
        info.name = v.name;
        info.cls = v.cls;
        info.dims = v.dims;
        info.baseOffset = base;
        tensorIndex_[v.name] =
            static_cast<int32_t>(out_.tensors.size());
        out_.tensors.push_back(std::move(info));
    };

    for (const auto &v : program_.vars()) {
        if (v.cls == VarClass::ModelInput) {
            add(v, data_off);
            data_off += v.elementCount();
        }
    }
    for (const auto &v : program_.vars()) {
        if (v.cls == VarClass::ModelOutput) {
            add(v, data_off);
            data_off += v.elementCount();
        }
    }
    for (const auto &v : program_.vars()) {
        if (v.cls == VarClass::Model) {
            add(v, model_off);
            model_off += v.elementCount();
        }
    }
    for (const auto &v : program_.vars()) {
        if (v.cls == VarClass::Gradient) {
            add(v, grad_off);
            grad_off += v.elementCount();
        }
    }
    for (const auto &v : program_.vars()) {
        if (v.cls == VarClass::Interim)
            add(v, 0);
    }

    out_.recordWords = data_off;
    out_.modelWords = model_off;
    out_.gradientWords = grad_off;
    defs_.resize(out_.tensors.size());
}

int64_t
Translator::resolveIndex(const dsl::IndexExpr &idx, int line) const
{
    if (idx.isLiteral)
        return idx.literal;
    auto it = bindings_.find(idx.iterator);
    COSMIC_ASSERT(it != bindings_.end(),
                  "unbound iterator '" << idx.iterator << "' at line "
                                       << line);
    return it->second + idx.offset;
}

int64_t
Translator::linearize(const TensorInfo &info,
                      const std::vector<dsl::IndexExpr> &indices,
                      int line) const
{
    COSMIC_ASSERT(indices.size() == info.dims.size(),
                  "rank mismatch for '" << info.name << "'");
    int64_t linear = 0;
    for (size_t d = 0; d < indices.size(); ++d) {
        int64_t v = resolveIndex(indices[d], line);
        if (v < 0 || v >= info.dims[d])
            COSMIC_FATAL("DSL line " << line << ": subscript " << v
                         << " out of bounds for '" << info.name
                         << "' dim " << d << " (size " << info.dims[d]
                         << "); iterator offsets must stay in range");
        linear = linear * info.dims[d] + v;
    }
    return linear;
}

NodeId
Translator::readElement(int32_t tensor_idx, int64_t elem, int line)
{
    const TensorInfo &info = out_.tensors[tensor_idx];
    auto &defs = defs_[tensor_idx];
    if (defs.empty())
        defs.assign(info.elementCount(), kInvalidNode);
    if (defs[elem] != kInvalidNode)
        return defs[elem];

    ElementRef ref{tensor_idx, elem};
    NodeId id = kInvalidNode;
    switch (info.cls) {
      case VarClass::ModelInput:
      case VarClass::ModelOutput:
        id = out_.dfg.addDataInput(info.baseOffset + elem, ref);
        break;
      case VarClass::Model:
        id = out_.dfg.addModelInput(info.baseOffset + elem, ref);
        break;
      case VarClass::Gradient:
      case VarClass::Interim:
        COSMIC_FATAL("DSL line " << line << ": '" << info.name
                     << "' element " << elem
                     << " is read before it is assigned");
    }
    defs[elem] = id;
    return id;
}

NodeId
Translator::buildTree(OpKind op, std::vector<NodeId> values)
{
    COSMIC_ASSERT(!values.empty(), "empty reduction");
    // Balanced pairwise combination: keeps the dependence depth
    // logarithmic so the tree bus / row parallelism can exploit it.
    while (values.size() > 1) {
        std::vector<NodeId> next;
        next.reserve((values.size() + 1) / 2);
        for (size_t i = 0; i + 1 < values.size(); i += 2)
            next.push_back(out_.dfg.addOp(op, values[i], values[i + 1]));
        if (values.size() % 2 == 1)
            next.push_back(values.back());
        values.swap(next);
    }
    return values[0];
}

NodeId
Translator::evalReduce(const dsl::ReduceExpr &expr, int line)
{
    const dsl::IterDecl *it = program_.findIterator(expr.iterator);
    COSMIC_ASSERT(it, "reduction iterator vanished after validation");
    auto saved = bindings_.find(expr.iterator);
    bool had = saved != bindings_.end();
    int64_t old = had ? saved->second : 0;

    std::vector<NodeId> values;
    values.reserve(it->extent());
    for (int64_t v = it->lo; v < it->hi; ++v) {
        bindings_[expr.iterator] = v;
        values.push_back(evalExpr(*expr.body, line));
    }
    if (had)
        bindings_[expr.iterator] = old;
    else
        bindings_.erase(expr.iterator);

    OpKind op = expr.reduce == dsl::ReduceKind::Sum ? OpKind::Add
                                                    : OpKind::Mul;
    return buildTree(op, std::move(values));
}

NodeId
Translator::evalExpr(const dsl::Expr &expr, int line)
{
    using dsl::ExprKind;
    switch (expr.kind) {
      case ExprKind::Number:
        return out_.dfg.addConst(
            static_cast<const dsl::NumberExpr &>(expr).value);
      case ExprKind::Var: {
        const auto &v = static_cast<const dsl::VarExpr &>(expr);
        auto it = tensorIndex_.find(v.name);
        COSMIC_ASSERT(it != tensorIndex_.end(),
                      "variable vanished after validation");
        int64_t elem =
            linearize(out_.tensors[it->second], v.indices, line);
        return readElement(it->second, elem, line);
      }
      case ExprKind::Binary: {
        const auto &b = static_cast<const dsl::BinaryExpr &>(expr);
        NodeId lhs = evalExpr(*b.lhs, line);
        NodeId rhs = evalExpr(*b.rhs, line);
        OpKind op;
        switch (b.op) {
          case dsl::BinOp::Add: op = OpKind::Add; break;
          case dsl::BinOp::Sub: op = OpKind::Sub; break;
          case dsl::BinOp::Mul: op = OpKind::Mul; break;
          case dsl::BinOp::Div: op = OpKind::Div; break;
          case dsl::BinOp::Gt: op = OpKind::CmpGt; break;
          case dsl::BinOp::Lt: op = OpKind::CmpLt; break;
          case dsl::BinOp::Ge: op = OpKind::CmpGe; break;
          case dsl::BinOp::Le: op = OpKind::CmpLe; break;
          case dsl::BinOp::Eq: op = OpKind::CmpEq; break;
          default: COSMIC_FATAL("unknown binary operator");
        }
        return out_.dfg.addOp(op, lhs, rhs);
      }
      case ExprKind::Neg: {
        const auto &n = static_cast<const dsl::NegExpr &>(expr);
        return out_.dfg.addOp(OpKind::Neg, evalExpr(*n.arg, line));
      }
      case ExprKind::Ternary: {
        const auto &t = static_cast<const dsl::TernaryExpr &>(expr);
        NodeId cond = evalExpr(*t.cond, line);
        NodeId then_v = evalExpr(*t.thenExpr, line);
        NodeId else_v = evalExpr(*t.elseExpr, line);
        return out_.dfg.addOp(OpKind::Select, cond, then_v, else_v);
      }
      case ExprKind::Reduce:
        return evalReduce(static_cast<const dsl::ReduceExpr &>(expr),
                          line);
      case ExprKind::Call: {
        const auto &c = static_cast<const dsl::CallExpr &>(expr);
        NodeId arg = evalExpr(*c.arg, line);
        if (dsl::builtinArity(c.builtin) == 2) {
            NodeId arg2 = evalExpr(*c.arg2, line);
            OpKind op = c.builtin == dsl::Builtin::Min   ? OpKind::Min
                        : c.builtin == dsl::Builtin::Max ? OpKind::Max
                                                         : OpKind::Pow;
            return out_.dfg.addOp(op, arg, arg2);
        }
        OpKind op;
        switch (c.builtin) {
          case dsl::Builtin::Sigmoid: op = OpKind::Sigmoid; break;
          case dsl::Builtin::Gaussian: op = OpKind::Gaussian; break;
          case dsl::Builtin::Log: op = OpKind::Log; break;
          case dsl::Builtin::Exp: op = OpKind::Exp; break;
          case dsl::Builtin::Sqrt: op = OpKind::Sqrt; break;
          case dsl::Builtin::Abs: op = OpKind::Abs; break;
          default: COSMIC_FATAL("unknown builtin");
        }
        return out_.dfg.addOp(op, arg);
      }
    }
    COSMIC_FATAL("unreachable expression kind");
}

void
Translator::runStatements()
{
    for (const auto &stmt : program_.statements()) {
        auto it = tensorIndex_.find(stmt.lhsName);
        COSMIC_ASSERT(it != tensorIndex_.end(),
                      "LHS vanished after validation");
        int32_t tensor_idx = it->second;
        const TensorInfo &info = out_.tensors[tensor_idx];
        auto &defs = defs_[tensor_idx];
        if (defs.empty())
            defs.assign(info.elementCount(), kInvalidNode);

        // Expand the implicit loop nest over the LHS iterators.
        std::vector<const dsl::IterDecl *> loop_iters;
        for (const auto &idx : stmt.lhsIndices)
            loop_iters.push_back(program_.findIterator(idx.iterator));

        std::function<void(size_t)> expand = [&](size_t depth) {
            if (depth == loop_iters.size()) {
                NodeId value = evalExpr(*stmt.rhs, stmt.line);
                int64_t elem =
                    linearize(info, stmt.lhsIndices, stmt.line);
                defs[elem] = value;
                if (info.cls == VarClass::Gradient) {
                    out_.dfg.markGradient(value,
                                          info.baseOffset + elem,
                                          ElementRef{tensor_idx, elem});
                }
                return;
            }
            const dsl::IterDecl *iter = loop_iters[depth];
            for (int64_t v = iter->lo; v < iter->hi; ++v) {
                bindings_[iter->name] = v;
                expand(depth + 1);
            }
            bindings_.erase(iter->name);
        };
        expand(0);
    }
}

} // namespace cosmic::dfg
