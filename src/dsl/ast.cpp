#include "dsl/ast.h"

#include <sstream>
#include <unordered_map>

#include "common/error.h"

namespace cosmic::dsl {

bool
lookupBuiltin(const std::string &name, Builtin &out)
{
    static const std::unordered_map<std::string, Builtin> table = {
        {"sigmoid", Builtin::Sigmoid}, {"gaussian", Builtin::Gaussian},
        {"log", Builtin::Log},         {"exp", Builtin::Exp},
        {"sqrt", Builtin::Sqrt},       {"abs", Builtin::Abs},
        {"min", Builtin::Min},         {"max", Builtin::Max},
        {"pow", Builtin::Pow},
    };
    auto it = table.find(name);
    if (it == table.end())
        return false;
    out = it->second;
    return true;
}

std::string
binOpName(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "+";
      case BinOp::Sub: return "-";
      case BinOp::Mul: return "*";
      case BinOp::Div: return "/";
      case BinOp::Gt: return ">";
      case BinOp::Lt: return "<";
      case BinOp::Ge: return ">=";
      case BinOp::Le: return "<=";
      case BinOp::Eq: return "==";
    }
    return "?";
}

std::string
builtinName(Builtin b)
{
    switch (b) {
      case Builtin::Sigmoid: return "sigmoid";
      case Builtin::Gaussian: return "gaussian";
      case Builtin::Log: return "log";
      case Builtin::Exp: return "exp";
      case Builtin::Sqrt: return "sqrt";
      case Builtin::Abs: return "abs";
      case Builtin::Min: return "min";
      case Builtin::Max: return "max";
      case Builtin::Pow: return "pow";
    }
    return "?";
}

int
builtinArity(Builtin b)
{
    return b == Builtin::Min || b == Builtin::Max || b == Builtin::Pow
               ? 2
               : 1;
}

namespace {

std::string
indexToString(const IndexExpr &idx)
{
    if (idx.isLiteral)
        return std::to_string(idx.literal);
    std::string s = idx.iterator;
    if (idx.offset > 0)
        s += '+';
    if (idx.offset != 0)
        s += std::to_string(idx.offset);
    return s;
}

} // namespace

std::string
exprToString(const Expr &expr)
{
    std::ostringstream oss;
    switch (expr.kind) {
      case ExprKind::Number:
        oss << static_cast<const NumberExpr &>(expr).value;
        break;
      case ExprKind::Var: {
        const auto &v = static_cast<const VarExpr &>(expr);
        oss << v.name;
        for (const auto &i : v.indices)
            oss << "[" << indexToString(i) << "]";
        break;
      }
      case ExprKind::Binary: {
        const auto &b = static_cast<const BinaryExpr &>(expr);
        oss << "(" << exprToString(*b.lhs) << " " << binOpName(b.op)
            << " " << exprToString(*b.rhs) << ")";
        break;
      }
      case ExprKind::Neg: {
        const auto &n = static_cast<const NegExpr &>(expr);
        oss << "(-" << exprToString(*n.arg) << ")";
        break;
      }
      case ExprKind::Ternary: {
        const auto &t = static_cast<const TernaryExpr &>(expr);
        oss << "(" << exprToString(*t.cond) << " ? "
            << exprToString(*t.thenExpr) << " : "
            << exprToString(*t.elseExpr) << ")";
        break;
      }
      case ExprKind::Reduce: {
        const auto &r = static_cast<const ReduceExpr &>(expr);
        oss << (r.reduce == ReduceKind::Sum ? "sum" : "pi") << "["
            << r.iterator << "](" << exprToString(*r.body) << ")";
        break;
      }
      case ExprKind::Call: {
        const auto &c = static_cast<const CallExpr &>(expr);
        oss << builtinName(c.builtin) << "(" << exprToString(*c.arg);
        if (c.arg2)
            oss << ", " << exprToString(*c.arg2);
        oss << ")";
        break;
      }
    }
    return oss.str();
}

} // namespace cosmic::dsl
