#include "jit/codegen.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "dfg/graph.h"

namespace cosmic::jit {

namespace {

using dfg::OpKind;
using dfg::TapeInstr;
using dfg::TapeSlotKind;

/** Max operations folded into one C expression. Fusion never changes
 *  the IEEE operation sequence, so the cap is purely about keeping the
 *  C compiler's expression trees (and compile time) bounded. */
constexpr int kFuseCap = 24;

/**
 * Statements per noinline helper function. Materialized values live in
 * indexed stack arrays rather than named locals: thousands of live
 * locals in one function send the C compiler's register allocator
 * superlinear. Its alias walking and allocation passes are superlinear
 * in single-function size too — one flat function for a
 * matrix-factorization tape takes minutes at -O2 while the same
 * statements split across small helpers compile in seconds. Helpers
 * share state through the caller's D / V arrays, so splitting changes
 * nothing about the operation sequence.
 */
constexpr int kChunkStmts = 64;

/** Records per iteration of the batch kernel's lane loop: the lane
 *  dimension is unrolled into `l < kLanes` loops over kLanes-element
 *  stack arrays, one cache line of doubles per value. */
constexpr int kLanes = 8;

/**
 * Hex-float literal: exact round trip for every finite double.
 * Negative values are parenthesized — a bare leading '-' pastes into
 * '--' after a unary minus (Neg/Sigmoid/Gaussian emit "-<operand>"),
 * which C parses as a pre-decrement and rejects.
 */
std::string
lit(double v)
{
    if (std::isnan(v))
        return "NAN";
    if (std::isinf(v))
        return v > 0 ? "INFINITY" : "(-INFINITY)";
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    if (buf[0] == '-')
        return "(" + std::string(buf) + ")";
    return buf;
}

/**
 * How many times the C template for @p op textually repeats each
 * operand (Div repeats the divisor in its zero-guard, Min/Max both
 * sides of the compare-select, ...). Operands that would be duplicated
 * must weigh enough to force materialization — inlining them would
 * evaluate the operand expression twice, which is wasteful and, for
 * F64, not the interpreter's operation sequence.
 */
void
operandWeights(OpKind op, int w[3])
{
    w[0] = w[1] = w[2] = 0;
    switch (op) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::CmpGt:
      case OpKind::CmpLt:
      case OpKind::CmpGe:
      case OpKind::CmpLe:
      case OpKind::CmpEq:
        w[0] = 1;
        w[1] = 1;
        break;
      case OpKind::Div:
        w[0] = 1;
        w[1] = 2;
        break;
      case OpKind::Neg:
      case OpKind::Sigmoid:
      case OpKind::Exp:
      case OpKind::Abs:
        w[0] = 1;
        break;
      case OpKind::Gaussian:
      case OpKind::Log:
      case OpKind::Sqrt:
        w[0] = 2;
        break;
      case OpKind::Min:
      case OpKind::Max:
        w[0] = 2;
        w[1] = 2;
        break;
      case OpKind::Pow:
        // Lowered as a helper-function call, each operand named once.
        w[0] = 1;
        w[1] = 1;
        break;
      case OpKind::Select:
        w[0] = 1;
        w[1] = 1;
        w[2] = 1;
        break;
      case OpKind::Const:
      case OpKind::Input:
        break;
    }
}

/** How a statement context names values and reads inputs. */
struct Ctx
{
    /** Inside the kLanes-record lane loop: values are kLanes-element
     *  array cells indexed [l], data loads offset by l * recordWords. */
    bool lane = false;
    /** Model reads re-quantize the sweep's live weights instead of
     *  reading the batch's frozen, already quantized model. */
    bool sweep = false;
};

class Emitter
{
  public:
    explicit Emitter(const dfg::Tape &tape)
        : tape_(tape), q_(tape.quantized())
    {
    }

    KernelSource emit();

  private:
    void analyze();
    std::string quant(std::string e) const
    {
        return q_ ? "q16(" + std::move(e) + ")" : std::move(e);
    }
    /** One past the data region's last slot. */
    int32_t dataEnd() const
    {
        return tape_.dataBase() +
               static_cast<int32_t>(tape_.translation().recordWords);
    }
    std::string dataLoad(int32_t slot, const Ctx &ctx) const;
    std::string cell(const char *arr, int32_t slot, const Ctx &ctx) const;
    std::string ref(int32_t slot, const Ctx &ctx) const;
    std::string opExpr(const TapeInstr &in, const Ctx &ctx) const;
    std::string callArgs(const char *model, const char *g) const;
    void chunkStmt(const char *pad, const std::string &text);
    void flushChunk();
    void emitBody(const Ctx &ctx, const char *pad);
    void emitBatch();
    void emitSweep();
    void line(const char *pad, const std::string &text)
    {
        out_ += pad;
        out_ += text;
        out_ += '\n';
    }

    const dfg::Tape &tape_;
    const bool q_;

    /** Weighted textual use count per region slot. */
    std::vector<int> use_;
    /** Fused-operation count of the expression rooted at an op slot. */
    std::vector<int> size_;
    /** Slot's value is folded into its consumer (no own statement). */
    std::vector<char> inline_;
    /** Instruction index producing an op slot, -1 elsewhere. */
    std::vector<int32_t> instrIdx_;
    /** Dense index into the D / V stack arrays for materialized data
     *  loads and op values; -1 when the slot has no array cell. */
    std::vector<int32_t> memIdx_;
    int32_t nData_ = 0;
    int32_t nVal_ = 0;

    /** Noinline helper definitions (placed before the entry points)
     *  and the state of the currently open helper. */
    std::string funcs_;
    std::string chunkArgs_;
    int chunkId_ = 0;
    int chunkStmts_ = 0;

    std::string out_;
};

/** Argument list for a helper call: the model array the helpers read
 *  (@p model), then arrays that exist in the calling scope by their own
 *  names, 0 placeholders for the rest. */
std::string
Emitter::callArgs(const char *model, const char *g) const
{
    std::string s = "(R, ";
    s += model;
    s += ", ";
    s += nData_ > 0 ? "D" : "0";
    s += ", ";
    s += nVal_ > 0 ? "V" : "0";
    s += ", ";
    s += g;
    s += ")";
    return s;
}

/** Emits one statement into the open helper function, opening a fresh
 *  one (and emitting its call) every kChunkStmts statements. */
void
Emitter::chunkStmt(const char *pad, const std::string &text)
{
    if (chunkStmts_ == 0) {
        const std::string name = "chunk" + std::to_string(chunkId_);
        funcs_ += "static void __attribute__((noinline)) " + name +
                  "(const double *restrict R,\n"
                  "    const double *restrict model,\n"
                  "    double *restrict D, double *restrict V,\n"
                  "    double *restrict G)\n{\n";
        line(pad, name + chunkArgs_ + ";");
    }
    funcs_ += "    ";
    funcs_ += text;
    funcs_ += '\n';
    if (++chunkStmts_ == kChunkStmts)
        flushChunk();
}

void
Emitter::flushChunk()
{
    if (chunkStmts_ == 0)
        return;
    funcs_ += "}\n";
    chunkStmts_ = 0;
    ++chunkId_;
}

void
Emitter::analyze()
{
    const int64_t slots = std::ssize(tape_.image());
    use_.assign(slots, 0);
    size_.assign(slots, 0);
    inline_.assign(slots, 0);
    instrIdx_.assign(slots, -1);
    memIdx_.assign(slots, -1);

    const auto instrs = tape_.instructions();
    for (size_t i = 0; i < instrs.size(); ++i) {
        const TapeInstr &in = instrs[i];
        instrIdx_[in.dst] = static_cast<int32_t>(i);
        int w[3];
        operandWeights(in.op, w);
        const int32_t ops[3] = {in.a, in.b, in.c};
        for (int k = 0; k < 3; ++k)
            if (ops[k] != 0)
                use_[ops[k]] += w[k];
    }
    for (int32_t slot : tape_.gradientSlots())
        use_[slot] += 1;

    // Record words fold into their single consumer; shared loads
    // materialize.
    const int32_t data_end = dataEnd();
    for (int32_t s = tape_.dataBase(); s < data_end; ++s) {
        inline_[s] = use_[s] <= 1;
        if (!inline_[s])
            memIdx_[s] = nData_++;
    }

    // Forward pass in instruction (= topological) order: operands are
    // decided before their consumers, so fused sizes compose exactly.
    for (const TapeInstr &in : instrs) {
        int sz = 1;
        const int32_t ops[3] = {in.a, in.b, in.c};
        for (int32_t o : ops)
            if (instrIdx_[o] >= 0 && inline_[o])
                sz += size_[o];
        size_[in.dst] = sz;
        inline_[in.dst] = use_[in.dst] == 1 && sz <= kFuseCap;
        if (!inline_[in.dst])
            memIdx_[in.dst] = nVal_++;
    }
}

std::string
Emitter::dataLoad(int32_t slot, const Ctx &ctx) const
{
    const std::string p = std::to_string(slot - tape_.dataBase());
    if (ctx.lane)
        return "R[(long long)l * COSMIC_RW + " + p + "]";
    return "R[" + p + "]";
}

std::string
Emitter::cell(const char *arr, int32_t slot, const Ctx &ctx) const
{
    const int32_t idx = memIdx_[slot];
    if (ctx.lane)
        return std::string(arr) + "[" + std::to_string(idx * kLanes) +
               " + l]";
    return std::string(arr) + "[" + std::to_string(idx) + "]";
}

std::string
Emitter::ref(int32_t slot, const Ctx &ctx) const
{
    switch (tape_.slotKind(slot)) {
      case TapeSlotKind::Zero:
        return "0.0";
      case TapeSlotKind::Constant:
        return lit(tape_.image()[slot]);
      case TapeSlotKind::Data:
        if (inline_[slot])
            return quant(dataLoad(slot, ctx));
        return cell("D", slot, ctx);
      case TapeSlotKind::Model: {
        // The batch model is frozen, and the helpers' model array
        // already holds it quantized. The sweep re-reads and
        // re-quantizes the live weights (re-quantizing the same raw
        // weight is bit-stable, so inline multi-use is exact).
        const std::string m =
            "model[" + std::to_string(slot - tape_.modelBase()) + "]";
        return ctx.sweep ? quant(m) : m;
      }
      case TapeSlotKind::Operation:
        break;
    }
    if (inline_[slot])
        return opExpr(tape_.instructions()[instrIdx_[slot]], ctx);
    return cell("V", slot, ctx);
}

std::string
Emitter::opExpr(const TapeInstr &in, const Ctx &ctx) const
{
    // Exact C renderings of evaluateOp() (dfg/interp.h), including the
    // NaN behaviour of the std::min/max/max-guard ternaries.
    const auto A = [&] { return ref(in.a, ctx); };
    const auto B = [&] { return ref(in.b, ctx); };
    const auto C = [&] { return ref(in.c, ctx); };
    const auto cmp = [&](const char *op) {
        return "(" + A() + " " + op + " " + B() + " ? 1.0 : 0.0)";
    };
    std::string e;
    switch (in.op) {
      case OpKind::Add:
        e = "(" + A() + " + " + B() + ")";
        break;
      case OpKind::Sub:
        e = "(" + A() + " - " + B() + ")";
        break;
      case OpKind::Mul:
        e = "(" + A() + " * " + B() + ")";
        break;
      case OpKind::Div: {
        const std::string b = B();
        e = "(" + A() + " / (" + b + " == 0.0 ? 1e-12 : " + b + "))";
        break;
      }
      case OpKind::Neg:
        e = "(-" + A() + ")";
        break;
      case OpKind::CmpGt:
        e = cmp(">");
        break;
      case OpKind::CmpLt:
        e = cmp("<");
        break;
      case OpKind::CmpGe:
        e = cmp(">=");
        break;
      case OpKind::CmpLe:
        e = cmp("<=");
        break;
      case OpKind::CmpEq:
        e = cmp("==");
        break;
      case OpKind::Select:
        e = "(" + A() + " != 0.0 ? " + B() + " : " + C() + ")";
        break;
      case OpKind::Sigmoid:
        e = "(1.0 / (1.0 + exp(-" + A() + ")))";
        break;
      case OpKind::Gaussian: {
        const std::string a = A();
        e = "exp(-" + a + " * " + a + ")";
        break;
      }
      case OpKind::Log: {
        const std::string a = A();
        e = "log(" + a + " < 1e-12 ? 1e-12 : " + a + ")";
        break;
      }
      case OpKind::Exp:
        e = "exp(" + A() + ")";
        break;
      case OpKind::Sqrt: {
        const std::string a = A();
        e = "sqrt(" + a + " < 0.0 ? 0.0 : " + a + ")";
        break;
      }
      case OpKind::Abs:
        e = "fabs(" + A() + ")";
        break;
      case OpKind::Min: {
        const std::string a = A();
        const std::string b = B();
        e = "(" + b + " < " + a + " ? " + b + " : " + a + ")";
        break;
      }
      case OpKind::Max: {
        const std::string a = A();
        const std::string b = B();
        e = "(" + a + " < " + b + " ? " + b + " : " + a + ")";
        break;
      }
      case OpKind::Pow:
        e = "cosmic_pow(" + A() + ", " + B() + ")";
        break;
      case OpKind::Const:
      case OpKind::Input:
        COSMIC_FATAL("jit: non-operation " << dfg::opKindName(in.op)
                                           << " in instruction stream");
    }
    return quant(std::move(e));
}

/**
 * Materialized statements of one tape pass: shared record loads, then
 * every non-fused operation in instruction order, each stored to its
 * cell of the D / V stack arrays (function-scope spill space the
 * register allocator never has to reason about). Lane contexts emit
 * each statement as a fixed-trip-count `l < kLanes` loop over the
 * value's kLanes cells — stride-1 and auto-vectorizable.
 */
void
Emitter::emitBody(const Ctx &ctx, const char *pad)
{
    const std::string w = std::to_string(kLanes);
    const int lanes = ctx.lane ? kLanes : 1;
    if (nData_ > 0)
        line(pad, "double D[" + std::to_string(nData_ * lanes) + "];");
    if (nVal_ > 0)
        line(pad, "double V[" + std::to_string(nVal_ * lanes) + "];");
    const auto stmt = [&](const char *arr, int32_t slot,
                          const std::string &e) {
        if (ctx.lane)
            chunkStmt(pad, "for (int l = 0; l < " + w + "; ++l) " +
                               cell(arr, slot, ctx) + " = " + e + ";");
        else
            chunkStmt(pad, cell(arr, slot, ctx) + " = " + e + ";");
    };
    const int32_t data_end = dataEnd();
    for (int32_t s = tape_.dataBase(); s < data_end; ++s)
        if (!inline_[s])
            stmt("D", s, quant(dataLoad(s, ctx)));
    for (const TapeInstr &in : tape_.instructions())
        if (!inline_[in.dst])
            stmt("V", in.dst, opExpr(in, ctx));
    flushChunk();
}

void
Emitter::emitBatch()
{
    out_ += "void " + std::string(kBatchSymbol) +
            "(const double *restrict records, long long n,\n"
            "    const double *restrict model, double *restrict grad)\n{\n";
    // The batch model is frozen: F64 helpers read the caller's array;
    // Q16.16 ones read a copy quantized once, like the executor's
    // once-per-batch model load. The model region is contiguous, so
    // the copy is word for word.
    const int64_t mw = tape_.translation().modelWords;
    const bool hoist = q_ && mw > 0;
    if (hoist) {
        line("    ", "double M[" + std::to_string(mw) + "];");
        line("    ", "for (long long k = 0; k < " + std::to_string(mw) +
                         "; ++k) M[k] = q16(model[k]);");
    }
    line("    ", "long long r = 0;");
    const auto grads = tape_.gradientSlots();
    // Inside the helpers the gradient array is the G parameter.
    chunkArgs_ = callArgs(hoist ? "M" : "model", "grad");
    const std::string w = std::to_string(kLanes);
    line("    ", "for (; r + " + w + " <= n; r += " + w + ") {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx lane{.lane = true, .sweep = false};
    emitBody(lane, "        ");
    // Element-major fold in record order: grad[i] += lane 0, then lane
    // 1, ... — the scalar accumulation order exactly.
    for (size_t i = 0; i < grads.size(); ++i)
        chunkStmt("        ",
                  "{ double acc = G[" + std::to_string(i) +
                      "]; for (int l = 0; l < " + w + "; ++l) acc += " +
                      ref(grads[i], lane) + "; G[" + std::to_string(i) +
                      "] = acc; }");
    flushChunk();
    line("    ", "}");
    line("    ", "for (; r < n; ++r) {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx scalar{.lane = false, .sweep = false};
    emitBody(scalar, "        ");
    for (size_t i = 0; i < grads.size(); ++i)
        chunkStmt("        ", "G[" + std::to_string(i) +
                                  "] += " + ref(grads[i], scalar) + ";");
    flushChunk();
    line("    ", "}");
    out_ += "}\n";
}

void
Emitter::emitSweep()
{
    out_ += "void " + std::string(kSweepSymbol) +
            "(const double *restrict records, long long n,\n"
            "    double *restrict model, double lr)\n{\n";
    // The model stays in the caller's array, raw (unquantized) like the
    // executor's model vector, and is updated in place after each
    // record's full gradient is computed.
    line("    ", "for (long long r = 0; r < n; ++r) {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx sweep{.lane = false, .sweep = true};
    chunkArgs_ = callArgs("model", "0");
    emitBody(sweep, "        ");
    // All gradient elements are computed against the pre-update
    // weights before any update lands (the executor finishes the tape
    // pass, then applies the updates).
    const auto grads = tape_.gradientSlots();
    line("        ", "double G[" + std::to_string(grads.size()) + "];");
    chunkArgs_ = callArgs("model", "G");
    for (size_t i = 0; i < grads.size(); ++i)
        chunkStmt("        ", "G[" + std::to_string(i) + "] = " +
                                  ref(grads[i], sweep) + ";");
    flushChunk();
    // Element-wise update: exact regardless of vectorization.
    line("        ", "for (long long i = 0; i < " +
                         std::to_string(grads.size()) +
                         "; ++i) model[i] -= lr * G[i];");
    line("    ", "}");
    out_ += "}\n";
}

KernelSource
Emitter::emit()
{
    analyze();
    const dfg::Translation &tr = tape_.translation();
    std::string head;
    head += "/* cosmic jit kernel (generated): W=" + std::to_string(kLanes) +
            " quantized=" + (q_ ? "1" : "0") +
            " instrs=" + std::to_string(tape_.instructionCount()) + " */\n";
    head += "#include <math.h>\n";
    head += "#define COSMIC_RW " + std::to_string(tr.recordWords) + "LL\n";
    if (q_)
        // accel::Fixed::fromDouble + toDouble, verbatim: NaN->0,
        // saturate at INT32 bounds, llround against the same libm;
        // the /65536.0 divisions are exact powers of two.
        head += "static inline double q16(double v)\n"
                "{\n"
                "    if (v != v)\n"
                "        return 0.0;\n"
                "    const double s = v * 65536.0;\n"
                "    if (s >= 2147483647.0)\n"
                "        return 2147483647.0 / 65536.0;\n"
                "    if (s <= -2147483648.0)\n"
                "        return -2147483648.0 / 65536.0;\n"
                "    return (double)llround(s) / 65536.0;\n"
                "}\n";
    {
        bool has_pow = false;
        for (const TapeInstr &in : tape_.instructions())
            has_pow = has_pow || in.op == dfg::OpKind::Pow;
        if (has_pow)
            // dfg::evaluateOp's Pow, verbatim: an exact mul chain for
            // small non-negative integer exponents, the Log-guarded
            // exp/log path otherwise (a < 1e-12 ? 1e-12 : a matches
            // std::max(a, 1e-12) bit-for-bit, NaN included).
            head += "static double cosmic_pow(double a, double b)\n"
                    "{\n"
                    "    if (b >= 0.0 && b <= 8.0 &&"
                    " b == (double)(long long)b) {\n"
                    "        double r = 1.0;\n"
                    "        long long k, n = (long long)b;\n"
                    "        for (k = 0; k < n; ++k)\n"
                    "            r *= a;\n"
                    "        return r;\n"
                    "    }\n"
                    "    return exp(b * log(a < 1e-12 ? 1e-12 : a));\n"
                    "}\n";
    }
    emitBatch();
    KernelSource src;
    src.hasSweep = tr.gradientWords == tr.modelWords;
    if (src.hasSweep)
        emitSweep();
    // Helper definitions come before the entry points that call them.
    src.text = std::move(head) + funcs_ + out_;
    return src;
}

} // namespace

KernelSource
emitKernelSource(const dfg::Tape &tape)
{
    return Emitter(tape).emit();
}

} // namespace cosmic::jit
