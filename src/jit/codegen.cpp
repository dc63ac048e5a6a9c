#include "jit/codegen.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "dfg/graph.h"

namespace cosmic::jit {

namespace {

using dfg::Category;
using dfg::OpKind;
using dfg::TapeGather;
using dfg::TapeInstr;

/** Max operations folded into one C expression. Fusion never changes
 *  the IEEE operation sequence, so the cap is purely about keeping the
 *  C compiler's expression trees (and compile time) bounded. */
constexpr int kFuseCap = 24;

/**
 * Tapes up to this many instructions emit every materialized value as
 * a named local ("register mode") — ideal code for small kernels, but
 * thousands of live locals in one function send the C compiler's
 * register allocator superlinear (minutes for the Table-1 matrix
 * models). Larger tapes switch to "memory mode": materialized values
 * live in indexed stack arrays, model words are read straight from the
 * caller's contiguous array, and the sweep's gradient/update step is a
 * vectorizable loop — near-identical runtime, compile time linear in
 * tape size.
 */
constexpr int64_t kRegModeMaxInstrs = 64;

/**
 * Memory-mode statements per noinline helper function. The C
 * compiler's alias walking and allocation passes are superlinear in
 * single-function size — one flat function for a matrix-factorization
 * tape takes minutes at -O2 while the same statements split across
 * small helpers compile in seconds. Helpers share state through the
 * caller's D / V / M arrays, so splitting changes nothing about the
 * operation sequence.
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
     *  arrays indexed [l], data loads offset by l * recordWords. */
    bool lane = false;
    /** Model reads resolve to the sweep's raw weight locals (w<pos>)
     *  instead of the batch's hoisted pre-quantized scalars (m<slot>). */
    bool sweep = false;
};

class Emitter
{
  public:
    explicit Emitter(const dfg::Tape &tape)
        : tape_(tape), dfg_(tape.translation().dfg), q_(tape.quantized()),
          mem_(tape.instructionCount() > kRegModeMaxInstrs)
    {
    }

    KernelSource emit();

  private:
    void analyze();
    std::string quant(std::string e) const
    {
        return q_ ? "q16(" + std::move(e) + ")" : std::move(e);
    }
    std::string dataLoad(int32_t slot, const Ctx &ctx) const;
    std::string cell(const char *arr, int32_t slot, const Ctx &ctx) const;
    std::string ref(int32_t slot, const Ctx &ctx) const;
    std::string opExpr(const TapeInstr &in, const Ctx &ctx) const;
    std::string callArgs(const char *g, bool has_m) const;
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
    const dfg::Dfg &dfg_;
    const bool q_;
    const bool mem_;

    /** Weighted textual use count per scratch slot. */
    std::vector<int> use_;
    /** Fused-operation count of the expression rooted at an op slot. */
    std::vector<int> size_;
    /** Slot's value is folded into its consumer (no own statement). */
    std::vector<char> inline_;
    /** Gather position for input slots, -1 elsewhere. */
    std::vector<int64_t> pos_;
    /** Instruction index producing an op slot, -1 elsewhere. */
    std::vector<int32_t> instrIdx_;
    /** Memory mode: dense index into the D / M / V stack arrays for
     *  materialized data loads, model gathers and op values; -1 when
     *  the slot has no array cell. */
    std::vector<int32_t> memIdx_;
    int32_t nData_ = 0;
    int32_t nModel_ = 0;
    int32_t nVal_ = 0;

    /** Memory-mode noinline helper definitions (placed before the
     *  entry points) and the state of the currently open helper. */
    std::string funcs_;
    std::string chunkArgs_;
    int chunkId_ = 0;
    int chunkStmts_ = 0;

    std::string out_;
};

/** Argument list for a helper call: arrays that exist in the calling
 *  scope by their own names, 0 placeholders for the rest. */
std::string
Emitter::callArgs(const char *g, bool has_m) const
{
    std::string s = "(R, model, ";
    s += has_m && q_ && nModel_ > 0 ? "M" : "0";
    s += ", ";
    s += nData_ > 0 ? "D" : "0";
    s += ", ";
    s += nVal_ > 0 ? "V" : "0";
    s += ", ";
    s += g;
    s += ")";
    return s;
}

/** Emits one memory-mode statement into the open helper function,
 *  opening a fresh one (and emitting its call) every kChunkStmts
 *  statements. Register mode emits straight into the caller. */
void
Emitter::chunkStmt(const char *pad, const std::string &text)
{
    if (!mem_) {
        line(pad, text);
        return;
    }
    if (chunkStmts_ == 0) {
        const std::string name = "chunk" + std::to_string(chunkId_);
        funcs_ += "static void __attribute__((noinline)) " + name +
                  "(const double *restrict R,\n"
                  "    const double *restrict model, const double *restrict M,\n"
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
    const int64_t slots = tape_.slotCount();
    use_.assign(slots, 0);
    size_.assign(slots, 0);
    inline_.assign(slots, 0);
    pos_.assign(slots, -1);
    instrIdx_.assign(slots, -1);

    for (const TapeGather &g : tape_.dataGathers())
        pos_[g.slot] = g.pos;
    for (const TapeGather &g : tape_.modelGathers())
        pos_[g.slot] = g.pos;

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

    // Inputs fold into their single consumer; shared loads materialize.
    for (const TapeGather &g : tape_.dataGathers())
        inline_[g.slot] = use_[g.slot] <= 1;
    for (const TapeGather &g : tape_.modelGathers())
        inline_[g.slot] = use_[g.slot] <= 1;

    // Forward pass in instruction (= topological) order: operands are
    // decided before their consumers, so fused sizes compose exactly.
    for (const TapeInstr &in : instrs) {
        int sz = 1;
        const int32_t ops[3] = {in.a, in.b, in.c};
        for (int32_t o : ops)
            if (o != 0 && instrIdx_[o] >= 0 && inline_[o])
                sz += size_[o];
        size_[in.dst] = sz;
        inline_[in.dst] = use_[in.dst] == 1 && sz <= kFuseCap;
    }

    if (!mem_)
        return;
    // Memory mode: dense cells in the D / M / V stack arrays.
    memIdx_.assign(slots, -1);
    for (const TapeGather &g : tape_.dataGathers())
        if (!inline_[g.slot])
            memIdx_[g.slot] = nData_++;
    for (const TapeGather &g : tape_.modelGathers())
        memIdx_[g.slot] = nModel_++;
    for (const TapeInstr &in : instrs)
        if (!inline_[in.dst])
            memIdx_[in.dst] = nVal_++;
}

std::string
Emitter::dataLoad(int32_t slot, const Ctx &ctx) const
{
    const std::string p = std::to_string(pos_[slot]);
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
    if (slot == 0)
        return "0.0";
    const dfg::Node &n = dfg_.node(slot - 1);
    if (n.op == OpKind::Const) {
        const double v = dfg_.constValue(slot - 1);
        return lit(q_ ? tape_.quantizer()(v) : v);
    }
    if (n.op == OpKind::Input) {
        if (n.category == Category::Data) {
            if (inline_[slot])
                return quant(dataLoad(slot, ctx));
            if (mem_)
                return cell("D", slot, ctx);
            return "d" + std::to_string(slot) + (ctx.lane ? "[l]" : "");
        }
        // Model input. The batch model is frozen, so reads resolve to
        // the hoisted pre-quantized scalar (register mode) or the
        // caller's contiguous array / the hoisted quantized copy
        // (memory mode). The sweep re-reads (and re-quantizes) the
        // live weights — locals in register mode, the model array
        // itself in memory mode (re-quantizing the same raw weight is
        // bit-stable, so inline multi-use is exact).
        if (mem_) {
            if (ctx.sweep)
                return quant("model[" + std::to_string(pos_[slot]) + "]");
            if (!q_)
                return "model[" + std::to_string(pos_[slot]) + "]";
            return "M[" + std::to_string(memIdx_[slot]) + "]";
        }
        if (!ctx.sweep || !inline_[slot])
            return "m" + std::to_string(slot);
        return quant("w" + std::to_string(pos_[slot]));
    }
    if (inline_[slot])
        return opExpr(tape_.instructions()[instrIdx_[slot]], ctx);
    if (mem_)
        return cell("V", slot, ctx);
    return "v" + std::to_string(slot) + (ctx.lane ? "[l]" : "");
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
 * Materialized statements of one tape pass: shared data loads, (sweep
 * only) shared model reads, then every non-fused operation in
 * instruction order. Lane contexts emit each statement as a
 * fixed-trip-count `l < kLanes` loop over a kLanes-element stack
 * array — stride-1 and auto-vectorizable.
 */
void
Emitter::emitBody(const Ctx &ctx, const char *pad)
{
    const std::string w = std::to_string(kLanes);
    const int lanes = ctx.lane ? kLanes : 1;
    if (mem_) {
        // One flat array per value class; a store per statement. The
        // arrays are function-scope spill space the register allocator
        // never has to reason about.
        if (nData_ > 0)
            line(pad, "double D[" + std::to_string(nData_ * lanes) + "];");
        if (nVal_ > 0)
            line(pad, "double V[" + std::to_string(nVal_ * lanes) + "];");
    }
    const auto decl = [&](const std::string &name, const std::string &e) {
        if (ctx.lane)
            line(pad, "double " + name + "[" + w + "]; for (int l = 0; l < " +
                          w + "; ++l) " + name + "[l] = " + e + ";");
        else
            line(pad, "const double " + name + " = " + e + ";");
    };
    const auto stmt = [&](const char *arr, int32_t slot,
                          const std::string &e) {
        if (ctx.lane)
            chunkStmt(pad, "for (int l = 0; l < " + w + "; ++l) " +
                               cell(arr, slot, ctx) + " = " + e + ";");
        else
            chunkStmt(pad, cell(arr, slot, ctx) + " = " + e + ";");
    };
    for (const TapeGather &g : tape_.dataGathers())
        if (!inline_[g.slot]) {
            if (mem_)
                stmt("D", g.slot, quant(dataLoad(g.slot, ctx)));
            else
                decl("d" + std::to_string(g.slot),
                     quant(dataLoad(g.slot, ctx)));
        }
    if (ctx.sweep && !mem_)
        for (const TapeGather &g : tape_.modelGathers())
            if (!inline_[g.slot])
                line(pad, "const double m" + std::to_string(g.slot) + " = " +
                              quant("w" + std::to_string(g.pos)) + ";");
    for (const TapeInstr &in : tape_.instructions())
        if (!inline_[in.dst]) {
            if (mem_)
                stmt("V", in.dst, opExpr(in, ctx));
            else
                decl("v" + std::to_string(in.dst), opExpr(in, ctx));
        }
    flushChunk();
}

void
Emitter::emitBatch()
{
    out_ += "void " + std::string(kBatchSymbol) +
            "(const double *restrict records, long long n,\n"
            "    const double *restrict model, double *restrict grad)\n{\n";
    // The batch model is frozen: gather + quantize once, like the
    // executor's once-per-batch model load. Register mode hoists one
    // scalar per gather; memory mode keeps F64 reads on the caller's
    // array (no copy needed) and hoists a compact quantized copy for
    // Q16.16.
    if (!mem_) {
        for (const TapeGather &g : tape_.modelGathers())
            line("    ",
                 "const double m" + std::to_string(g.slot) + " = " +
                     quant("model[" + std::to_string(g.pos) + "]") + ";");
    } else if (q_ && nModel_ > 0) {
        std::string tbl = "static const long long MPOS[] = {";
        const auto gathers = tape_.modelGathers();
        for (size_t k = 0; k < gathers.size(); ++k) {
            if (k > 0)
                tbl += k % 16 == 0 ? ",\n        " : ",";
            tbl += std::to_string(gathers[k].pos);
        }
        tbl += "};";
        line("    ", tbl);
        line("    ", "double M[" + std::to_string(nModel_) + "];");
        line("    ", "for (int k = 0; k < " + std::to_string(nModel_) +
                         "; ++k) M[k] = q16(model[MPOS[k]]);");
    }
    line("    ", "long long r = 0;");
    const auto grads = tape_.gradientSlots();
    // Inside memory-mode helpers the gradient array is the G
    // parameter; register mode folds straight into the caller's grad.
    const std::string gv = mem_ ? "G" : "grad";
    chunkArgs_ = callArgs("grad", true);
    const std::string w = std::to_string(kLanes);
    line("    ", "for (; r + " + w + " <= n; r += " + w + ") {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx lane{.lane = true, .sweep = false};
    emitBody(lane, "        ");
    // Element-major fold in record order: grad[i] += lane 0, then lane
    // 1, ... — the scalar accumulation order exactly.
    for (size_t i = 0; i < grads.size(); ++i)
        chunkStmt("        ",
                  "{ double acc = " + gv + "[" + std::to_string(i) +
                      "]; for (int l = 0; l < " + w + "; ++l) acc += " +
                      ref(grads[i], lane) + "; " + gv + "[" +
                      std::to_string(i) + "] = acc; }");
    flushChunk();
    line("    ", "}");
    line("    ", "for (; r < n; ++r) {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx scalar{.lane = false, .sweep = false};
    emitBody(scalar, "        ");
    for (size_t i = 0; i < grads.size(); ++i)
        chunkStmt("        ", gv + "[" + std::to_string(i) +
                                  "] += " + ref(grads[i], scalar) + ";");
    flushChunk();
    line("    ", "}");
    out_ += "}\n";
}

void
Emitter::emitSweep()
{
    const int64_t mw = tape_.translation().modelWords;
    out_ += "void " + std::string(kSweepSymbol) +
            "(const double *restrict records, long long n,\n"
            "    double *restrict model, double lr)\n{\n";
    // Register mode: the whole model lives in locals across the record
    // loop; raw (unquantized) values, exactly like the executor's
    // model vector — quantization happens at each gather. Memory mode
    // leaves the model in the caller's array and updates it in place
    // after each record's full gradient is computed.
    if (!mem_)
        for (int64_t p = 0; p < mw; ++p)
            line("    ", "double w" + std::to_string(p) + " = model[" +
                             std::to_string(p) + "];");
    line("    ", "for (long long r = 0; r < n; ++r) {");
    line("        ", "const double *restrict R = records + r * COSMIC_RW;");
    Ctx sweep{.lane = false, .sweep = true};
    chunkArgs_ = callArgs("0", false);
    emitBody(sweep, "        ");
    // All gradient elements are computed against the pre-update
    // weights before any update lands (the executor finishes the tape
    // pass, then applies the updates).
    const auto grads = tape_.gradientSlots();
    if (mem_) {
        line("        ", "double G[" + std::to_string(grads.size()) + "];");
        chunkArgs_ = callArgs("G", false);
        for (size_t i = 0; i < grads.size(); ++i)
            chunkStmt("        ", "G[" + std::to_string(i) + "] = " +
                                      ref(grads[i], sweep) + ";");
        flushChunk();
        // Element-wise update: exact regardless of vectorization.
        line("        ", "for (long long i = 0; i < " +
                             std::to_string(grads.size()) +
                             "; ++i) model[i] -= lr * G[i];");
    } else {
        for (size_t i = 0; i < grads.size(); ++i)
            line("        ", "const double g" + std::to_string(i) + " = " +
                                 ref(grads[i], sweep) + ";");
        for (size_t i = 0; i < grads.size(); ++i)
            line("        ", "w" + std::to_string(i) + " -= lr * g" +
                                 std::to_string(i) + ";");
    }
    line("    ", "}");
    if (!mem_)
        for (int64_t p = 0; p < mw; ++p)
            line("    ", "model[" + std::to_string(p) + "] = w" +
                             std::to_string(p) + ";");
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
    // Memory-mode helper definitions come before the entry points that
    // call them.
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
