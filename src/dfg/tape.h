/**
 * @file
 * Compiled tape executor — the training hot path's compute kernel.
 *
 * The functional Interpreter re-dispatches a switch over *every* DFG
 * node — constants, inputs and operations alike — once per training
 * record. That is fine for cross-checks but it is the inner loop of the
 * whole scale-out runtime: every gradient in the cluster flows through
 * it. The Tape lowers a Translation once, into one slot numbering: a
 * region layout in which data is laid out before operations (the
 * paper's "map data before operations"). Slot 0 is a pinned zero
 * (absent operands point at it, so no consumer has a kInvalidNode
 * branch), then come the model region (model word p at modelBase + p),
 * the data region (record word p at dataBase + p), the gradient region
 * (gradient i at gradientBase + i), constants (preloaded and
 * pre-quantized at lowering time), then the remaining operations in
 * node order. Loading a model or a record is one contiguous copy, and
 * so is reading the gradient. The gradient region exists only when
 * every gradient is a distinct operation node (true of every suite
 * program); otherwise gradients are read slot by slot.
 *
 * Both consumers read that one lowering. The node-order instruction
 * list (one TapeInstr per operation, in region slots) feeds the JIT
 * emitter (src/jit/), which tells an operand's kind from the region
 * its slot falls in and takes constants from the region image. The
 * executor runs segments: a segment is a run of same-opcode operations
 * whose dst/a/b/c slots each advance by a constant stride, run as one
 * strided loop with no per-operation instruction load, and a segment
 * with a unit dst stride and no dependency inside it as a
 * restrict-qualified loop the compiler vectorizes.
 *
 * Every dot product the Translator expands (`sum[i](a * b)`: n
 * products, then the n - 1 adds of its balanced pairwise tree) is one
 * execution item, a dot tree: its products and partial sums never
 * reach scratch, and only the root is written. A dot segment is a run
 * of trees with one leaf count and constant leaf strides; it runs
 * eight trees at a time, one per SIMD lane, each lane doing exactly
 * the scalar tree's rounded products and pairwise levels (the odd
 * element carried up). The Translator's statement expansion and the
 * trees make segments long: mnist at scale 1/8 has 34k operations in
 * 224 segments.
 *
 * Segments follow node order except where lowering transposes a
 * stretch of interleaved chains. An SVM's gradient alternates
 * mul/select, so in node order every operation is its own segment;
 * k <= 8 chains that each repeat one opcode with constant slot strides
 * are emitted chain by chain instead, one segment per chain. The
 * transposition is legal only when every operand produced inside the
 * stretch comes from an earlier chain, or from the same chain's
 * earlier repetition — so the emitted order stays topological; a dot
 * tree's operands are its whole leaf ranges — and
 * lowering applies it only where it cuts the stretch's segment count
 * (and keeps node order if the whole tape would not get shorter).
 * Reordering independent SSA operations changes no value: tape
 * gradients are bit-exact against the Interpreter's node-order walk,
 * with and without the fixed-point quantizer hook. Vectorized segments
 * likewise only reorder independent operations.
 *
 * The Tape itself is immutable and shareable across threads; each
 * worker owns a TapeExecutor holding the mutable scratch vector.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dfg/translator.h"

namespace cosmic::jit {
struct NativeTapeKernel;
}

namespace cosmic::dfg {

/**
 * Which compute kernel a TapeExecutor runs.
 *
 *  - Interp: the in-process segment loop (always available).
 *  - Jit: specialized C source emitted per (DFG, quantizer), compiled
 *    with the system toolchain and dlopen'ed (src/jit/). Falls
 *    back to Interp — with a counted, logged reason — when no compiler
 *    is available or compilation fails. Bit-exact against Interp.
 *  - Auto: follow the COSMIC_TAPE_JIT environment variable (1 = Jit,
 *    0 = Interp, unset = Interp).
 *
 * A set COSMIC_TAPE_JIT always wins, even over an explicit backend
 * choice, so a whole test/bench run can be forced through either
 * kernel without touching code.
 */
enum class TapeBackend : uint8_t
{
    Auto,
    Interp,
    Jit,
};

/**
 * Strict parser behind the COSMIC_TAPE_JIT knob (exposed for tests):
 * @p env must be exactly "0" or "1". Throws CosmicError otherwise.
 */
bool parseTapeJitEnv(const char *env);

/** One tape instruction: scratch[dst] = op(scratch[a], [b], [c]). */
struct TapeInstr
{
    OpKind op = OpKind::Add;
    /** Region-layout slots; absent operands resolve to slot 0 (zero). */
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
};

/**
 * A run of @c count same-opcode operations whose dst/a/b/c slots each
 * advance by a constant stride: operation k < count is
 * scratch[dst + k * dstStride] = op(scratch[a + k * aStride], ...).
 *
 * A dot segment (leaves > 0) is a run of @c count dot trees instead:
 * tree k sums, in the Translator's pairwise order, the @c leaves
 * products scratch[a + k * aStride + l * leafAStride] *
 * scratch[b + k * bStride + l * leafBStride], l < leaves, into
 * scratch[dst + k * dstStride].
 */
struct TapeSegment
{
    OpKind op = OpKind::Add;
    /** Plain segments: unit dst stride and no operand reads a slot
     *  the segment writes, so the operations are independent, safe to
     *  vectorize. Dot segments: no leaf reads a root the segment
     *  writes, so the trees may run side by side. */
    bool flat = false;
    int32_t count = 0;
    /** Leaves per dot tree; 0 for a plain segment. */
    int32_t leaves = 0;
    int32_t leafAStride = 0;
    int32_t leafBStride = 0;
    /** Region-layout slots of the first operation. */
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t dstStride = 0;
    int32_t aStride = 0;
    int32_t bStride = 0;
    int32_t cStride = 0;
};

/** What a region-layout slot holds. The gradient region holds
 *  operation results, so its slots are Operation slots. */
enum class TapeSlotKind : uint8_t
{
    Zero,
    Model,
    Data,
    Constant,
    Operation,
};

/** The compiled, immutable execution schedule for one Translation. */
class Tape
{
  public:
    /**
     * Lowers @p translation into the region layout, its node-order
     * instructions and their segments.
     *
     * @param quantizer Optional value-rounding hook applied to every
     *        buffered value, exactly as in the Interpreter (constants
     *        are quantized once, here at lowering time). Null = exact
     *        doubles.
     * @param backend Which compute kernel executors over this tape
     *        should run (see TapeBackend; the COSMIC_TAPE_JIT
     *        environment variable overrides).
     */
    explicit Tape(const Translation &translation,
                  double (*quantizer)(double) = nullptr,
                  TapeBackend backend = TapeBackend::Auto);

    const Translation &translation() const { return *tr_; }
    bool quantized() const { return quantizer_ != nullptr; }
    double (*quantizer() const)(double) { return quantizer_; }
    TapeBackend backend() const { return backend_; }

    /** The operations in node order, in region-layout slots. */
    std::span<const TapeInstr> instructions() const { return instrs_; }

    /** Region-layout slot of each flattened-gradient element. */
    std::span<const int32_t> gradientSlots() const
    {
        return regionGradSlots_;
    }

    /** The region image, one value per slot: constants preloaded (and
     *  pre-quantized), every other slot zero. */
    std::span<const double> image() const { return image_; }

    /** First slot of the model region: model word p is at
     *  modelBase() + p. */
    int32_t modelBase() const { return modelBase_; }

    /** First slot of the data region: record word p is at
     *  dataBase() + p. */
    int32_t dataBase() const { return dataBase_; }

    /** Which region @p slot (< image().size()) falls in. */
    TapeSlotKind slotKind(int32_t slot) const
    {
        if (slot == 0)
            return TapeSlotKind::Zero;
        if (slot < dataBase_)
            return TapeSlotKind::Model;
        if (slot < dataBase_ + tr_->recordWords)
            return TapeSlotKind::Data;
        if (slot >= constBase_ && slot < opBase_)
            return TapeSlotKind::Constant;
        return TapeSlotKind::Operation;
    }

    /** Executable operations on the tape (== dfg.operationCount()). */
    int64_t instructionCount() const
    {
        return static_cast<int64_t>(instrs_.size());
    }

    /** Strided segments the operations compress into. */
    int64_t segmentCount() const
    {
        return static_cast<int64_t>(segments_.size());
    }

    /** Whether the region layout holds the gradients in one
     *  contiguous region, in gradient order (else the executor reads
     *  them slot by slot). */
    bool hasGradientRegion() const { return gradBase_ >= 0; }

  private:
    friend class TapeExecutor;

    const Translation *tr_;
    double (*quantizer_)(double) = nullptr;
    TapeBackend backend_ = TapeBackend::Auto;
    std::vector<TapeInstr> instrs_;

    /** Execution order: node order with each dot tree one item and
     *  interleaved chains transposed. */
    std::vector<TapeSegment> segments_;
    /** Words of executor buffer the largest dot segment needs: eight
     *  lanes' rows per leaf, or two halves for lone trees. */
    int64_t dotWords_ = 0;
    /** First slot of the model region (modelWords slots), the data
     *  region (recordWords slots), the gradient region (-1: none), the
     *  constants and the remaining operations. */
    int32_t modelBase_ = 1;
    int32_t dataBase_ = 1;
    int32_t gradBase_ = -1;
    int32_t constBase_ = 1;
    int32_t opBase_ = 1;
    /** Region-layout slot of each gradient element. */
    std::vector<int32_t> regionGradSlots_;
    /** Region-layout image: constants preloaded, the rest zero. */
    std::vector<double> image_;
};

/**
 * Per-worker execution state for one Tape. Not thread-safe: each
 * worker thread owns its own executor (and thus its own scratch).
 */
class TapeExecutor
{
  public:
    explicit TapeExecutor(const Tape &tape);

    /**
     * Computes the gradient of a single record into @p grad_out
     * (caller-owned, at least gradientWords long). No allocations.
     */
    void run(std::span<const double> record,
             std::span<const double> model, std::span<double> grad_out);

    /**
     * Accumulates gradients over @p record_count consecutive records:
     * grad_accum[i] += per-record gradient, in record order (the same
     * summation order as Interpreter::accumulate). The caller owns and
     * zeroes @p grad_accum; no allocations per call.
     */
    void runBatch(std::span<const double> records, int64_t record_count,
                  std::span<const double> model,
                  std::span<double> grad_accum);

    /**
     * Runs one plain-SGD sweep: for each record in order, computes the
     * gradient at the current @p model and applies
     * model[i] -= learning_rate * grad[i] in place. Requires
     * gradientWords == modelWords (one gradient element per
     * parameter). No allocations per call.
     */
    void sgdSweep(std::span<const double> records, int64_t record_count,
                  std::span<double> model, double learning_rate);

    /**
     * Resolves the native (JIT) kernel for the tape's backend choice,
     * compiling it (or hitting the kernel cache) if needed. Called
     * lazily by runBatch/sgdSweep; exposed so tools can warm the
     * kernel and observe the outcome.
     *
     * @return Whether batch calls now run native code. False when the
     *         backend resolves to the interpreter tape — including the
     *         counted fallback when JIT was requested but the
     *         toolchain is missing or compilation failed.
     */
    bool prepareNative();

    /** True when runBatch delegates to a dlopen'ed native kernel. */
    bool nativeActive() const { return native_ != nullptr; }

    const Tape &tape() const { return tape_; }

  private:
    /** Copies (and quantizes) a model into the model region. */
    template <bool Quantized>
    void loadModel(const double *model);

    /** Executes the tape over one record against the model already in
     *  the model region, leaving results in scratch. */
    template <bool Quantized>
    void runRecord(const double *record);

    /** runBatch on the interpreter tape. */
    template <bool Quantized>
    void accumulate(const double *records, int64_t record_count,
                    const double *model, double *grad_accum);

    /** The last record's gradient, gradientSlots().size() words: the
     *  gradient region itself, or gradBuf_ gathered from the slots. */
    const double *gradients();

    const Tape &tape_;
    /** Region-layout working image; slot 0 stays 0.0, const slots
     *  stay preloaded. */
    std::vector<double> scratch_;
    /** Gradient copy for tapes without a gradient region. */
    std::vector<double> gradBuf_;
    /** The dot trees' products and partial sums
     *  (Tape::dotWords_). */
    std::vector<double> dotBuf_;
    /** Resolved native kernel (null = interpreter tape); shared with
     *  the process-wide kernel cache, which owns the dlopen handle. */
    std::shared_ptr<const jit::NativeTapeKernel> native_;
    /** Whether native_ has been resolved. A failed resolution is
     *  memoized too (native_ stays null), so the interpreter fallback
     *  costs one flag test per call. */
    bool nativeResolved_ = false;
};

} // namespace cosmic::dfg
