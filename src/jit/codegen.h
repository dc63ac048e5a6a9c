/**
 * @file
 * C-source emission for the tape JIT backend.
 *
 * Turns one compiled Tape into a specialized C translation unit — one
 * per (DFG, quantizer) — that the kernel cache compiles with the
 * system toolchain and dlopen's. The emitted code is the
 * tape's node-order instruction list lowered to straight-line
 * expressions, read in the tape's region layout:
 *
 *  - an operand's slot says what it is: the pinned zero, a model word
 *    (read from the model array), a record word (read from the
 *    record), a constant (a literal from the tape's pre-quantized
 *    region image) or an operation result;
 *  - single-use intermediate values are fused into their consumer's
 *    expression (mul+add chains collapse to FMA-shaped expressions),
 *    bounded by a fusion cap so pathological chains stay compilable;
 *    the rest live in indexed stack arrays, and the statements are
 *    split across small noinline helpers, so compile time stays
 *    linear in tape size;
 *  - the batch kernel runs 8 records at a time: the lane dimension is
 *    unrolled into fixed-trip-count `l < 8` loops over 8-element
 *    array cells — stride-1 — which the C compiler auto-vectorizes,
 *    with a one-record loop for the remainder;
 *  - `cosmic_jit_sgd_sweep` folds the SGD update into the gradient
 *    sweep: after each record's full gradient, the caller's model is
 *    updated in place.
 *
 * Bit-exactness contract (the repo's core invariant): the emitted
 * arithmetic is the exact IEEE operation sequence of evaluateOp() and
 * the TapeExecutor loops. F64 kernels are compiled with
 * -ffp-contract=off (no FMA contraction) and -fno-builtin-exp/-log
 * (no compile-time folding of the only correctly-rounded-vs-libm
 * hazards); fusion never reassociates — it only names fewer
 * intermediates. Q16.16 re-emits accel::quantizeToFixed verbatim
 * (scale, saturate, llround against the same libm) and wraps every
 * op result and input load exactly as the interpreter does, so
 * fusion across the integer-valued domain is unrestricted.
 */
#pragma once

#include <string>

#include "dfg/tape.h"

namespace cosmic::jit {

/** Entry-point symbols resolved via dlsym. */
inline constexpr char kBatchSymbol[] = "cosmic_jit_run_batch";
inline constexpr char kSweepSymbol[] = "cosmic_jit_sgd_sweep";

/** One emitted C translation unit. */
struct KernelSource
{
    std::string text;
    /** cosmic_jit_sgd_sweep was emitted (needs one gradient element
     *  per model parameter, like TapeExecutor::sgdSweep). */
    bool hasSweep = false;
};

/**
 * Emits the specialized C source for @p tape. The tape's quantizer
 * must be null or accel::quantizeToFixed — the kernel cache checks
 * before calling.
 */
KernelSource emitKernelSource(const dfg::Tape &tape);

} // namespace cosmic::jit
