/**
 * @file
 * Functional interpreter for translated dataflow graphs.
 *
 * Executes the partial-gradient DFG on real data, making the whole
 * CoSMIC stack runnable end-to-end without hardware: the distributed
 * runtime uses it as the "accelerator" compute kernel, and the tests use
 * it to cross-check the Translator against hand-written reference
 * gradients.
 *
 * The arithmetic follows what the PE datapath implements: comparisons
 * produce 0/1, select picks on nonzero, and the nonlinear lookup-table
 * operations are evaluated in double precision (the table quantization
 * is below the noise floor of stochastic training).
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "dfg/translator.h"

namespace cosmic::dfg {

/**
 * Arithmetic of one PE operation — the single source of truth for the
 * datapath semantics, shared by the interpreter, the tape executor and
 * the cycle simulator. Unary operations ignore b and c; Select reads
 * all three. Defined inline so the executors' dispatch loops can fold
 * the switch into their instruction stream.
 */
inline double
evaluateOp(OpKind op, double a, double b, double c)
{
    switch (op) {
      case OpKind::Add:
        return a + b;
      case OpKind::Sub:
        return a - b;
      case OpKind::Mul:
        return a * b;
      case OpKind::Div:
        return a / (b == 0.0 ? 1e-12 : b);
      case OpKind::Neg:
        return -a;
      case OpKind::CmpGt:
        return a > b ? 1.0 : 0.0;
      case OpKind::CmpLt:
        return a < b ? 1.0 : 0.0;
      case OpKind::CmpGe:
        return a >= b ? 1.0 : 0.0;
      case OpKind::CmpLe:
        return a <= b ? 1.0 : 0.0;
      case OpKind::CmpEq:
        return a == b ? 1.0 : 0.0;
      case OpKind::Select:
        return a != 0.0 ? b : c;
      case OpKind::Sigmoid:
        return 1.0 / (1.0 + std::exp(-a));
      case OpKind::Gaussian:
        return std::exp(-a * a);
      case OpKind::Log:
        return std::log(std::max(a, 1e-12));
      case OpKind::Exp:
        return std::exp(a);
      case OpKind::Sqrt:
        return std::sqrt(std::max(a, 0.0));
      case OpKind::Abs:
        return std::fabs(a);
      case OpKind::Min:
        return std::min(a, b);
      case OpKind::Max:
        return std::max(a, b);
      case OpKind::Pow: {
        // Small non-negative integer exponents take an exact mul
        // chain (so pow(x, 2) == x * x bitwise and pow(x, 0) == 1.0
        // for every x, NaN included); everything else uses the
        // lookup-table-style exp/log path with the same domain guard
        // as Log.
        if (b >= 0.0 && b <= 8.0 &&
            b == static_cast<double>(static_cast<long long>(b))) {
            double r = 1.0;
            long long n = static_cast<long long>(b);
            for (long long k = 0; k < n; ++k)
                r *= a;
            return r;
        }
        return std::exp(b * std::log(std::max(a, 1e-12)));
      }
      case OpKind::Const:
      case OpKind::Input:
        break;
    }
    COSMIC_FATAL("evaluateOp on non-operation " << opKindName(op));
}

/** Evaluates a DFG over one training record. */
class Interpreter
{
  public:
    /**
     * @param numeric Number format of every buffered value (constants,
     *        inputs and operation results); Q16 models the PEs'
     *        32-bit fixed-point datapath.
     */
    explicit Interpreter(const Translation &translation,
                         accel::Numeric numeric = accel::Numeric::F64);

    /**
     * Computes the partial gradient for a single record.
     *
     * @param record The training record (inputs then outputs), laid out
     *        exactly as the Translation's record stream.
     * @param model The flattened model vector.
     * @param grad_out Receives the flattened gradient (resized).
     */
    void run(std::span<const double> record,
             std::span<const double> model,
             std::vector<double> &grad_out) const;

    /**
     * Accumulates the gradient over a span of records (convenience for
     * the worker-thread loop): grad_out += sum of per-record gradients.
     */
    void accumulate(std::span<const double> records, int64_t record_count,
                    std::span<const double> model,
                    std::vector<double> &grad_out) const;

  private:
    const Translation &tr_;
    accel::Numeric numeric_;
    /** Scratch value per node, reused across calls. */
    mutable std::vector<double> values_;
};

} // namespace cosmic::dfg
