/**
 * @file
 * Random-DFG generator shared by the property tests.
 *
 * randomTranslation(seed) builds a small random dataflow graph over the
 * full op set — random topology, gradient marks on a random node
 * subset, and Q16.16-hazard constants (signed zeros, saturation
 * boundaries, subnormal-ish epsilons, infinities) in the constant
 * pool. The same seed always yields the same graph.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>

#include "common/rng.h"
#include "dfg/graph.h"
#include "dfg/translator.h"

namespace cosmic::fuzz {

/** Constants the generator seeds graphs with: quantizer hazards. */
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kConstPool[] = {
    0.0,    -0.0,     1.0,  -1.0,     2.0,  0.5,   0.7,
    3.0,    32767.9, -32768.0, 65536.0, -65536.0, 1e-9,
    -1e-9,  1e12,     kInf, -kInf,
};
/** Exponents Pow nodes are biased toward (spans every guard arm). */
inline constexpr double kExponentPool[] = {0.0, 1.0, 2.0, 3.0,
                                          4.0, 0.5, -1.0};

template <size_t N>
inline double
pick(Rng &rng, const double (&pool)[N])
{
    return pool[rng.integer(0, static_cast<int64_t>(N) - 1)];
}

/**
 * Random translation: random topology over the full op set, random
 * gradient-marked node subset, hazard constants in the pool.
 */
inline dfg::Translation
randomTranslation(uint64_t seed)
{
    Rng rng(seed);
    dfg::Dfg g;
    const int64_t n_data = rng.integer(1, 4);
    const int64_t n_model = rng.integer(1, 4);
    for (int64_t i = 0; i < n_data; ++i)
        g.addDataInput(i, {});
    for (int64_t i = 0; i < n_model; ++i)
        g.addModelInput(i, {});

    constexpr dfg::OpKind kUnary[] = {
        dfg::OpKind::Neg,  dfg::OpKind::Sigmoid, dfg::OpKind::Gaussian,
        dfg::OpKind::Log,  dfg::OpKind::Exp,     dfg::OpKind::Sqrt,
        dfg::OpKind::Abs,
    };
    constexpr dfg::OpKind kBinary[] = {
        dfg::OpKind::Add,   dfg::OpKind::Sub,   dfg::OpKind::Mul,
        dfg::OpKind::Mul,   dfg::OpKind::Add, // bias toward the
        dfg::OpKind::Div,   dfg::OpKind::Pow, // algebraic patterns
        dfg::OpKind::CmpGt, dfg::OpKind::CmpLt, dfg::OpKind::CmpGe,
        dfg::OpKind::CmpLe, dfg::OpKind::CmpEq, dfg::OpKind::Min,
        dfg::OpKind::Max,   dfg::OpKind::Pow,
    };

    auto any_node = [&] {
        return static_cast<dfg::NodeId>(rng.integer(0, g.size() - 1));
    };

    const int64_t n_ops = rng.integer(10, 50);
    for (int64_t i = 0; i < n_ops; ++i) {
        if (rng.coin(0.15)) {
            g.addConst(pick(rng, kConstPool));
            continue;
        }
        double shape = rng.uniform();
        if (shape < 0.3) {
            g.addOp(kUnary[rng.integer(0, std::size(kUnary) - 1)],
                    any_node());
        } else if (shape < 0.9) {
            dfg::OpKind op =
                kBinary[rng.integer(0, std::size(kBinary) - 1)];
            dfg::NodeId a = any_node();
            // Bias Pow exponents and one mul/add operand toward the
            // constant pools so the guarded patterns actually fire.
            dfg::NodeId b;
            if (op == dfg::OpKind::Pow && rng.coin(0.7))
                b = g.addConst(pick(rng, kExponentPool));
            else if (rng.coin(0.25))
                b = g.addConst(pick(rng, kConstPool));
            else
                b = any_node();
            g.addOp(op, a, b);
        } else {
            g.addOp(dfg::OpKind::Select, any_node(), any_node(),
                    any_node());
        }
    }

    dfg::Translation tr;
    for (int64_t p = 0; p < n_model; ++p)
        g.markGradient(any_node(), p, {});
    tr.dfg = std::move(g);
    tr.recordWords = n_data;
    tr.modelWords = n_model;
    tr.gradientWords = n_model;
    tr.minibatch = 1;
    return tr;
}

} // namespace cosmic::fuzz
