/**
 * @file
 * Random-DFG property fuzzer for the rewrite framework.
 *
 * For every seed, a random dataflow graph is generated over the full
 * op set — random topology, gradient marks on a random node subset,
 * and Q16.16-hazard constants (signed zeros, saturation boundaries,
 * subnormal-ish epsilons, infinities) injected into the constant pool
 * and the training records. The property under test is the stack's
 * load-bearing invariant: running the rewrite engine must leave every
 * trained trajectory bit-identical to the unoptimized graph's, per
 * engine, in plain F64 and under the Q16.16 quantizer.
 *
 * Engines covered: the interpreter, the tape's batch call (also
 * against the interpreter) and its SGD sweep (against the
 * interpreter's per-record steps), for every seed. The seed range is
 * COSMIC_REWRITE_FUZZ_SEEDS ("lo-hi", default "1-200") so CI can shard
 * it and a nightly sweep can widen it.
 *
 * Hazards the fuzzer surfaced while the guards were developed are
 * frozen below as named regression tests (RewriteFuzzRegression.*).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "accel/fixed_point.h"
#include "common/rng.h"
#include "dfg/interp.h"
#include "dfg/rewrite.h"
#include "dfg/tape.h"
#include "random_dfg.h"

namespace cosmic {
namespace {

enum class Engine
{
    Interp,
    Tape,
};

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Interp: return "interp";
      case Engine::Tape: return "tape";
    }
    return "?";
}

using fuzz::pick;
using fuzz::randomTranslation;

/** Hazard values mixed into training records. */
constexpr double kRecordHazards[] = {
    0.0, -0.0, 1.0, -1.0, 0.5, -32768.0, 32767.9, 1e9, -1e9,
};

/** Training records per trajectory. */
constexpr int64_t kRecords = 11;

/** A seed's training records (hazards mixed in) and initial model. */
struct TrainingData
{
    std::vector<double> records;
    std::vector<double> model;
};

TrainingData
trainingData(const dfg::Translation &tr, uint64_t seed)
{
    Rng rng(seed * 7919 + 17);
    TrainingData d{std::vector<double>(kRecords * tr.recordWords),
                   std::vector<double>(tr.modelWords)};
    for (auto &v : d.records)
        v = rng.coin(0.25) ? pick(rng, kRecordHazards)
                           : rng.uniform(-2.0, 2.0);
    for (auto &v : d.model)
        v = rng.uniform(-1.5, 1.5);
    return d;
}

/**
 * Trains 3 minibatch steps over kRecords records and returns the model
 * concatenated with the final gradient — the observable trajectory.
 */
std::vector<double>
trajectory(const dfg::Translation &tr, uint64_t seed,
           double (*quantizer)(double), Engine engine)
{
    TrainingData data = trainingData(tr, seed);
    const std::vector<double> &records = data.records;
    std::vector<double> &model = data.model;
    std::vector<double> grad(tr.gradientWords, 0.0);

    auto steps = [&](auto &&accumulate) {
        for (int s = 0; s < 3; ++s) {
            std::fill(grad.begin(), grad.end(), 0.0);
            accumulate();
            for (size_t p = 0; p < model.size(); ++p)
                model[p] -= 0.03 * grad[p];
        }
    };

    if (engine == Engine::Interp) {
        dfg::Interpreter interp(tr, quantizer);
        steps(
            [&] { interp.accumulate(records, kRecords, model, grad); });
    } else {
        dfg::Tape tape(tr, quantizer);
        dfg::TapeExecutor exec(tape);
        steps([&] { exec.runBatch(records, kRecords, model, grad); });
    }

    std::vector<double> out = model;
    out.insert(out.end(), grad.begin(), grad.end());
    return out;
}

/**
 * Two plain-SGD sweeps over the trajectory's records and returns the
 * final model: the tape's sgdSweep, or for the interpreter its
 * gradient with an explicit per-record step.
 */
std::vector<double>
sweepTrajectory(const dfg::Translation &tr, uint64_t seed,
                double (*quantizer)(double), Engine engine)
{
    TrainingData data = trainingData(tr, seed);
    const std::vector<double> &records = data.records;
    std::vector<double> &model = data.model;
    constexpr double kRate = 0.03;

    if (engine == Engine::Tape) {
        dfg::Tape t(tr, quantizer);
        dfg::TapeExecutor exec(t);
        for (int s = 0; s < 2; ++s)
            exec.sgdSweep(records, kRecords, model, kRate);
        return model;
    }
    dfg::Interpreter interp(tr, quantizer);
    std::vector<double> grad;
    for (int s = 0; s < 2; ++s)
        for (int64_t r = 0; r < kRecords; ++r) {
            interp.run(std::span(records).subspan(r * tr.recordWords,
                                                  tr.recordWords),
                       model, grad);
            for (size_t p = 0; p < model.size(); ++p)
                model[p] -= kRate * grad[p];
        }
    return model;
}

/** Bitwise comparison — 0.0 vs -0.0 and NaN payloads all count. */
void
expectBitIdentical(const std::vector<double> &plain,
                   const std::vector<double> &rewritten,
                   const char *engine)
{
    ASSERT_EQ(plain.size(), rewritten.size());
    for (size_t i = 0; i < plain.size(); ++i)
        if (std::memcmp(&plain[i], &rewritten[i], sizeof(double)) != 0)
            ADD_FAILURE() << engine << " trajectory word " << i
                          << " diverged: plain=" << plain[i]
                          << " rewritten=" << rewritten[i];
}

/**
 * Bitwise comparison across engines, except that any NaN matches any
 * NaN: the interpreter and the tape compile evaluateOp separately, and
 * the sign of a NaN out of a commutative operation with two NaN
 * operands depends on the operand order the compiler picks (seed 1689
 * shows it, with or without segments).
 */
void
expectSameValues(const std::vector<double> &interp,
                 const std::vector<double> &tape, const char *engine)
{
    ASSERT_EQ(interp.size(), tape.size());
    for (size_t i = 0; i < interp.size(); ++i)
        if (!(std::isnan(interp[i]) && std::isnan(tape[i])) &&
            std::memcmp(&interp[i], &tape[i], sizeof(double)) != 0)
            ADD_FAILURE() << engine << " trajectory word " << i
                          << " diverged: interpreter=" << interp[i]
                          << " tape=" << tape[i];
}

/** COSMIC_REWRITE_FUZZ_SEEDS ("lo-hi"), default 1-200. */
std::pair<uint64_t, uint64_t>
seedRange()
{
    const char *env = std::getenv("COSMIC_REWRITE_FUZZ_SEEDS");
    std::string spec = env ? env : "1-200";
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(spec.c_str(), "%llu-%llu", &lo, &hi) != 2 ||
        lo == 0 || hi < lo) {
        ADD_FAILURE() << "bad COSMIC_REWRITE_FUZZ_SEEDS '" << spec
                      << "' (want lo-hi with 0 < lo <= hi)";
        return {1, 0};
    }
    return {lo, hi};
}

// ------------------------------------------------------ property tests

TEST(RewriteFuzz, TrajectoriesBitIdenticalAcrossEngines)
{
    auto [lo, hi] = seedRange();
    for (uint64_t seed = lo; seed <= hi; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto plain = randomTranslation(seed);
        auto rewritten = plain;
        auto outcome = dfg::rewriteFixpoint(rewritten);
        ASSERT_LE(rewritten.dfg.size(), plain.dfg.size())
            << "rewrites must never grow the graph";
        ASSERT_FALSE(outcome.budgetExhausted)
            << "fuzz graphs are small; the default budget must suffice";

        for (auto quantizer :
             {static_cast<double (*)(double)>(nullptr),
              &accel::quantizeToFixed}) {
            SCOPED_TRACE(quantizer ? "Q16.16" : "F64");
            for (auto engine : {Engine::Interp, Engine::Tape}) {
                auto a = trajectory(plain, seed, quantizer, engine);
                auto b = trajectory(rewritten, seed, quantizer, engine);
                expectBitIdentical(a, b, engineName(engine));
            }
            expectSameValues(
                trajectory(plain, seed, quantizer, Engine::Interp),
                trajectory(plain, seed, quantizer, Engine::Tape),
                engineName(Engine::Tape));
        }
        if (::testing::Test::HasFailure())
            FAIL() << "stopping at first diverging seed " << seed;
    }
}

/**
 * The scalar sweep leg: random gradient marks land on inputs,
 * constants and repeated nodes, which takes the tape off its gradient
 * region, and rewrites drop inputs, which leaves holes in its model
 * and data regions. The tape's sgdSweep must match the interpreter's
 * per-record steps on the plain graph, and be bit-identical on the
 * rewritten one.
 */
TEST(RewriteFuzz, SgdSweepMatchesInterpreterSteps)
{
    auto [lo, hi] = seedRange();
    for (uint64_t seed = lo; seed <= hi; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto plain = randomTranslation(seed);
        auto rewritten = plain;
        dfg::rewriteFixpoint(rewritten);
        for (auto quantizer :
             {static_cast<double (*)(double)>(nullptr),
              &accel::quantizeToFixed}) {
            SCOPED_TRACE(quantizer ? "Q16.16" : "F64");
            auto want =
                sweepTrajectory(plain, seed, quantizer, Engine::Interp);
            auto got =
                sweepTrajectory(plain, seed, quantizer, Engine::Tape);
            expectSameValues(want, got, "tape-sweep");
            expectBitIdentical(got,
                               sweepTrajectory(rewritten, seed, quantizer,
                                               Engine::Tape),
                               "tape-sweep");
        }
        if (::testing::Test::HasFailure())
            FAIL() << "stopping at first diverging seed " << seed;
    }
}

// ------------------------------------------- frozen fuzz discoveries

/**
 * Fuzz-discovered hazard: expanding pow(x, 3) into (x*x)*x quantizes
 * the intermediate product, so the chain diverges from the runtime's
 * single-quantization pow. The pattern guard must keep k >= 3 intact.
 */
TEST(RewriteFuzzRegression, PowCubeKeepsSingleQuantization)
{
    using accel::quantizeToFixed;
    // The divergence itself, staged exactly as the two datapaths
    // would: one quantization after pow vs. one per mul.
    double x = quantizeToFixed(0.7);
    double pow_path = quantizeToFixed(
        dfg::evaluateOp(dfg::OpKind::Pow, x, quantizeToFixed(3.0), 0.0));
    double chain_path =
        quantizeToFixed(quantizeToFixed(x * x) * x);
    ASSERT_NE(pow_path, chain_path)
        << "test premise: the cube must round differently when staged";

    dfg::Dfg g;
    auto in = g.addDataInput(0, {});
    auto k = g.addConst(3.0);
    auto p = g.addOp(dfg::OpKind::Pow, in, k);
    dfg::Translation tr;
    g.markGradient(p, 0, {});
    tr.dfg = std::move(g);
    tr.recordWords = 1;
    tr.modelWords = 0;
    tr.gradientWords = 1;
    auto outcome = dfg::rewriteFixpoint(tr);
    EXPECT_EQ(outcome.totalHits(), 0);
    EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
              dfg::OpKind::Pow);
}

/**
 * Fuzz-discovered hazard: x * 0 for a negative x is -0.0 in F64, so
 * rewriting the product to the +0.0 constant flips the gradient's
 * sign bit. The mul-zero guard must decline without a sign proof.
 */
TEST(RewriteFuzzRegression, NegativeInputTimesZeroKeepsSignBit)
{
    dfg::Dfg g;
    auto in = g.addDataInput(0, {});
    auto zero = g.addConst(0.0);
    auto m = g.addOp(dfg::OpKind::Mul, in, zero);
    dfg::Translation tr;
    g.markGradient(m, 0, {});
    tr.dfg = std::move(g);
    tr.recordWords = 1;
    tr.modelWords = 0;
    tr.gradientWords = 1;

    auto rewritten = tr;
    auto outcome = dfg::rewriteFixpoint(rewritten);
    EXPECT_EQ(outcome.totalHits(), 0);

    // The sign bit the rewrite would have destroyed:
    dfg::Interpreter interp(rewritten, nullptr);
    std::vector<double> record = {-2.0}, model, grad;
    interp.run(record, model, grad);
    ASSERT_EQ(grad.size(), 1u);
    EXPECT_TRUE(std::signbit(grad[0]))
        << "-2 * 0 must stay -0.0 through the rewritten graph";
}

/**
 * Fuzz-discovered hazard: Q16.16 saturation is asymmetric, so at
 * x = -32768.0 the inner negation clamps to 32767.99998... and
 * -(-x) != x. The double-neg guard must demand a non-negativity
 * proof.
 */
TEST(RewriteFuzzRegression, SaturatedDoubleNegationIsNotIdentity)
{
    using accel::quantizeToFixed;
    double x = -32768.0;
    ASSERT_EQ(quantizeToFixed(x), x)
        << "test premise: the most negative fixed value is exact";
    double round_trip =
        quantizeToFixed(-quantizeToFixed(-quantizeToFixed(x)));
    ASSERT_NE(round_trip, x)
        << "test premise: negation must saturate asymmetrically";

    dfg::Dfg g;
    auto in = g.addDataInput(0, {});
    auto n1 = g.addOp(dfg::OpKind::Neg, in);
    auto n2 = g.addOp(dfg::OpKind::Neg, n1);
    dfg::Translation tr;
    g.markGradient(n2, 0, {});
    tr.dfg = std::move(g);
    tr.recordWords = 1;
    tr.modelWords = 0;
    tr.gradientWords = 1;

    auto rewritten = tr;
    auto outcome = dfg::rewriteFixpoint(rewritten);
    EXPECT_EQ(outcome.totalHits(), 0);

    dfg::Interpreter interp(rewritten, &accel::quantizeToFixed);
    std::vector<double> record = {x}, model, grad;
    interp.run(record, model, grad);
    ASSERT_EQ(grad.size(), 1u);
    EXPECT_EQ(grad[0], round_trip);
    EXPECT_NE(grad[0], x);
}

/**
 * Fuzz-discovered hazard graph (seed 129): -inf and -65536 constants
 * feed Neg, Sigmoid and Gaussian. The tape preloads (and
 * pre-quantizes) constants into its image; the graph must train
 * exactly as the Interpreter does, in F64 and with Q16.16 saturation.
 */
TEST(RewriteFuzzRegression, NegativeConstantsThroughUnaryOpsMatchInterp)
{
    dfg::Dfg g;
    auto in = g.addDataInput(0, {});
    auto ninf = g.addConst(-INFINITY);
    auto big = g.addConst(-65536.0);
    auto neg = g.addOp(dfg::OpKind::Neg, ninf);
    auto sig = g.addOp(dfg::OpKind::Sigmoid, big);
    auto gau = g.addOp(dfg::OpKind::Gaussian, big);
    auto t1 = g.addOp(dfg::OpKind::Add, neg, sig);
    auto t2 = g.addOp(dfg::OpKind::Add, t1, gau);
    auto out = g.addOp(dfg::OpKind::Add, t2, in);
    dfg::Translation tr;
    g.markGradient(out, 0, {});
    tr.dfg = std::move(g);
    tr.recordWords = 1;
    tr.modelWords = 0;
    tr.gradientWords = 1;
    tr.minibatch = 1;

    // No rewrite here on purpose: the raw graph must reach the tape
    // with its negative constants intact.
    expectBitIdentical(trajectory(tr, 33, nullptr, Engine::Interp),
                       trajectory(tr, 33, nullptr, Engine::Tape),
                       "tape/F64");
    expectBitIdentical(
        trajectory(tr, 33, &accel::quantizeToFixed, Engine::Interp),
        trajectory(tr, 33, &accel::quantizeToFixed, Engine::Tape),
        "tape/Q16.16");
}

} // namespace
} // namespace cosmic
