/**
 * @file
 * Tape executor correctness: bit-exact gradient equivalence against the
 * Interpreter (in F64 and in Q16.16 fixed point) across the
 * whole benchmark suite at two scales, the zero-allocation batch and
 * SGD entry points, hand-built dot segments (fusion, lanes and their
 * remainders, and the cases that must not fuse), and an end-to-end
 * check that the persistent-worker runtime reproduces the seed
 * training trajectory.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <tuple>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "common/rng.h"
#include "dfg/interp.h"
#include "dfg/tape.h"
#include "compiler/pipeline.h"
#include "dfg/translator.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "system/cluster_runtime.h"

namespace cosmic {
namespace {

dfg::Translation
translateWorkload(const ml::Workload &w, double scale)
{
    return compile::translateSource(w.dslSource(scale));
}

/** Bit-exact equivalence vs the Interpreter on every suite benchmark,
 *  at two scales, in F64 and in Q16.16. */
class TapeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{};

TEST_P(TapeEquivalence, MatchesInterpreterBitExact)
{
    const auto &w = ml::Workload::byName(std::get<0>(GetParam()));
    const double scale = std::get<1>(GetParam());
    auto tr = translateWorkload(w, scale);

    Rng rng(11);
    auto ds = ml::DatasetGenerator::generate(w, scale, 4, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    for (accel::Numeric numeric :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        dfg::Interpreter interp(tr, numeric);
        dfg::Tape tape(tr, numeric);
        EXPECT_EQ(tape.instructionCount(), tr.dfg.operationCount());
        dfg::TapeExecutor exec(tape);

        std::vector<double> want, got(tr.gradientWords, 0.0);
        for (int64_t r = 0; r < ds.count; ++r) {
            interp.run(ds.record(r), model, want);
            exec.run(ds.record(r), model, got);
            ASSERT_EQ(static_cast<int64_t>(want.size()),
                      tr.gradientWords);
            for (int64_t i = 0; i < tr.gradientWords; ++i)
                ASSERT_EQ(got[i], want[i])
                    << "gradient element " << i << " of record " << r
                    << " (" << accel::numericName(numeric) << ")";
        }
    }
}

/**
 * runBatch must be bit-exact against the scalar per-record path for
 * odd record counts (3 and 11), in F64 and in Q16.16.
 */
TEST_P(TapeEquivalence, LaneBatchBitExactVsScalarWithRemainder)
{
    const auto &w = ml::Workload::byName(std::get<0>(GetParam()));
    const double scale = std::get<1>(GetParam());
    auto tr = translateWorkload(w, scale);

    Rng rng(13);
    auto ds = ml::DatasetGenerator::generate(w, scale, 11, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    for (accel::Numeric numeric :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        dfg::Tape tape(tr, numeric);
        dfg::TapeExecutor exec(tape);
        std::vector<double> grad(tr.gradientWords);
        for (int64_t count : {int64_t{3}, ds.count}) {
            std::vector<double> want(tr.gradientWords, 0.0);
            for (int64_t r = 0; r < count; ++r) {
                exec.run(ds.record(r), model, grad);
                for (int64_t i = 0; i < tr.gradientWords; ++i)
                    want[i] += grad[i];
            }
            std::vector<double> got(tr.gradientWords, 0.0);
            exec.runBatch(ds.data, count, model, got);
            for (int64_t i = 0; i < tr.gradientWords; ++i)
                ASSERT_EQ(got[i], want[i])
                    << "gradient element " << i << ", " << count
                    << " records (" << accel::numericName(numeric)
                    << ")";
        }
    }
}

/**
 * The scalar sgdSweep (model resident in its slot region, one
 * contiguous update per record) must be bit-exact against the
 * interpreter's gradient followed by an explicit per-record SGD step,
 * in F64 and in Q16.16.
 */
TEST_P(TapeEquivalence, SgdSweepMatchesInterpreterPerRecordSgd)
{
    const auto &w = ml::Workload::byName(std::get<0>(GetParam()));
    const double scale = std::get<1>(GetParam());
    auto tr = translateWorkload(w, scale);
    if (tr.gradientWords != tr.modelWords)
        GTEST_SKIP() << "SGD needs one gradient element per parameter";

    Rng rng(17);
    auto ds = ml::DatasetGenerator::generate(w, scale, 12, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    const double mu = 0.05;

    for (accel::Numeric numeric :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        dfg::Interpreter interp(tr, numeric);
        std::vector<double> want(model), grad;
        for (int64_t r = 0; r < ds.count; ++r) {
            interp.run(ds.record(r), want, grad);
            for (int64_t i = 0; i < tr.gradientWords; ++i)
                want[i] -= mu * grad[i];
        }

        dfg::Tape tape(tr, numeric);
        EXPECT_TRUE(tape.hasGradientRegion())
            << "every suite gradient is a distinct operation node";
        dfg::TapeExecutor exec(tape);
        std::vector<double> got(model);
        exec.sgdSweep(ds.data, ds.count, got, mu);
        for (int64_t i = 0; i < tr.modelWords; ++i)
            ASSERT_EQ(got[i], want[i])
                << "model element " << i
                << " (" << accel::numericName(numeric) << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, TapeEquivalence,
    ::testing::Combine(
        ::testing::Values("mnist", "acoustic", "stock", "texture",
                          "tumor", "cancer1", "movielens", "netflix",
                          "face", "cancer2"),
        ::testing::Values(64.0, 16.0)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_scale" +
               std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

TEST(Tape, RunBatchMatchesInterpreterAccumulate)
{
    const auto &w = ml::Workload::byName("tumor");
    auto tr = translateWorkload(w, 64.0);
    Rng rng(23);
    auto ds = ml::DatasetGenerator::generate(w, 64.0, 16, rng);
    auto model = ml::DatasetGenerator::initialModel(w, 64.0, rng);

    dfg::Interpreter interp(tr);
    std::vector<double> want;
    interp.accumulate(ds.data, ds.count, model, want);

    dfg::Tape tape(tr);
    dfg::TapeExecutor exec(tape);
    std::vector<double> got(tr.gradientWords, 0.0);
    exec.runBatch(ds.data, ds.count, model, got);

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "accumulated element " << i;
}

TEST(Tape, AbsentOperandsReadPinnedZero)
{
    // Neg has only operand a; b and c resolve to the zero slot. A
    // graph whose result flows through unary ops must still match.
    auto tr = compile::translateSource(R"(
        model_input x[2];
        model w[2];
        gradient g[2];
        iterator i[0:2];
        g[i] = 0 - sigmoid(0 - (w[i] * x[i]));
    )");
    dfg::Interpreter interp(tr);
    dfg::Tape tape(tr);
    dfg::TapeExecutor exec(tape);

    std::vector<double> record = {0.5, -2.0};
    std::vector<double> model = {1.5, 3.0};
    std::vector<double> want, got(tr.gradientWords, 0.0);
    interp.run(record, model, want);
    exec.run(record, model, got);
    for (int64_t i = 0; i < tr.gradientWords; ++i)
        EXPECT_EQ(got[i], want[i]);
}

/** Bitwise equality: -0.0 against 0.0 counts as a mismatch. */
void
expectSameBits(std::span<const double> got, std::span<const double> want,
               const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << what << " word " << i << ": tape " << got[i]
            << ", interpreter " << want[i];
}

/**
 * The tape against the Interpreter, bit for bit, in F64 and Q16.16:
 * run() on every record, runBatch() against accumulate(), and
 * sgdSweep() against per-record SGD steps (@p tr has one gradient
 * element per parameter).
 */
void
expectTapeMatchesInterpreter(const dfg::Translation &tr,
                             std::span<const double> records,
                             std::span<const double> model0)
{
    const int64_t count =
        static_cast<int64_t>(records.size()) / tr.recordWords;
    for (accel::Numeric numeric :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        SCOPED_TRACE(accel::numericName(numeric));
        dfg::Interpreter interp(tr, numeric);
        dfg::Tape tape(tr, numeric);
        dfg::TapeExecutor exec(tape);

        std::vector<double> want, got(tr.gradientWords);
        for (int64_t r = 0; r < count; ++r) {
            const auto record =
                records.subspan(r * tr.recordWords, tr.recordWords);
            interp.run(record, model0, want);
            exec.run(record, model0, got);
            expectSameBits(got, want, "run");
        }

        interp.accumulate(records, count, model0, want);
        std::vector<double> sum(tr.gradientWords, 0.0);
        exec.runBatch(records, count, model0, sum);
        expectSameBits(sum, want, "runBatch");

        std::vector<double> want_model(model0.begin(), model0.end());
        for (int64_t r = 0; r < count; ++r) {
            interp.run(records.subspan(r * tr.recordWords, tr.recordWords),
                       want_model, want);
            for (int64_t i = 0; i < tr.gradientWords; ++i)
                want_model[i] -= 0.05 * want[i];
        }
        std::vector<double> got_model(model0.begin(), model0.end());
        exec.sgdSweep(records, count, got_model, 0.05);
        expectSameBits(got_model, want_model, "sgdSweep");
    }
}

/**
 * Gradients that are not distinct operation nodes — a model input, a
 * data input, a constant and the same node twice — leave the tape
 * without a gradient region. Gradients then read through their slots,
 * and the resident sweep must still step against the pre-update model:
 * gradient 1 is model word 0 itself, which the step updates first.
 */
TEST(Tape, IrregularGradientsMatchInterpreter)
{
    dfg::Translation tr;
    dfg::Dfg &g = tr.dfg;
    const auto x = g.addDataInput(0, {});
    const auto w0 = g.addModelInput(0, {});
    const auto w1 = g.addModelInput(1, {});
    const auto half = g.addConst(0.5);
    const auto prod = g.addOp(dfg::OpKind::Mul, w0, x);
    const auto sum = g.addOp(dfg::OpKind::Add, prod, w1);
    const auto act = g.addOp(dfg::OpKind::Sigmoid, sum);
    g.markGradient(act, 0, {});
    g.markGradient(w0, 1, {});
    g.markGradient(half, 2, {});
    g.markGradient(act, 3, {});
    g.markGradient(x, 4, {});
    tr.recordWords = 1;
    tr.modelWords = 5;
    tr.gradientWords = 5;
    tr.minibatch = 1;

    const std::vector<double> records = {0.75, -1.5, 2.0, 0.125};
    const std::vector<double> model0 = {0.3, -0.7, 0.25, 1.0, -2.0};
    EXPECT_FALSE(dfg::Tape(tr).hasGradientRegion());
    expectTapeMatchesInterpreter(tr, records, model0);
}

/**
 * Segment compression guard over the whole suite: no program may take
 * more segments than node-order lowering without dot trees gives it
 * (the table), the SVMs' alternating mul/select chains must be
 * transposed into a handful of segments, and the MLPs' and
 * collaborative filtering's layers must fold into dot segments and
 * their weight updates into segments of rows.
 */
TEST(Tape, SegmentsCompressTheSuitePrograms)
{
    const double scales[] = {1.0, 8.0, 16.0, 64.0};
    struct Row
    {
        const char *name;
        /** Node-order segment count without dot trees at each of
         *  scales[]. */
        int64_t nodeOrder[4];
    };
    const Row rows[] = {
        {"mnist", {10282, 1364, 727, 224}},
        {"acoustic", {16751, 2443, 1227, 558}},
        {"stock", {7, 7, 7, 7}},
        {"texture", {4, 4, 4, 4}},
        {"tumor", {8, 8, 8, 8}},
        {"cancer1", {12, 9, 9, 9}},
        {"movielens", {120575, 15159, 7635, 1991}},
        {"netflix", {292425, 36663, 18395, 4665}},
        {"face", {3493, 444, 226, 64}},
        {"cancer2", {14271, 1795, 900, 232}},
    };
    for (const Row &row : rows)
        for (int k = 0; k < 4; ++k) {
            SCOPED_TRACE(std::string(row.name) + " at scale 1/" +
                         std::to_string(static_cast<int>(scales[k])));
            auto tr = translateWorkload(ml::Workload::byName(row.name),
                                        scales[k]);
            EXPECT_LE(dfg::Tape(tr).segmentCount(), row.nodeOrder[k]);
        }

    auto face = translateWorkload(ml::Workload::byName("face"), 8.0);
    EXPECT_LE(dfg::Tape(face).segmentCount(), 32);
    auto cancer2 =
        translateWorkload(ml::Workload::byName("cancer2"), 8.0);
    EXPECT_LE(dfg::Tape(cancer2).segmentCount(), 48);
    // Execution-order numbering makes each rank-1 weight update one
    // segment of rows and its operands unit-stride vectors.
    auto mnist = translateWorkload(ml::Workload::byName("mnist"), 8.0);
    EXPECT_LE(dfg::Tape(mnist).segmentCount(), 14);
    auto acoustic =
        translateWorkload(ml::Workload::byName("acoustic"), 8.0);
    EXPECT_LE(dfg::Tape(acoustic).segmentCount(), 14);
    auto movielens =
        translateWorkload(ml::Workload::byName("movielens"), 8.0);
    EXPECT_LE(dfg::Tape(movielens).segmentCount(), 4);
}

/**
 * Transposition legality on interleaved mul/add chains. A running sum
 * (s_r = s_{r-1} + w_r * x_r) reads only its own chain's earlier
 * repetition, so lowering emits it chain by chain; a recurrence whose
 * chain 0 at repetition r reads chain 1 at repetition r-1 (p_r =
 * s_{r-1} * x_r, s_r = p_r + w_r) has no legal chain-major order and
 * must stay in node order, one segment per operation. Both must match
 * the Interpreter bit for bit, in F64 and Q16.16.
 */
TEST(Tape, InterleavedChainsTransposeOnlyWhenLegal)
{
    constexpr int kReps = 16;
    for (bool serial : {false, true}) {
        SCOPED_TRACE(serial ? "serial recurrence" : "running sum");
        dfg::Translation tr;
        dfg::Dfg &g = tr.dfg;
        std::vector<dfg::NodeId> x, w;
        for (int r = 0; r < kReps; ++r) {
            x.push_back(g.addDataInput(r, {}));
            w.push_back(g.addModelInput(r, {}));
        }
        dfg::NodeId s = g.addConst(0.5);
        for (int r = 0; r < kReps; ++r) {
            if (serial) {
                const auto p = g.addOp(dfg::OpKind::Mul, s, x[r]);
                s = g.addOp(dfg::OpKind::Add, p, w[r]);
            } else {
                const auto p = g.addOp(dfg::OpKind::Mul, w[r], x[r]);
                s = g.addOp(dfg::OpKind::Add, s, p);
            }
            g.markGradient(s, r, {});
        }
        tr.recordWords = kReps;
        tr.modelWords = kReps;
        tr.gradientWords = kReps;
        tr.minibatch = 1;

        Rng rng(53);
        std::vector<double> records(3 * kReps), model0(kReps);
        for (double &v : records)
            v = rng.uniform(-1.0, 1.0);
        for (double &v : model0)
            v = rng.uniform(-1.0, 1.0);
        if (serial)
            EXPECT_EQ(dfg::Tape(tr).segmentCount(), 2 * kReps);
        else
            EXPECT_LE(dfg::Tape(tr).segmentCount(), 4);
        expectTapeMatchesInterpreter(tr, records, model0);
    }
}

/** How a tree's model leaves advance from one tree to the next (the
 *  data leaves take another of the three). */
enum class TreeStride
{
    Unit,
    Broadcast,
    Gathered,
};

/** Something that must keep dot tree 0 unfused. */
enum class Spoiler
{
    None,
    /** Product 1 gets a second reader. */
    SecondReader,
    /** The first partial sum is a gradient. */
    GradientPartialSum,
    /** Leaf 2's model operand is off the affine run. */
    NonAffineLeaf,
};

/** The Translator's balanced pairwise sum (Translator::buildTree). */
dfg::NodeId
pairwiseSum(dfg::Dfg &g, std::vector<dfg::NodeId> values)
{
    while (values.size() > 1) {
        std::vector<dfg::NodeId> next;
        for (size_t i = 0; i + 1 < values.size(); i += 2)
            next.push_back(g.addOp(dfg::OpKind::Add, values[i],
                                   values[i + 1]));
        if (values.size() % 2 == 1)
            next.push_back(values.back());
        values.swap(next);
    }
    return values[0];
}

/**
 * @p trees dot trees of @p leaves products each, each followed by a
 * sigmoid: y_t = sigmoid(sum_l w[.] * x[.]), gradient t. The model and
 * the records hold leaves * trees words; gradients t >= trees are
 * w[t] - 0.5, so there is one per parameter. A lone Neg closes the
 * program. @p spoiler, if any, applies to tree 0.
 */
dfg::Translation
dotTrees(int64_t leaves, int64_t trees, TreeStride stride,
         Spoiler spoiler = Spoiler::None)
{
    const int64_t words = leaves * trees;
    dfg::Translation tr;
    dfg::Dfg &g = tr.dfg;
    std::vector<dfg::NodeId> x, w;
    for (int64_t i = 0; i < words; ++i) {
        x.push_back(g.addDataInput(i, {}));
        w.push_back(g.addModelInput(i, {}));
    }
    const auto model_leaf = [&](int64_t t, int64_t l) {
        switch (stride) {
          case TreeStride::Unit: return l * trees + t;
          case TreeStride::Broadcast: return l;
          case TreeStride::Gathered: return t * leaves + l;
        }
        return int64_t{0};
    };
    const auto data_leaf = [&](int64_t t, int64_t l) {
        switch (stride) {
          case TreeStride::Unit: return l;
          case TreeStride::Broadcast: return t * leaves + l;
          case TreeStride::Gathered: return l * trees + t;
        }
        return int64_t{0};
    };
    dfg::NodeId shared = x[0];
    dfg::NodeId partial = dfg::kInvalidNode;
    for (int64_t t = 0; t < trees; ++t) {
        std::vector<dfg::NodeId> products;
        for (int64_t l = 0; l < leaves; ++l) {
            int64_t m = model_leaf(t, l);
            if (t == 0 && l == 2 && spoiler == Spoiler::NonAffineLeaf)
                m = (m + 1) % words;
            products.push_back(
                g.addOp(dfg::OpKind::Mul, w[m], x[data_leaf(t, l)]));
        }
        if (t == 0 && spoiler == Spoiler::SecondReader)
            shared = products[1];
        const dfg::NodeId root = pairwiseSum(g, products);
        if (t == 0 && leaves > 2)
            partial = g.node(root).a;
        g.markGradient(g.addOp(dfg::OpKind::Sigmoid, root), t, {});
    }
    const dfg::NodeId half = g.addConst(0.5);
    for (int64_t i = trees; i < words; ++i)
        g.markGradient(i + 1 == words &&
                               spoiler == Spoiler::GradientPartialSum
                           ? partial
                           : g.addOp(dfg::OpKind::Sub, w[i], half),
                       i, {});
    g.addOp(dfg::OpKind::Neg, shared);
    tr.recordWords = words;
    tr.modelWords = words;
    tr.gradientWords = words;
    tr.minibatch = 1;
    return tr;
}

/** @p count records and a model for @p tr, uniform in [-1, 1], with
 *  each value a hazard (signed zeros, +-1e9, the Q16.16 ceiling) at
 *  probability @p hazards. */
std::pair<std::vector<double>, std::vector<double>>
dotInputs(const dfg::Translation &tr, int64_t count, Rng &rng,
          double hazards = 0.0)
{
    constexpr double kHazards[] = {0.0, -0.0, 1e9, -1e9, 32767.9,
                                   -32767.9};
    const auto value = [&] {
        return rng.coin(hazards) ? kHazards[rng.integer(0, 5)]
                                 : rng.uniform(-1.0, 1.0);
    };
    std::vector<double> records(count * tr.recordWords), model(tr.modelWords);
    for (double &v : records)
        v = value();
    for (double &v : model)
        v = value();
    return {records, model};
}

/**
 * Dot trees of 2-70 leaves (odd elements carried at several levels),
 * 1/7/8/9/17 of them (a lone tree, remainders only, one full lane
 * group, a group and a remainder, two and one), with unit, broadcast
 * and gathered tree strides: each run of trees is one dot segment and
 * its sigmoids one more, bit-exact against the Interpreter.
 */
TEST(Tape, DotSegmentsMatchInterpreter)
{
    Rng rng(71);
    for (TreeStride stride :
         {TreeStride::Unit, TreeStride::Broadcast, TreeStride::Gathered})
        for (int64_t trees : {1, 7, 8, 9, 17})
            for (int64_t leaves = 2; leaves <= 70; ++leaves) {
                SCOPED_TRACE(std::to_string(trees) + " trees of " +
                             std::to_string(leaves) + " leaves, stride " +
                             std::to_string(static_cast<int>(stride)));
                const auto tr = dotTrees(leaves, trees, stride);
                // Dots, sigmoids, the w - 0.5 gradients and the Neg.
                EXPECT_EQ(dfg::Tape(tr).segmentCount(), 4);
                const auto [records, model] = dotInputs(tr, 3, rng);
                expectTapeMatchesInterpreter(tr, records, model);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
}

/**
 * Segments of at least 32 independent trees run in blocks of up to 64
 * trees side by side, summing each leaf's products on a binary-counter
 * stack of rows: 32, 33, 64, 65 and 130 trees (one block, blocks and
 * remainders), leaf counts on both sides of powers of two (the stack's
 * depth), all three tree strides, inputs laced with hazards.
 */
TEST(Tape, DotBlocksMatchInterpreter)
{
    Rng rng(75);
    for (TreeStride stride :
         {TreeStride::Unit, TreeStride::Broadcast, TreeStride::Gathered})
        for (int64_t trees : {32, 33, 64, 65, 130})
            for (int64_t leaves : {2, 3, 5, 7, 8, 9, 31, 32, 33, 64, 65}) {
                SCOPED_TRACE(std::to_string(trees) + " trees of " +
                             std::to_string(leaves) + " leaves, stride " +
                             std::to_string(static_cast<int>(stride)));
                const auto tr = dotTrees(leaves, trees, stride);
                EXPECT_EQ(dfg::Tape(tr).segmentCount(), 4);
                const auto [records, model] = dotInputs(tr, 2, rng, 0.1);
                expectTapeMatchesInterpreter(tr, records, model);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
}

/**
 * A tree whose product has a second reader, whose partial sum is a
 * gradient, or whose leaves are not affine is not a dot item: its
 * products and partial sums stay operations (so the program takes
 * more segments), and the result stays bit-exact.
 */
TEST(Tape, DotTreesFuseOnlyWhenPrivateAndAffine)
{
    Rng rng(73);
    const int64_t fused =
        dfg::Tape(dotTrees(5, 9, TreeStride::Unit)).segmentCount();
    EXPECT_EQ(fused, 4);
    for (Spoiler spoiler : {Spoiler::SecondReader,
                            Spoiler::GradientPartialSum,
                            Spoiler::NonAffineLeaf}) {
        SCOPED_TRACE("spoiler " +
                     std::to_string(static_cast<int>(spoiler)));
        const auto tr = dotTrees(5, 9, TreeStride::Unit, spoiler);
        // Tree 0's products and two add levels, its own sigmoid, and
        // a second dot segment at least.
        EXPECT_GE(dfg::Tape(tr).segmentCount(), fused + 4);
        const auto [records, model] = dotInputs(tr, 11, rng);
        expectTapeMatchesInterpreter(tr, records, model);
    }
}

/**
 * A leaf inside a dot tree's leaf range (not its first) written by an
 * earlier item: tree r sums x[k r] * w[2r] + y[r-1] * w[2r+1].
 *
 * With y[r] = sigmoid(tree r), the sigmoids are a later chain writing
 * a leaf at an earlier repetition. The leaf range spans from the data
 * region to y[r-1], so no chain-major order is topological and the
 * stretch must keep node order: the prologue sigmoid, one segment per
 * tree and per sigmoid, and the gradients.
 *
 * With y[r] = tree r itself, the trees form one dot segment whose
 * trees read its earlier roots, so they must run one by one, in order:
 * the prologue, the dot segment and the gradients.
 */
TEST(Tape, DotLeafRangeHazardsKeepOrder)
{
    constexpr int64_t kReps = 12;
    for (bool sigmoid : {true, false}) {
        SCOPED_TRACE(sigmoid ? "sigmoid chain" : "chained trees");
        dfg::Translation tr;
        dfg::Dfg &g = tr.dfg;
        std::vector<dfg::NodeId> x, w;
        for (int64_t i = 0; i < 4 * kReps; ++i)
            x.push_back(g.addDataInput(i, {}));
        for (int64_t i = 0; i < 2 * kReps; ++i)
            w.push_back(g.addModelInput(i, {}));
        // x advances with the operation slots of one repetition, so
        // the tree leaves keep constant strides: the four node-order
        // slots (two products, the add and the sigmoid) that
        // transposition reads, or the one executed slot of a chained
        // tree's root, which alone is numbered in execution order.
        const int64_t step = sigmoid ? 4 : 1;
        dfg::NodeId y = g.addOp(dfg::OpKind::Sigmoid, x[1]);
        for (int64_t r = 0; r < kReps; ++r) {
            const auto p0 =
                g.addOp(dfg::OpKind::Mul, x[step * r], w[2 * r]);
            const auto p1 = g.addOp(dfg::OpKind::Mul, y, w[2 * r + 1]);
            y = g.addOp(dfg::OpKind::Add, p0, p1);
            if (sigmoid)
                y = g.addOp(dfg::OpKind::Sigmoid, y);
        }
        for (int64_t i = 0; i < 2 * kReps; ++i)
            g.markGradient(g.addOp(dfg::OpKind::Sub, w[i], y), i, {});
        tr.recordWords = 4 * kReps;
        tr.modelWords = 2 * kReps;
        tr.gradientWords = 2 * kReps;
        tr.minibatch = 1;

        EXPECT_EQ(dfg::Tape(tr).segmentCount(),
                  sigmoid ? 2 * kReps + 2 : 3);
        Rng rng(79);
        const auto [records, model] = dotInputs(tr, 11, rng);
        expectTapeMatchesInterpreter(tr, records, model);
    }
}

/** Seeded sweep: random leaf and tree counts and tree strides, inputs
 *  laced with signed zeros, +-1e9 and the Q16.16 ceiling. */
TEST(Tape, DotSegmentsRandomSweep)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const int64_t leaves = rng.integer(2, 40);
        const int64_t trees = rng.integer(1, 20);
        const auto stride = static_cast<TreeStride>(rng.integer(0, 2));
        const auto tr = dotTrees(leaves, trees, stride);
        const auto [records, model] =
            dotInputs(tr, rng.integer(1, 11), rng, 0.25);
        expectTapeMatchesInterpreter(tr, records, model);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** The shape of a rank-1 nest (see outerNest). */
struct Nest
{
    int64_t rows = 1;
    int64_t cols = 1;
    dfg::OpKind op = dfg::OpKind::Mul;
    /** Rows emitted last to first: the dst and model advances are
     *  negative. */
    bool descending = false;
    /** Every row reads model word 0: a broadcast (zero) row advance. */
    bool broadcast = false;
    /** Row r reads row r - 1's results instead of e. */
    bool chained = false;
};

/**
 * A rank-1 update nest, the shape of a backprop weight gradient:
 * e[c] = sigmoid(x[c]), then g[r][c] = op(e[c], w[r]) row by row (row
 * r of a chained nest reads g[r - 1][c] in place of e[c]). Every g is
 * a gradient; the model has one word per gradient.
 */
dfg::Translation
outerNest(const Nest &n)
{
    dfg::Translation tr;
    dfg::Dfg &g = tr.dfg;
    std::vector<dfg::NodeId> e, w;
    for (int64_t c = 0; c < n.cols; ++c)
        e.push_back(
            g.addOp(dfg::OpKind::Sigmoid, g.addDataInput(c, {})));
    for (int64_t i = 0; i < n.rows * n.cols; ++i)
        w.push_back(g.addModelInput(i, {}));
    std::vector<dfg::NodeId> prev = e;
    for (int64_t k = 0; k < n.rows; ++k) {
        const int64_t r = n.descending ? n.rows - 1 - k : k;
        const dfg::NodeId b = w[n.broadcast ? 0 : r];
        for (int64_t c = 0; c < n.cols; ++c) {
            const auto v =
                g.addOp(n.op, n.chained ? prev[c] : e[c], b);
            g.markGradient(v, r * n.cols + c, {});
            prev[c] = v;
        }
    }
    tr.recordWords = n.cols;
    tr.modelWords = n.rows * n.cols;
    tr.gradientWords = n.rows * n.cols;
    tr.minibatch = 1;
    return tr;
}

/**
 * Rank-1 nests of 1, 7, 8 and 9 columns (a lone operation per row,
 * vector remainders only, one full vector, one and a remainder), with
 * ascending, descending and broadcast row advances: the sigmoids are
 * one segment and the whole nest one more, its rows, bit-exact against
 * the Interpreter.
 */
TEST(Tape, OuterProductRowsMatchInterpreter)
{
    Rng rng(83);
    for (int64_t cols : {1, 7, 8, 9})
        for (int64_t rows : {1, 2, 5, 13})
            for (int shape = 0; shape < 3; ++shape) {
                const Nest n{.rows = rows,
                             .cols = cols,
                             .descending = shape == 1,
                             .broadcast = shape == 2};
                SCOPED_TRACE(std::to_string(rows) + " rows of " +
                             std::to_string(cols) + ", shape " +
                             std::to_string(shape));
                const auto tr = outerNest(n);
                EXPECT_EQ(dfg::Tape(tr).segmentCount(), 2);
                const auto [records, model] = dotInputs(tr, 3, rng);
                expectTapeMatchesInterpreter(tr, records, model);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
}

/**
 * Rows that read what an earlier row of the same segment wrote: row r
 * multiplies row r - 1 by w[r]. Each row is independent within itself,
 * so it may vectorize, but the rows must run in order. Row 0 reads the
 * sigmoids and rows 1.. join one segment (descending, lowering may
 * instead emit them column by column, each column a chain that reads
 * its own earlier repetition, and the columns are the rows of one
 * segment).
 */
TEST(Tape, RowsReadingEarlierRowsKeepOrder)
{
    Rng rng(89);
    for (int64_t cols : {7, 8, 9})
        for (bool descending : {false, true}) {
            SCOPED_TRACE(std::to_string(cols) + " columns" +
                         (descending ? ", descending" : ""));
            const auto tr = outerNest({.rows = 12,
                                       .cols = cols,
                                       .descending = descending,
                                       .chained = true});
            EXPECT_LE(dfg::Tape(tr).segmentCount(), 3);
            const auto [records, model] = dotInputs(tr, 5, rng);
            expectTapeMatchesInterpreter(tr, records, model);
        }
}

/**
 * Flatness is a property of every row. Row 0, g0[c] = e[c] * w[0],
 * reads the sigmoids; row 1, g1[c] = g1[c - 1] * w[1] (g1[-1] being
 * g0's last element), reads its own earlier results, so it joins row 0
 * as a second row but must run in order, not as a vector loop.
 */
TEST(Tape, RowFlatnessHoldsForEveryRow)
{
    constexpr int64_t kCols = 9;
    dfg::Translation tr;
    dfg::Dfg &g = tr.dfg;
    std::vector<dfg::NodeId> e, w;
    for (int64_t c = 0; c < kCols; ++c)
        e.push_back(
            g.addOp(dfg::OpKind::Sigmoid, g.addDataInput(c, {})));
    for (int64_t i = 0; i < 2 * kCols; ++i)
        w.push_back(g.addModelInput(i, {}));
    dfg::NodeId prev = dfg::kInvalidNode;
    for (int64_t c = 0; c < kCols; ++c) {
        prev = g.addOp(dfg::OpKind::Mul, e[c], w[0]);
        g.markGradient(prev, c, {});
    }
    for (int64_t c = 0; c < kCols; ++c) {
        prev = g.addOp(dfg::OpKind::Mul, prev, w[1]);
        g.markGradient(prev, kCols + c, {});
    }
    tr.recordWords = kCols;
    tr.modelWords = 2 * kCols;
    tr.gradientWords = 2 * kCols;
    tr.minibatch = 1;

    EXPECT_EQ(dfg::Tape(tr).segmentCount(), 2);
    Rng rng(91);
    const auto [records, model] = dotInputs(tr, 5, rng);
    expectTapeMatchesInterpreter(tr, records, model);
}

/** Seeded sweep over nest shapes and opcodes, inputs laced with
 *  signed zeros, +-1e9 and the Q16.16 ceiling. */
TEST(Tape, OuterProductRowsRandomSweep)
{
    constexpr dfg::OpKind kOps[] = {dfg::OpKind::Add, dfg::OpKind::Sub,
                                    dfg::OpKind::Mul};
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const Nest n{.rows = rng.integer(1, 20),
                     .cols = rng.integer(1, 20),
                     .op = kOps[rng.integer(0, 2)],
                     .descending = rng.coin(),
                     .broadcast = rng.coin(),
                     .chained = rng.coin()};
        const auto tr = outerNest(n);
        const auto [records, model] =
            dotInputs(tr, rng.integer(1, 11), rng, 0.25);
        expectTapeMatchesInterpreter(tr, records, model);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * A dot tree whose leaves advance by one stride in node order but not
 * once the operations are numbered in execution order: its leaves
 * alternate between two interleaved chains (sigmoid and negation of
 * the same records), which lowering emits chain by chain. The tree is
 * then emitted as its products and adds, bit-exact against the
 * Interpreter; fused it would leave four segments.
 */
TEST(Tape, DotTreeOverTransposedChainsStaysExact)
{
    constexpr int64_t kReps = 6;
    dfg::Translation tr;
    dfg::Dfg &g = tr.dfg;
    std::vector<dfg::NodeId> y, w;
    for (int64_t r = 0; r < kReps; ++r) {
        const auto x = g.addDataInput(r, {});
        y.push_back(g.addOp(dfg::OpKind::Sigmoid, x));
        y.push_back(g.addOp(dfg::OpKind::Neg, x));
    }
    for (int64_t l = 0; l < 2 * kReps; ++l)
        w.push_back(g.addModelInput(l, {}));
    std::vector<dfg::NodeId> products;
    for (int64_t l = 0; l < 2 * kReps; ++l)
        products.push_back(g.addOp(dfg::OpKind::Mul, y[l], w[l]));
    const dfg::NodeId root = pairwiseSum(g, products);
    for (int64_t l = 0; l < 2 * kReps; ++l)
        g.markGradient(g.addOp(dfg::OpKind::Sub, w[l], root), l, {});
    tr.recordWords = kReps;
    tr.modelWords = 2 * kReps;
    tr.gradientWords = 2 * kReps;
    tr.minibatch = 1;

    EXPECT_GT(dfg::Tape(tr).segmentCount(), 4);
    Rng rng(97);
    const auto [records, model] = dotInputs(tr, 7, rng, 0.25);
    expectTapeMatchesInterpreter(tr, records, model);
}

/** An emulated training run: holdout loss per epoch + final model. */
struct Trajectory
{
    std::vector<double> epochLoss;
    std::vector<double> model;
};

/**
 * Serial interpreter emulation of the runtime's parallelized SGD,
 * mirroring its construction exactly: @p workers independent
 * sub-models per node (one per accelerator thread in the seed, one per
 * SGD shard when sgdShardsPerNode is set), the same contiguous record
 * split, the same local averaging and global aggregation math.
 */
Trajectory
emulateTrajectory(const ml::Workload &w, double scale,
                  const sys::ClusterConfig &cfg, int epochs, int workers)
{
    auto tr = translateWorkload(w, scale);
    Rng rng(cfg.seed);
    int64_t holdout = std::min<int64_t>(128, cfg.recordsPerNode);
    auto full = ml::DatasetGenerator::generate(
        w, scale, cfg.nodes * cfg.recordsPerNode + holdout, rng);
    std::vector<ml::Dataset> parts;
    for (int i = 0; i < cfg.nodes; ++i)
        parts.push_back(full.partition(i * cfg.recordsPerNode,
                                       cfg.recordsPerNode));
    auto held = full.partition(cfg.nodes * cfg.recordsPerNode, holdout);

    Rng model_rng(cfg.seed + 1);
    auto model = ml::DatasetGenerator::initialModel(w, scale, model_rng);
    ml::Reference ref(w, scale);
    dfg::Interpreter interp(tr);

    Trajectory out;
    out.epochLoss.push_back(ref.meanLoss(held.data, held.count, model));
    std::vector<int64_t> cursors(cfg.nodes, 0);
    int64_t iters_per_epoch =
        (cfg.recordsPerNode + cfg.minibatchPerNode - 1) /
        cfg.minibatchPerNode;

    for (int e = 0; e < epochs; ++e) {
        for (int64_t it = 0; it < iters_per_epoch; ++it) {
            std::vector<double> next(model.size(), 0.0);
            for (int node = 0; node < cfg.nodes; ++node) {
                int64_t batch = std::min(cfg.minibatchPerNode,
                                         parts[node].count);
                int64_t per = (batch + workers - 1) / workers;
                std::vector<double> update(model.size(), 0.0);
                for (int t = 0; t < workers; ++t) {
                    std::vector<double> local(model), grad;
                    int64_t first = cursors[node] + t * per;
                    int64_t last = std::min(cursors[node] + batch,
                                            first + per);
                    for (int64_t r = first; r < last; ++r) {
                        int64_t idx = r % parts[node].count;
                        interp.run(parts[node].record(idx), local,
                                   grad);
                        for (int64_t i = 0; i < tr.gradientWords; ++i)
                            local[i] -= cfg.learningRate * grad[i];
                    }
                    for (size_t i = 0; i < update.size(); ++i)
                        update[i] += local[i];
                }
                for (auto &v : update)
                    v /= workers;
                cursors[node] =
                    (cursors[node] + batch) % parts[node].count;
                for (size_t i = 0; i < next.size(); ++i)
                    next[i] += update[i];
            }
            for (auto &v : next)
                v /= cfg.nodes;
            model = std::move(next);
        }
        out.epochLoss.push_back(
            ref.meanLoss(held.data, held.count, model));
    }
    out.model = std::move(model);
    return out;
}

void
expectMatchesTrajectory(const sys::TrainingReport &report,
                        const Trajectory &want)
{
    ASSERT_EQ(report.epochLoss.size(), want.epochLoss.size());
    for (size_t i = 0; i < want.epochLoss.size(); ++i)
        EXPECT_NEAR(report.epochLoss[i], want.epochLoss[i], 1e-9)
            << "epoch " << i;
    ASSERT_EQ(report.finalModel.size(), want.model.size());
    for (size_t i = 0; i < want.model.size(); ++i)
        EXPECT_NEAR(report.finalModel[i], want.model[i], 1e-9)
            << "model element " << i;
}

/**
 * End-to-end: the persistent-worker runtime (tape + thread pools) must
 * reproduce the parallelized-SGD trajectory of a serial re-computation
 * with the Interpreter — same worker split, same record order, same
 * local and global aggregation math as the seed implementation.
 */
TEST(Tape, ClusterTrajectoryMatchesInterpreterEmulation)
{
    const auto &w = ml::Workload::byName("tumor");
    const double scale = 64.0;
    sys::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.groups = 1;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.learningRate = 0.4;

    sys::ClusterRuntime runtime(w, scale, cfg);
    const int epochs = 2;
    auto report = runtime.train(epochs);

    auto want = emulateTrajectory(w, scale, cfg, epochs,
                                  cfg.acceleratorThreadsPerNode);
    expectMatchesTrajectory(report, want);
}

/**
 * Decoupling shards from threads: with sgdShardsPerNode set, the
 * training math follows the shard count, never the thread packing.
 * threads=1 sweeps all 4 shards on one thread; threads=3 splits them
 * into groups of 2. Both must match the serial 4-worker emulation —
 * and, since every shard is the same scalar sweep, match each other
 * to the last bit.
 */
TEST(Tape, ShardedClusterTrajectoryIndependentOfThreadCount)
{
    const auto &w = ml::Workload::byName("tumor");
    const double scale = 64.0;
    sys::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.groups = 1;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.learningRate = 0.4;
    cfg.sgdShardsPerNode = 4;

    const int epochs = 2;
    auto want = emulateTrajectory(w, scale, cfg, epochs,
                                  cfg.sgdShardsPerNode);

    cfg.acceleratorThreadsPerNode = 1;
    sys::ClusterRuntime one_runtime(w, scale, cfg);
    auto one_report = one_runtime.train(epochs);
    expectMatchesTrajectory(one_report, want);

    cfg.acceleratorThreadsPerNode = 3;
    sys::ClusterRuntime three_runtime(w, scale, cfg);
    auto three_report = three_runtime.train(epochs);
    expectMatchesTrajectory(three_report, want);

    ASSERT_EQ(one_report.finalModel.size(),
              three_report.finalModel.size());
    for (size_t i = 0; i < one_report.finalModel.size(); ++i)
        EXPECT_EQ(one_report.finalModel[i], three_report.finalModel[i])
            << "1- and 3-thread shard packings diverged at " << i;
}

TEST(Tape, TrainingReportCarriesPerfCounters)
{
    sys::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.groups = 1;
    cfg.minibatchPerNode = 16;
    cfg.recordsPerNode = 32;
    sys::ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0,
                                cfg);
    auto report = runtime.train(1);
    ASSERT_EQ(report.iterationStats.size(),
              report.iterationSeconds.size());
    for (size_t i = 0; i < report.iterationStats.size(); ++i) {
        const sys::IterationStats &it = report.iterationStats[i];
        EXPECT_GT(it.records / report.iterationSeconds[i], 0.0);
        EXPECT_GE(it.maxAggregationSec, 0.0);
        EXPECT_LE(it.maxAggregationSec,
                  report.iterationSeconds[i] * 1.5 + 0.01);
    }
}

} // namespace
} // namespace cosmic
