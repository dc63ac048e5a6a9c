/**
 * @file
 * Tape executor correctness: bit-exact gradient equivalence against the
 * Interpreter (with and without the fixed-point quantizer) across the
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
 *  at two scales, with and without the Q16.16 quantizer. */
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

    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        dfg::Interpreter interp(tr, quantizer);
        dfg::Tape tape(tr, quantizer);
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
                    << (quantizer ? " (quantized)" : " (exact)");
        }
    }
}

/**
 * runBatch must be bit-exact against the scalar per-record path for
 * odd record counts (3 and 11), with the quantizer both off and on.
 */
TEST_P(TapeEquivalence, LaneBatchBitExactVsScalarWithRemainder)
{
    const auto &w = ml::Workload::byName(std::get<0>(GetParam()));
    const double scale = std::get<1>(GetParam());
    auto tr = translateWorkload(w, scale);

    Rng rng(13);
    auto ds = ml::DatasetGenerator::generate(w, scale, 11, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        dfg::Tape tape(tr, quantizer);
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
                    << " records"
                    << (quantizer ? " (quantized)" : " (exact)");
        }
    }
}

/**
 * The scalar sgdSweep (model resident in its slot region, one
 * contiguous update per record) must be bit-exact against the
 * interpreter's gradient followed by an explicit per-record SGD step,
 * with and without the quantizer.
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

    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        dfg::Interpreter interp(tr, quantizer);
        std::vector<double> want(model), grad;
        for (int64_t r = 0; r < ds.count; ++r) {
            interp.run(ds.record(r), want, grad);
            for (int64_t i = 0; i < tr.gradientWords; ++i)
                want[i] -= mu * grad[i];
        }

        dfg::Tape tape(tr, quantizer);
        EXPECT_TRUE(tape.hasGradientRegion())
            << "every suite gradient is a distinct operation node";
        dfg::TapeExecutor exec(tape);
        std::vector<double> got(model);
        exec.sgdSweep(ds.data, ds.count, got, mu);
        for (int64_t i = 0; i < tr.modelWords; ++i)
            ASSERT_EQ(got[i], want[i])
                << "model element " << i
                << (quantizer ? " (quantized)" : " (exact)");
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
    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        SCOPED_TRACE(quantizer ? "Q16.16" : "F64");
        dfg::Interpreter interp(tr, quantizer);
        dfg::Tape tape(tr, quantizer);
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
 * transposed into a handful of segments, and mnist's dot trees must
 * fold its layers into dot segments.
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
    auto mnist = translateWorkload(ml::Workload::byName("mnist"), 8.0);
    EXPECT_LE(dfg::Tape(mnist).segmentCount(), 224);
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
        // x advances with the operation slots of one repetition.
        const int64_t step = sigmoid ? 4 : 3;
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
    ASSERT_EQ(report.recordsPerSecond.size(),
              report.iterationSeconds.size());
    ASSERT_EQ(report.aggregationWaitSeconds.size(),
              report.iterationSeconds.size());
    for (size_t i = 0; i < report.recordsPerSecond.size(); ++i) {
        EXPECT_GT(report.recordsPerSecond[i], 0.0);
        EXPECT_GE(report.aggregationWaitSeconds[i], 0.0);
        EXPECT_LE(report.aggregationWaitSeconds[i],
                  report.iterationSeconds[i] * 1.5 + 0.01);
    }
}

} // namespace
} // namespace cosmic
