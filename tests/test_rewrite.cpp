/**
 * @file
 * Rewrite-framework tests: each registered pattern's match/replace on
 * minimal hand-built DFGs, the guard rejections that keep Q16.16
 * trajectories bit-exact, fixpoint termination under the sweep budget,
 * hit-counter reconciliation against PipelineReport, the strict
 * enabled-pattern set, the rewrite budget in the build-cache key, the
 * audit regressions for the shared guards, and the engine's own
 * mechanisms: the open-addressed CSE table and sweeps that leave the
 * graph alone.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "dfg/rewrite.h"
#include "ml/templates.h"

namespace cosmic {
namespace {

/** Wraps a hand-built graph into a Translation the engine accepts. */
dfg::Translation
finishGraph(dfg::Dfg &&g, const std::vector<dfg::NodeId> &grads,
            int64_t record_words, int64_t model_words)
{
    for (size_t i = 0; i < grads.size(); ++i)
        g.markGradient(grads[i], static_cast<int64_t>(i), {});
    dfg::Translation tr;
    tr.dfg = std::move(g);
    tr.recordWords = record_words;
    tr.modelWords = model_words;
    tr.gradientWords = static_cast<int64_t>(grads.size());
    tr.minibatch = 1;
    return tr;
}

dfg::RewriteOutcome
run(dfg::Translation &tr, std::vector<std::string> patterns,
    int max_sweeps = 8)
{
    dfg::RewriteOptions options;
    options.patterns = std::move(patterns);
    options.maxSweeps = max_sweeps;
    return dfg::rewriteFixpoint(tr, options);
}

int64_t
hitsFor(const dfg::RewriteOutcome &outcome, const std::string &name)
{
    for (const auto &p : outcome.patterns)
        if (p.name == name)
            return p.hits;
    ADD_FAILURE() << "pattern '" << name << "' missing from outcome";
    return -1;
}

// ------------------------------------------------------------- patterns

TEST(RewritePattern, MulOneEliminatesBothOrientations)
{
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto one = g.addConst(1.0);
        auto m = g.addOp(dfg::OpKind::Mul, x, one);
        auto tr = finishGraph(std::move(g), {m}, 1, 0);
        auto outcome = run(tr, {"mul-one", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "mul-one"), 1);
        EXPECT_EQ(tr.dfg.operationCount(), 0);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Input);
        // The orphaned 1.0 constant is the cleanup pattern's hit.
        EXPECT_EQ(hitsFor(outcome, "dead-node-elim"), 1);
        EXPECT_FALSE(outcome.budgetExhausted);
    }
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto one = g.addConst(1.0);
        auto m = g.addOp(dfg::OpKind::Mul, one, x);
        auto tr = finishGraph(std::move(g), {m}, 1, 0);
        auto outcome = run(tr, {"mul-one", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "mul-one"), 1);
        EXPECT_EQ(tr.dfg.operationCount(), 0);
    }
}

TEST(RewritePattern, AddZeroRequiresNotNegZeroProof)
{
    // sigmoid(x) can never be -0.0, so + 0.0 is removable...
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto s = g.addOp(dfg::OpKind::Sigmoid, x);
        auto zero = g.addConst(0.0);
        auto a = g.addOp(dfg::OpKind::Add, s, zero);
        auto tr = finishGraph(std::move(g), {a}, 1, 0);
        auto outcome = run(tr, {"add-zero", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "add-zero"), 1);
        EXPECT_EQ(tr.dfg.operationCount(), 1);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Sigmoid);
    }
    // ...but a raw input may hold -0.0, where -0 + 0 flips to +0.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto zero = g.addConst(0.0);
        auto a = g.addOp(dfg::OpKind::Add, x, zero);
        auto tr = finishGraph(std::move(g), {a}, 1, 0);
        auto outcome = run(tr, {"add-zero", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "add-zero"), 0);
        EXPECT_EQ(tr.dfg.operationCount(), 1);
    }
}

TEST(RewritePattern, AddNegativeZeroAddendIsUnconditional)
{
    // x + -0.0 == x bitwise for every double, proof or not.
    dfg::Dfg g;
    auto x = g.addDataInput(0, {});
    auto neg_zero = g.addConst(-0.0);
    ASSERT_TRUE(std::signbit(g.constValue(neg_zero)))
        << "test premise: the graph's zero constant must be -0.0";
    auto a = g.addOp(dfg::OpKind::Add, x, neg_zero);
    auto tr = finishGraph(std::move(g), {a}, 1, 0);
    auto outcome = run(tr, {"add-zero", "dead-node-elim"});
    EXPECT_EQ(hitsFor(outcome, "add-zero"), 1);
    EXPECT_EQ(tr.dfg.operationCount(), 0);
    EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
              dfg::OpKind::Input);
}

TEST(RewritePattern, MulZeroNeedsFiniteNonNegativeProof)
{
    // A comparison result is provably in {0.0, 1.0}: cmp * 0 -> 0.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto w = g.addModelInput(0, {});
        auto cmp = g.addOp(dfg::OpKind::CmpGt, x, w);
        auto zero = g.addConst(0.0);
        auto m = g.addOp(dfg::OpKind::Mul, cmp, zero);
        auto tr = finishGraph(std::move(g), {m}, 1, 1);
        auto outcome = run(tr, {"mul-zero", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "mul-zero"), 1);
        auto grad = tr.dfg.gradientNodes()[0];
        EXPECT_EQ(tr.dfg.node(grad).op, dfg::OpKind::Const);
        EXPECT_EQ(tr.dfg.constValue(grad), 0.0);
        EXPECT_FALSE(std::signbit(tr.dfg.constValue(grad)));
    }
    // A raw input could be negative (-2 * 0 = -0.0), infinite or NaN:
    // the rewrite must decline.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto zero = g.addConst(0.0);
        auto m = g.addOp(dfg::OpKind::Mul, x, zero);
        auto tr = finishGraph(std::move(g), {m}, 1, 0);
        auto outcome = run(tr, {"mul-zero", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "mul-zero"), 0);
        EXPECT_EQ(tr.dfg.operationCount(), 1);
    }
}

TEST(RewritePattern, DoubleNegNeedsNonNegativityProof)
{
    // abs(x) is provably non-negative: -(-abs(x)) -> abs(x).
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto ab = g.addOp(dfg::OpKind::Abs, x);
        auto n1 = g.addOp(dfg::OpKind::Neg, ab);
        auto n2 = g.addOp(dfg::OpKind::Neg, n1);
        auto tr = finishGraph(std::move(g), {n2}, 1, 0);
        auto outcome = run(tr, {"double-neg", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "double-neg"), 1);
        EXPECT_EQ(tr.dfg.operationCount(), 1);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Abs);
    }
    // An unproven x can sit at the most negative Q16.16 value, where
    // negation saturates asymmetrically: -(-x) != x quantized.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto n1 = g.addOp(dfg::OpKind::Neg, x);
        auto n2 = g.addOp(dfg::OpKind::Neg, n1);
        auto tr = finishGraph(std::move(g), {n2}, 1, 0);
        auto outcome = run(tr, {"double-neg", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "double-neg"), 0);
        EXPECT_EQ(tr.dfg.operationCount(), 2);
    }
}

TEST(RewritePattern, PowExpandHandlesSmallIntegerExponents)
{
    // x^0 is 1.0 for every x (the runtime loop runs zero times).
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto k = g.addConst(0.0);
        auto p = g.addOp(dfg::OpKind::Pow, x, k);
        auto tr = finishGraph(std::move(g), {p}, 1, 0);
        auto outcome = run(tr, {"pow-expand", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "pow-expand"), 1);
        auto grad = tr.dfg.gradientNodes()[0];
        EXPECT_EQ(tr.dfg.node(grad).op, dfg::OpKind::Const);
        EXPECT_EQ(tr.dfg.constValue(grad), 1.0);
        EXPECT_EQ(tr.dfg.operationCount(), 0);
    }
    // x^1 evaluates 1.0 * x at runtime, which is bitwise x.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto k = g.addConst(1.0);
        auto p = g.addOp(dfg::OpKind::Pow, x, k);
        auto tr = finishGraph(std::move(g), {p}, 1, 0);
        auto outcome = run(tr, {"pow-expand", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "pow-expand"), 1);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Input);
    }
    // x^2 becomes a single mul (the runtime's (1*x)*x == x*x).
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto k = g.addConst(2.0);
        auto p = g.addOp(dfg::OpKind::Pow, x, k);
        auto tr = finishGraph(std::move(g), {p}, 1, 0);
        auto outcome = run(tr, {"pow-expand", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "pow-expand"), 1);
        auto grad = tr.dfg.gradientNodes()[0];
        EXPECT_EQ(tr.dfg.node(grad).op, dfg::OpKind::Mul);
        EXPECT_EQ(tr.dfg.node(grad).a, tr.dfg.node(grad).b);
    }
}

TEST(RewritePattern, PowExpandRejectsUnsafeExponents)
{
    // k >= 3 would insert intermediate quantizations
    // (Q(Q(x*x)*x) != Q(x^3)); fractional and negative exponents take
    // the exp/log path and have no exact expansion at all.
    for (double k : {3.0, 4.0, 0.5, -1.0}) {
        SCOPED_TRACE(k);
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto kc = g.addConst(k);
        auto p = g.addOp(dfg::OpKind::Pow, x, kc);
        auto tr = finishGraph(std::move(g), {p}, 1, 0);
        auto outcome = run(tr, {"pow-expand", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "pow-expand"), 0);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Pow);
    }
}

TEST(RewritePattern, FoldConstantsFoldsExactRejectsInexact)
{
    // 2*3 = 6 is exact in Q16.16: folds to a constant.
    {
        dfg::Dfg g;
        auto w = g.addModelInput(0, {});
        auto c2 = g.addConst(2.0);
        auto c3 = g.addConst(3.0);
        auto m = g.addOp(dfg::OpKind::Mul, c2, c3);
        auto outer = g.addOp(dfg::OpKind::Mul, w, m);
        auto tr = finishGraph(std::move(g), {outer}, 0, 1);
        auto outcome = run(tr, {"fold-constants", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "fold-constants"), 1);
        EXPECT_EQ(tr.dfg.operationCount(), 1);
        auto grad = tr.dfg.gradientNodes()[0];
        EXPECT_EQ(tr.dfg.constValue(tr.dfg.node(grad).b), 6.0);
    }
    // Q(0.7*0.7) != Q(Q(0.7)*Q(0.7)): the quantizer guard refuses.
    {
        dfg::Dfg g;
        auto w = g.addModelInput(0, {});
        auto c = g.addConst(0.7);
        auto m = g.addOp(dfg::OpKind::Mul, c, c);
        auto outer = g.addOp(dfg::OpKind::Mul, w, m);
        auto tr = finishGraph(std::move(g), {outer}, 0, 1);
        auto outcome = run(tr, {"fold-constants", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "fold-constants"), 0);
        EXPECT_EQ(tr.dfg.operationCount(), 2);
    }
}

TEST(RewritePattern, FoldSelectGuardsQuantizedTruthiness)
{
    // Q(1e-9) == 0: the F64 datapath takes the then-branch but the
    // quantized one takes the else-branch — no single folded pick is
    // right for both, so the pattern must decline.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto cond = g.addConst(1e-9);
        auto s1 = g.addOp(dfg::OpKind::Sigmoid, x);
        auto s2 = g.addOp(dfg::OpKind::Exp, x);
        auto sel = g.addOp(dfg::OpKind::Select, cond, s1, s2);
        auto tr = finishGraph(std::move(g), {sel}, 1, 0);
        auto outcome = run(tr, {"fold-constants", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "fold-constants"), 0);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Select);
    }
    // A condition that stays truthy after quantization folds away.
    {
        dfg::Dfg g;
        auto x = g.addDataInput(0, {});
        auto cond = g.addConst(2.0);
        auto s1 = g.addOp(dfg::OpKind::Sigmoid, x);
        auto s2 = g.addOp(dfg::OpKind::Exp, x);
        auto sel = g.addOp(dfg::OpKind::Select, cond, s1, s2);
        auto tr = finishGraph(std::move(g), {sel}, 1, 0);
        auto outcome = run(tr, {"fold-constants", "dead-node-elim"});
        EXPECT_EQ(hitsFor(outcome, "fold-constants"), 1);
        EXPECT_EQ(tr.dfg.node(tr.dfg.gradientNodes()[0]).op,
                  dfg::OpKind::Sigmoid);
        // The untaken branch and the condition die with the Select.
        EXPECT_EQ(tr.dfg.operationCount(), 1);
        EXPECT_GE(hitsFor(outcome, "dead-node-elim"), 2);
    }
}

TEST(RewritePattern, CseMergesDuplicatesKeepsDistinctOps)
{
    dfg::Dfg g;
    auto x = g.addDataInput(0, {});
    auto w = g.addModelInput(0, {});
    auto m = g.addOp(dfg::OpKind::Mul, x, w);
    // Interim operands defeat the builder's leaf value numbering, so
    // these two adds really are duplicate nodes...
    auto a1 = g.addOp(dfg::OpKind::Add, m, x);
    auto a2 = g.addOp(dfg::OpKind::Add, m, x);
    ASSERT_NE(a1, a2) << "test premise: the builder must not merge";
    // ...while the sub shares their operands but not their op.
    auto s1 = g.addOp(dfg::OpKind::Sub, m, x);
    auto top = g.addOp(dfg::OpKind::Add, a2, s1);
    auto root = g.addOp(dfg::OpKind::Add, top, a1);
    auto tr = finishGraph(std::move(g), {root}, 1, 1);
    auto before = tr.dfg.size();
    auto outcome = run(tr, {"cse", "dead-node-elim"});
    EXPECT_EQ(hitsFor(outcome, "cse"), 1);
    EXPECT_EQ(tr.dfg.size(), before - 1);
    EXPECT_EQ(outcome.shape.nodesBefore, before);
    EXPECT_EQ(outcome.shape.nodesAfter, before - 1);
}

TEST(RewritePattern, CseTableMergesLikePairwiseCompareUnderCollisions)
{
    // Data inputs, their negations (distinct leaf ops), then binary
    // ops over the negations, which the builder does not value-number.
    // Every key is picked so that its home slot is among the last 8 of
    // the table the engine sizes for this graph; with more than 8
    // distinct keys there, the probe chains are long and wrap past the
    // end of the table.
    constexpr int kLeaves = 32;
    constexpr int kKeyNodes = 256;
    constexpr size_t kTail = 8;
    // The engine sizes the table for the source graph's op nodes.
    const size_t cap =
        dfg::ValueNumberTable::capacityFor(kLeaves + kKeyNodes);
    struct Key
    {
        dfg::OpKind op;
        dfg::NodeId a, b;
    };
    std::vector<Key> keys;
    for (auto op : {dfg::OpKind::Add, dfg::OpKind::Sub, dfg::OpKind::Mul,
                    dfg::OpKind::Min, dfg::OpKind::Max})
        for (dfg::NodeId i = kLeaves; i < 2 * kLeaves; ++i)
            for (dfg::NodeId j = kLeaves; j < 2 * kLeaves; ++j) {
                uint64_t h = dfg::ValueNumberTable::hash(op, i, j,
                                                         dfg::kInvalidNode);
                if ((h & (cap - 1)) >= cap - kTail && keys.size() < 24)
                    keys.push_back({op, i, j});
            }
    ASSERT_GT(keys.size(), kTail)
        << "test premise: more tail keys than tail slots, so probing wraps";

    dfg::Dfg g;
    for (int i = 0; i < kLeaves; ++i)
        g.addDataInput(i, {});
    for (dfg::NodeId i = 0; i < kLeaves; ++i)
        ASSERT_EQ(g.addOp(dfg::OpKind::Neg, i), kLeaves + i);
    std::vector<Key> sequence;
    for (int n = 0; n < kKeyNodes; ++n)
        sequence.push_back(keys[(n * 7 + n / 11) % keys.size()]);
    dfg::NodeId last = dfg::kInvalidNode;
    for (const Key &k : sequence)
        last = g.addOp(k.op, k.a, k.b);
    auto tr = finishGraph(std::move(g), {last}, kLeaves, 0);
    ASSERT_EQ(tr.dfg.size(), 2 * kLeaves + kKeyNodes)
        << "test premise: the builder must not merge the key nodes";

    // Brute force: a key node merges iff an earlier one has the same
    // fields; the survivors are the first occurrences, in order.
    auto same = [](const Key &x, const Key &y) {
        return x.op == y.op && x.a == y.a && x.b == y.b;
    };
    std::vector<Key> survivors;
    int64_t merges = 0;
    for (const Key &k : sequence) {
        bool seen = false;
        for (const Key &s : survivors)
            seen = seen || same(s, k);
        if (seen)
            ++merges;
        else
            survivors.push_back(k);
    }

    auto outcome = run(tr, {"cse"});
    EXPECT_EQ(hitsFor(outcome, "cse"), merges);
    ASSERT_EQ(tr.dfg.size(),
              2 * kLeaves + static_cast<int64_t>(survivors.size()));
    for (size_t i = 0; i < survivors.size(); ++i) {
        const dfg::Node &n =
            tr.dfg.node(static_cast<dfg::NodeId>(2 * kLeaves + i));
        EXPECT_TRUE(same({n.op, n.a, n.b}, survivors[i])) << "key " << i;
        EXPECT_EQ(n.c, dfg::kInvalidNode);
    }
}

// ------------------------------------------------- fixpoint and budget

TEST(RewriteFixpoint, CascadesAcrossSweepsToQuiescence)
{
    // pow(1, 2) needs three sweeps: pow-expand makes 1*1, the fold
    // collapses it to the existing 1.0 constant, and the last sweep
    // proves quiescence.
    dfg::Dfg g;
    auto c1 = g.addConst(1.0);
    auto c2 = g.addConst(2.0);
    auto p = g.addOp(dfg::OpKind::Pow, c1, c2);
    auto tr = finishGraph(std::move(g), {p}, 0, 0);
    auto outcome = run(tr, {});
    EXPECT_EQ(outcome.sweeps, 3);
    EXPECT_FALSE(outcome.budgetExhausted);
    EXPECT_EQ(hitsFor(outcome, "pow-expand"), 1);
    EXPECT_EQ(hitsFor(outcome, "fold-constants"), 1);
    EXPECT_EQ(hitsFor(outcome, "dead-node-elim"), 1);
    EXPECT_EQ(outcome.totalHits(), 3);
    auto grad = tr.dfg.gradientNodes()[0];
    EXPECT_EQ(tr.dfg.node(grad).op, dfg::OpKind::Const);
    EXPECT_EQ(tr.dfg.constValue(grad), 1.0);
    EXPECT_EQ(tr.dfg.size(), 1);
}

TEST(RewriteFixpoint, BudgetStopsAStillRewritingRun)
{
    dfg::Dfg g;
    auto c1 = g.addConst(1.0);
    auto c2 = g.addConst(2.0);
    auto p = g.addOp(dfg::OpKind::Pow, c1, c2);
    auto tr = finishGraph(std::move(g), {p}, 0, 0);
    auto outcome = run(tr, {}, /*max_sweeps=*/1);
    EXPECT_EQ(outcome.sweeps, 1);
    EXPECT_TRUE(outcome.budgetExhausted);
    // A second run from where the budget stopped still converges.
    auto again = run(tr, {});
    EXPECT_FALSE(again.budgetExhausted);
    EXPECT_EQ(tr.dfg.size(), 1);
}

TEST(RewriteFixpoint, AlreadyOptimalGraphConvergesInOneSweep)
{
    dfg::Dfg g;
    auto x = g.addDataInput(0, {7, 3});
    auto w = g.addModelInput(0, {1, 0});
    auto two = g.addConst(2.0);
    auto m = g.addOp(dfg::OpKind::Mul, x, w);
    auto s = g.addOp(dfg::OpKind::Add, m, two);
    auto e = g.addOp(dfg::OpKind::Exp, s);
    auto tr = finishGraph(std::move(g), {e, m}, 1, 1);
    const dfg::Dfg before = tr.dfg;
    const dfg::Node *storage = &tr.dfg.node(0);
    auto outcome = run(tr, {});
    EXPECT_EQ(&tr.dfg.node(0), storage)
        << "a quiet sweep must leave the graph in place, not rebuild it";
    EXPECT_EQ(outcome.sweeps, 1);
    EXPECT_EQ(outcome.totalHits(), 0);
    EXPECT_FALSE(outcome.budgetExhausted);
    // The quiet sweep hands the graph back node for node.
    ASSERT_EQ(tr.dfg.size(), before.size());
    for (dfg::NodeId v = 0; v < before.size(); ++v) {
        SCOPED_TRACE("node " + std::to_string(v));
        const dfg::Node &a = before.node(v);
        const dfg::Node &b = tr.dfg.node(v);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.category, b.category);
        EXPECT_EQ(a.a, b.a);
        EXPECT_EQ(a.b, b.b);
        EXPECT_EQ(a.c, b.c);
        EXPECT_EQ(before.elementRef(v).tensor,
                  tr.dfg.elementRef(v).tensor);
        EXPECT_EQ(before.elementRef(v).element,
                  tr.dfg.elementRef(v).element);
        if (a.op == dfg::OpKind::Const) {
            EXPECT_TRUE(dfg::bitEqualDouble(before.constValue(v),
                                            tr.dfg.constValue(v)));
        }
        if (a.op == dfg::OpKind::Input) {
            EXPECT_EQ(before.inputPos(v), tr.dfg.inputPos(v));
        }
    }
    EXPECT_EQ(tr.dfg.gradientNodes(), before.gradientNodes());
}

// --------------------------------------------- report reconciliation

TEST(RewriteReport, HitCountersReconcileWithPipelineReport)
{
    auto src = ml::templates::linearRegression(4, 8);
    compile::PipelineReport report;
    auto optimized = compile::translateSource(src, {}, &report);

    EXPECT_EQ(report.dfgPassCount(), 1);
    ASSERT_NE(report.pass("rewrite"), nullptr);
    EXPECT_GE(report.rewriteSweeps, 2);
    EXPECT_FALSE(report.rewriteBudgetExhausted);
    ASSERT_FALSE(report.patternHits.empty());

    // The pipeline's counters must match a fresh manual run over the
    // same raw graph, pattern for pattern.
    auto raw = compile::translateSource(
        src, compiler::CompileOptions{}.withDfgPasses(false));
    auto outcome = dfg::rewriteFixpoint(raw);
    ASSERT_EQ(report.patternHits.size(), outcome.patterns.size());
    for (size_t i = 0; i < outcome.patterns.size(); ++i) {
        EXPECT_EQ(report.patternHits[i].name, outcome.patterns[i].name);
        EXPECT_EQ(report.patternHits[i].hits, outcome.patterns[i].hits);
    }
    EXPECT_EQ(raw.dfg.size(), optimized.dfg.size());

    // The Table 1 linear-regression template exercises the new
    // algebraic patterns: pow(1, 2) expands, folds, and the mul-by-one
    // disappears.
    EXPECT_GE(hitsFor(outcome, "pow-expand"), 1);
    EXPECT_GE(hitsFor(outcome, "fold-constants"), 1);
    EXPECT_GE(hitsFor(outcome, "mul-one"), 1);

    // --dump-passes renders the same counters.
    auto table = report.table();
    EXPECT_NE(table.find("rewrite"), std::string::npos);
    EXPECT_NE(table.find("pow-expand"), std::string::npos);
    EXPECT_NE(table.find("fixpoint"), std::string::npos);
}

// ------------------------------------------------- enabled pattern set

TEST(RewriteConfig, ResolvePatternListIsStrictAndCanonical)
{
    const auto &all = dfg::registeredPatternNames();
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(all.front(), "pow-expand");
    EXPECT_EQ(all.back(), "dead-node-elim");

    const auto raw = compile::translateSource(
        ml::templates::linearRegression(3, 4),
        compiler::CompileOptions{}.withDfgPasses(false));
    auto enabled = [&](std::vector<std::string> patterns) {
        dfg::Translation tr = raw;
        std::vector<std::string> names;
        for (const auto &p : run(tr, std::move(patterns)).patterns)
            names.push_back(p.name);
        return names;
    };
    EXPECT_EQ(enabled({}), all);
    EXPECT_EQ(enabled({"dead-node-elim", "cse"}),
              (std::vector<std::string>{"cse", "dead-node-elim"}))
        << "registry order is imposed regardless of list order";
    EXPECT_EQ(enabled({"mul-one", "mul-one"}),
              (std::vector<std::string>{"mul-one"}))
        << "duplicates collapse";
    EXPECT_THROW(enabled({"csee"}), CosmicError)
        << "a misspelled pattern must abort, not silently disable";
}

TEST(RewriteConfig, EnabledPatternSetEntersBuildCacheKey)
{
    // The rewrite budget enters the key: a budget-0 frontend (no
    // rewrite stage) never hits on an optimized artifact.
    auto &cache = compile::BuildCache::instance();
    auto src = ml::templates::linearRegression(3, 4);
    cache.clear();
    std::shared_ptr<const compile::FrontendArtifact> plain =
        compile::translateCached(src);
    auto unoptimized = compile::translateCached(
        src, compiler::CompileOptions{}.withDfgPasses(false));
    EXPECT_NE(plain.get(), unoptimized.get())
        << "the rewrite budget must fragment the cache";
    EXPECT_NE(plain->report.pass("rewrite"), nullptr);
    EXPECT_EQ(unoptimized->report.pass("rewrite"), nullptr);
    EXPECT_LT(plain->translation.dfg.size(),
              unoptimized->translation.dfg.size());
    auto again = compile::translateCached(src);
    EXPECT_EQ(plain.get(), again.get());
}

// --------------------------------------------------- shared-guard audit

TEST(RewriteGuards, QuantizerSafeConstantRejectsHazards)
{
    EXPECT_FALSE(dfg::quantizerSafeConstant(
        std::numeric_limits<double>::quiet_NaN()));
    EXPECT_FALSE(dfg::quantizerSafeConstant(-0.0));
    EXPECT_TRUE(dfg::quantizerSafeConstant(0.0));
    EXPECT_TRUE(dfg::quantizerSafeConstant(-1.0));
    // Infinities are materializable: the quantizer saturates them the
    // same way whether they are loaded or computed.
    EXPECT_TRUE(dfg::quantizerSafeConstant(
        std::numeric_limits<double>::infinity()));
}

TEST(RewriteGuards, ConstDedupMotivatesTheNegZeroGuard)
{
    // The builder's by-value constant cache cannot tell -0.0 from 0.0
    // (they compare equal): whichever arrives first wins the slot.
    // That is exactly why a fold may never *produce* a -0.0 constant.
    dfg::Dfg g;
    auto z0 = g.addConst(0.0);
    auto z1 = g.addConst(-0.0);
    EXPECT_EQ(z0, z1);
    EXPECT_FALSE(std::signbit(g.constValue(z0)));
}

TEST(RewriteGuards, QuantizerSafeFoldMatchesStagedRuntime)
{
    using dfg::OpKind;
    // Exact in Q16.16: accepted.
    EXPECT_TRUE(dfg::quantizerSafeFold(OpKind::Mul, 2.0, 3.0, 0.0, 6.0));
    // Q(0.49) != Q(Q(0.7) * Q(0.7)): rejected.
    EXPECT_FALSE(
        dfg::quantizerSafeFold(OpKind::Mul, 0.7, 0.7, 0.0, 0.7 * 0.7));
    // inf - inf folds to NaN: rejected by the constant guard.
    double inf = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(
        dfg::quantizerSafeFold(OpKind::Sub, inf, inf, 0.0, inf - inf));
    // The guarded divide (b == 0 -> 1e-12) saturates identically when
    // folded or staged: accepted.
    double folded = dfg::evaluateOp(OpKind::Div, 1.0, 0.0, 0.0);
    EXPECT_TRUE(dfg::quantizerSafeFold(OpKind::Div, 1.0, 0.0, 0.0,
                                       folded));
}

TEST(RewriteGuards, CseRequiresFullFieldMatch)
{
    // Same operands, different op: never merged (the value-number
    // table compares every field, not just the hash).
    dfg::Dfg g;
    auto x = g.addDataInput(0, {});
    auto w = g.addModelInput(0, {});
    auto m = g.addOp(dfg::OpKind::Mul, x, w);
    auto a1 = g.addOp(dfg::OpKind::Add, m, x);
    auto s1 = g.addOp(dfg::OpKind::Sub, m, x);
    auto top = g.addOp(dfg::OpKind::Add, a1, s1);
    auto tr = finishGraph(std::move(g), {top}, 1, 1);
    auto outcome = run(tr, {"cse", "dead-node-elim"});
    EXPECT_EQ(outcome.totalHits(), 0);
    EXPECT_EQ(tr.dfg.operationCount(), 4);
}

} // namespace
} // namespace cosmic
