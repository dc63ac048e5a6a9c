/**
 * @file
 * Compile-pipeline tests: the DFG optimizations of the rewrite stage,
 * the content-hashed build cache, and the pipeline's stage artifacts.
 *
 * The load-bearing guarantee: every pass leaves trained trajectories
 * bit-exact against the unoptimized graph — in the quantized (Q16.16)
 * datapath as well as plain doubles — for all Table 1 workloads, on
 * the interpreter and the tape's SGD sweep and batch call.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>

#include "accel/fixed_point.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "dfg/rewrite.h"
#include "dfg/tape.h"
#include "kernel_compare.h"
#include "ml/dataset.h"
#include "ml/workloads.h"

namespace cosmic::compile {
namespace {

compiler::CompileOptions
passesOff()
{
    return compiler::CompileOptions{}.withDfgPasses(false);
}

/** Runs the rewrite engine with only @p patterns enabled. */
dfg::PassOutcome
runPatterns(dfg::Translation &tr, std::vector<std::string> patterns)
{
    dfg::RewriteOptions options;
    options.patterns = std::move(patterns);
    return dfg::rewriteFixpoint(tr, options).shape;
}

// ---------------------------------------------------------------- passes

TEST(DfgPasses, CseMergesDuplicateSubtrees)
{
    // The inner w[0]*x[0] is value-numbered away by the builder, but
    // the (mul + 1) and sigmoid(...) pairs survive translation as
    // duplicates — CSE must merge both.
    auto tr = translateSource(R"(
        model_input x[1];
        model w[1];
        gradient g[1];
        iterator i[0:1];
        g[i] = sigmoid(w[i] * x[i] + 1) + sigmoid(w[i] * x[i] + 1);
    )",
                              passesOff());
    auto before = tr.dfg.size();
    auto outcome = runPatterns(tr, {"cse"});
    EXPECT_TRUE(outcome.changed());
    EXPECT_EQ(outcome.nodesBefore, before);
    EXPECT_EQ(outcome.nodesAfter, before - 2);
}

TEST(DfgPasses, DeadNodeEliminationRemovesUnreachableNodes)
{
    // `u` is never consumed by a gradient: the mul (and the constant 3
    // it holds) must go, while the live chain stays intact.
    auto tr = translateSource(R"(
        model_input x[2];
        model w[2];
        gradient g[2];
        iterator i[0:2];
        u = x[0] * 3;
        g[i] = w[i] * x[i];
    )",
                              passesOff());
    auto live = translateSource(R"(
        model_input x[2];
        model w[2];
        gradient g[2];
        iterator i[0:2];
        g[i] = w[i] * x[i];
    )",
                                passesOff());
    auto outcome = runPatterns(tr, {"dead-node-elim"});
    EXPECT_TRUE(outcome.changed());
    EXPECT_EQ(tr.dfg.size(), live.dfg.size());
    EXPECT_EQ(tr.dfg.operationCount(), live.dfg.operationCount());
}

TEST(DfgPasses, ConstantFoldingFoldsExactProducts)
{
    // 2*3 = 6 is exact in Q16.16: the mul folds to a constant and the
    // now-dead operand constants are swept by DNE.
    auto tr = translateSource(R"(
        model_input x[1];
        model w[1];
        gradient g[1];
        iterator i[0:1];
        g[i] = w[i] * (2 * 3);
    )",
                              passesOff());
    auto fold = runPatterns(tr, {"fold-constants"});
    EXPECT_TRUE(fold.changed());
    runPatterns(tr, {"dead-node-elim"});
    // Remaining operation: the single live mul by the folded 6.
    EXPECT_EQ(tr.dfg.operationCount(), 1);
}

TEST(DfgPasses, ConstantFoldingRespectsQuantizedSemantics)
{
    // 0.7*0.7 is NOT exact in Q16.16: Q(0.49) differs from
    // Q(Q(0.7)*Q(0.7)), so the quantizer-safety guard must refuse the
    // fold — the quantized datapath evaluates the mul at runtime.
    double qa = accel::roundQ16(0.7);
    double folded = accel::roundQ16(0.7 * 0.7);
    double staged = accel::roundQ16(qa * qa);
    ASSERT_NE(folded, staged)
        << "test premise: 0.7*0.7 must round differently when staged";

    auto tr = translateSource(R"(
        model_input x[1];
        model w[1];
        gradient g[1];
        iterator i[0:1];
        g[i] = w[i] * (0.7 * 0.7);
    )",
                              passesOff());
    auto ops_before = tr.dfg.operationCount();
    runPatterns(tr, {"fold-constants"});
    EXPECT_EQ(tr.dfg.operationCount(), ops_before)
        << "quantizer-unsafe fold must be rejected";
}

TEST(DfgPasses, PipelineReportRecordsPassDeltas)
{
    // Default options run the optimize stage through the rewrite
    // framework: one "rewrite" pass entry plus per-pattern counters.
    PipelineReport report;
    auto tr = translateSource(R"(
        model_input x[1];
        model w[1];
        gradient g[1];
        iterator i[0:1];
        g[i] = sigmoid(w[i] * x[i] + 1) + sigmoid(w[i] * x[i] + 1) +
               w[i] * (2 * 3);
    )",
                              {}, &report);
    EXPECT_EQ(report.dfgPassCount(), 1);
    ASSERT_NE(report.pass("rewrite"), nullptr);
    EXPECT_LT(report.pass("rewrite")->nodesAfter,
              report.pass("rewrite")->nodesBefore);
    EXPECT_GE(report.rewriteSweeps, 1);
    int64_t cse_hits = 0, fold_hits = 0;
    for (const auto &p : report.patternHits) {
        if (p.name == "cse")
            cse_hits = p.hits;
        if (p.name == "fold-constants")
            fold_hits = p.hits;
    }
    EXPECT_GE(cse_hits, 1) << "the duplicate sigmoid chain must merge";
    EXPECT_GE(fold_hits, 1) << "2*3 must fold";
    ASSERT_NE(report.pass("parse"), nullptr);
    EXPECT_FALSE(report.table().empty());
    (void)tr;
}

// ----------------------------------------------------------- build cache

TEST(BuildCacheTest, IdenticalInputsHit)
{
    auto &cache = BuildCache::instance();
    auto src = ml::Workload::byName("tumor").dslSource(64.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();

    cache.clear();
    auto base = cache.stats();
    auto a = buildCached(src, platform);
    auto b = buildCached(src, platform);
    EXPECT_EQ(a.get(), b.get()) << "identical inputs share the artifact";
    auto stats = cache.stats();
    EXPECT_EQ(stats.misses - base.misses, 1);
    EXPECT_GE(stats.hits - base.hits, 1);
}

TEST(BuildCacheTest, DifferingOptionMisses)
{
    auto &cache = BuildCache::instance();
    auto src = ml::Workload::byName("tumor").dslSource(64.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();

    cache.clear();
    auto a = buildCached(src, platform);
    compiler::CompileOptions other;
    other.strategy = compiler::MappingStrategy::OperationFirst;
    auto b = buildCached(src, platform, other);
    EXPECT_NE(a.get(), b.get()) << "options are part of the cache key";

    auto base = cache.stats();
    auto c = buildCached(src, platform, other);
    EXPECT_EQ(b.get(), c.get());
    EXPECT_EQ(cache.stats().hits - base.hits, 1);
}

TEST(BuildCacheTest, FrontendKeyIgnoresBackendKnobs)
{
    auto &cache = BuildCache::instance();
    auto src = ml::Workload::byName("stock").dslSource(64.0);
    cache.clear();
    compiler::CompileOptions a, b;
    b.strategy = compiler::MappingStrategy::OperationFirst;
    b.forceThreads = 2;
    b.forceRowsPerThread = 2;
    auto fa = translateCached(src, a);
    auto fb = translateCached(src, b);
    EXPECT_EQ(fa.get(), fb.get())
        << "backend knobs must not fragment the frontend cache";
    compiler::CompileOptions off = passesOff();
    auto fc = translateCached(src, off);
    EXPECT_NE(fa.get(), fc.get()) << "pass flags are frontend key";
}

TEST(BuildCacheTest, ConcurrentBuildsConverge)
{
    auto &cache = BuildCache::instance();
    auto src = ml::Workload::byName("cancer1").dslSource(64.0);
    auto platform = accel::PlatformSpec::ultrascalePlus();
    cache.clear();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const BuildArtifact>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { got[t] = buildCached(src, platform); });
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get())
            << "all racers must adopt one immutable artifact";
}

TEST(BuildCacheTest, FingerprintSeparatesInputs)
{
    auto platform = accel::PlatformSpec::ultrascalePlus();
    auto a = buildFingerprint("model w[1];", platform, {});
    auto b = buildFingerprint("model w[2];", platform, {});
    EXPECT_NE(a, b);
}

// ------------------------------------------------------ stage artifacts

TEST(PipelineStages, LazyStagesRunOnce)
{
    auto src = ml::Workload::byName("tumor").dslSource(64.0);
    Pipeline pipeline(src, accel::PlatformSpec::ultrascalePlus());
    const auto &plan = pipeline.planned();
    EXPECT_GE(plan.plan.threads, 1);
    // Asking again must not re-run (and re-time) earlier stages.
    auto passes = pipeline.report().passes.size();
    pipeline.planned();
    pipeline.optimized();
    EXPECT_EQ(pipeline.report().passes.size(), passes);
    EXPECT_NE(pipeline.report().contentHash, 0u);

    // translationAt exposes the stage boundaries: the raw graph is at
    // least as large as the optimized one.
    const auto &raw = pipeline.translationAt(Stage::Translate);
    const auto &opt = pipeline.translationAt(Stage::Optimize);
    EXPECT_GE(raw.dfg.size(), opt.dfg.size());
}

TEST(PipelineStages, TapeRowKeepsTheDfgEdgeCount)
{
    // Lowering to the tape rewrites no edges: the row reports the
    // instruction count as its nodes and the DFG's edges unchanged.
    auto src = ml::Workload::byName("tumor").dslSource(64.0);
    Pipeline pipeline(src, accel::PlatformSpec::ultrascalePlus());
    const auto &tape = pipeline.tape();
    const PassStats *row = pipeline.report().pass("tape");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->nodesAfter, tape.instructionCount());
    EXPECT_EQ(row->edgesBefore, dfg::edgeCount(pipeline.optimized().dfg));
    EXPECT_EQ(row->edgesAfter, row->edgesBefore);
}

TEST(PipelineStages, LaterStagesReportTheOptimizedEdgeCount)
{
    // plan, map and tape report the optimized graph's edges: the
    // rewrite's count when it ran (it changes stock's graph), the
    // translate pass's when it did not.
    for (int sweeps : {8, 0}) {
        SCOPED_TRACE(sweeps);
        compiler::CompileOptions options;
        options.rewriteMaxSweeps = sweeps;
        auto src = ml::Workload::byName("stock").dslSource(16.0);
        Pipeline pipeline(src, accel::PlatformSpec::ultrascalePlus(),
                          options);
        pipeline.mapped();
        pipeline.tape();
        const int64_t edges = dfg::edgeCount(pipeline.optimized().dfg);
        EXPECT_EQ(pipeline.report().pass("rewrite") != nullptr,
                  sweeps > 0);
        for (const char *stage : {"plan", "map", "tape"}) {
            const PassStats *row = pipeline.report().pass(stage);
            ASSERT_NE(row, nullptr) << stage;
            EXPECT_EQ(row->edgesBefore, edges) << stage;
            EXPECT_EQ(row->edgesAfter, edges) << stage;
        }
    }
}

TEST(PipelineStages, MappedReusesThePlannersKernel)
{
    for (const char *name : {"stock", "tumor", "mnist", "acoustic",
                             "movielens"}) {
        SCOPED_TRACE(name);
        auto src = ml::Workload::byName(name).dslSource(16.0);
        Pipeline pipeline(src, accel::PlatformSpec::ultrascalePlus());
        const auto &plan = pipeline.planned();
        const auto &kernel = pipeline.mapped();
        // No recompile: the map stage hands out the planner's kernel.
        EXPECT_EQ(&kernel, &plan.kernel);
        // Its Thread Index Table is the chosen plan's, not the first
        // thread count the planner explored.
        EXPECT_EQ(static_cast<int>(kernel.memory.threadTable.size()),
                  plan.plan.threads);
        compiler::expectSameKernel(
            kernel, compiler::KernelCompiler::compile(
                        pipeline.optimized(), plan.plan,
                        pipeline.options()));
    }
}

TEST(PipelineStages, StageNamesRoundTrip)
{
    for (auto stage : {Stage::Parse, Stage::Translate, Stage::Optimize,
                       Stage::Plan, Stage::Map, Stage::Tape}) {
        Stage parsed;
        ASSERT_TRUE(stageFromName(stageName(stage), parsed));
        EXPECT_EQ(parsed, stage);
    }
    Stage out;
    EXPECT_FALSE(stageFromName("nonsense", out));
}

// ------------------------------------------------- bit-exact trajectories

/** Trains a few SGD epochs through the interpreter; returns the model. */
std::vector<double>
interpTrajectory(const dfg::Translation &tr, const ml::Workload &w,
                 double scale, accel::Numeric numeric)
{
    dfg::Interpreter interp(tr, numeric);
    Rng rng(123);
    auto ds = ml::DatasetGenerator::generate(w, scale, 24, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    std::vector<double> grad;
    for (int epoch = 0; epoch < 2; ++epoch)
        for (int64_t r = 0; r < ds.count; ++r) {
            interp.run(ds.record(r), model, grad);
            for (size_t p = 0; p < model.size(); ++p)
                model[p] -= 0.05 * grad[p];
        }
    return model;
}

/** Tape SGD sweep trajectory. */
std::vector<double>
tapeSweepTrajectory(const dfg::Translation &tr, const ml::Workload &w,
                    double scale, accel::Numeric numeric)
{
    dfg::Tape tape(tr, numeric);
    dfg::TapeExecutor exec(tape);
    Rng rng(123);
    auto ds = ml::DatasetGenerator::generate(w, scale, 24, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    for (int epoch = 0; epoch < 2; ++epoch)
        exec.sgdSweep(ds.data, ds.count, model, 0.05);
    return model;
}

/** Tape minibatch-gradient trajectory. */
std::vector<double>
tapeBatchTrajectory(const dfg::Translation &tr, const ml::Workload &w,
                    double scale, accel::Numeric numeric)
{
    dfg::Tape tape(tr, numeric);
    dfg::TapeExecutor exec(tape);
    Rng rng(123);
    auto ds = ml::DatasetGenerator::generate(w, scale, 24, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    std::vector<double> grad(tr.gradientWords, 0.0);
    for (int step = 0; step < 2; ++step) {
        std::fill(grad.begin(), grad.end(), 0.0);
        exec.runBatch(ds.data, ds.count, model, grad);
        for (size_t p = 0; p < model.size(); ++p)
            model[p] -= 0.01 * grad[p];
    }
    return model;
}

using TrajectoryFn = std::vector<double> (*)(const dfg::Translation &,
                                             const ml::Workload &,
                                             double,
                                             accel::Numeric);

/**
 * Asserts that the rewritten graph reproduces the raw graph's
 * trajectory bit-for-bit.
 */
void
expectRewriteBitExact(const std::string &workload, TrajectoryFn traj,
                      const char *label)
{
    const auto &w = ml::Workload::byName(workload);
    const double scale = 64.0;
    auto plain = translateSource(w.dslSource(scale), passesOff());
    auto rewritten = translateSource(w.dslSource(scale));
    ASSERT_LE(rewritten.dfg.size(), plain.dfg.size());

    for (accel::Numeric numeric :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        SCOPED_TRACE(accel::numericName(numeric));
        auto a = traj(plain, w, scale, numeric);
        auto b = traj(rewritten, w, scale, numeric);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_TRUE(
                std::memcmp(&a[i], &b[i], sizeof(double)) == 0)
                << label << " rewrite model word " << i << ": "
                << a[i] << " vs " << b[i];
        }
    }
}

class PassesAreBitExact : public ::testing::TestWithParam<std::string>
{};

TEST_P(PassesAreBitExact, OnAllExecutionModes)
{
    expectRewriteBitExact(GetParam(), &interpTrajectory, "interp");
    expectRewriteBitExact(GetParam(), &tapeSweepTrajectory, "tape-sweep");
    expectRewriteBitExact(GetParam(), &tapeBatchTrajectory, "tape-batch");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PassesAreBitExact,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : ml::Workload::suite())
            names.push_back(w.name);
        return names;
    }()),
    [](const auto &info) { return info.param; });

// --------------------------------------------- rewrite-stage goldens

/**
 * Golden node/edge-count deltas per Table 1 workload at scale 64: the
 * raw translation's shape and what the rewrite stage leaves behind.
 * These pin the optimizer's effect — a pattern regressing to a no-op
 * (or over-firing) moves a column and fails loudly here.
 */
TEST(RewriteGolden, WorkloadShapeDeltas)
{
    struct Golden
    {
        const char *name;
        int64_t raw_nodes, opt_nodes, raw_edges, opt_edges;
    };
    // clang-format off
    const Golden table[] = {
        {"mnist",      1383,  1383,   2170,   2170},
        {"acoustic",   4319,  4319,   7045,   7045},
        {"stock",       754,   626,   1002,    750},
        {"texture",    1540,  1281,   2050,   1536},
        {"tumor",       159,   157,    189,    187},
        {"cancer1",     474,   472,    567,    565},
        {"movielens", 28660, 28660,  46980,  46980},
        {"netflix",   69591, 69591, 114080, 114080},
        {"face",        196,   167,    302,    246},
        {"cancer2",     784,   671,   1226,   1002},
    };
    // clang-format on
    for (const auto &g : table) {
        SCOPED_TRACE(g.name);
        const auto &w = ml::Workload::byName(g.name);
        auto raw = translateSource(w.dslSource(64.0), passesOff());
        auto opt = translateSource(w.dslSource(64.0));
        EXPECT_EQ(raw.dfg.size(), g.raw_nodes);
        EXPECT_EQ(opt.dfg.size(), g.opt_nodes);
        EXPECT_EQ(dfg::edgeCount(raw.dfg), g.raw_edges);
        EXPECT_EQ(dfg::edgeCount(opt.dfg), g.opt_edges);
    }
}

/**
 * Every new algebraic pattern earns a nonzero hit counter on at least
 * one Table 1 workload (the template design points each pattern
 * reduces away).
 */
TEST(RewriteGolden, PatternsFireOnTable1Workloads)
{
    auto pattern_hits = [](const char *workload) {
        PipelineReport report;
        translateSource(ml::Workload::byName(workload).dslSource(64.0),
                        {}, &report);
        std::map<std::string, int64_t> hits;
        for (const auto &p : report.patternHits)
            hits[p.name] = p.hits;
        return hits;
    };
    auto stock = pattern_hits("stock"); // linreg: e*x*pow(1,2)
    EXPECT_GE(stock["pow-expand"], 1);
    EXPECT_GE(stock["fold-constants"], 1);
    EXPECT_GE(stock["mul-one"], 1);
    EXPECT_GE(stock["dead-node-elim"], 1);

    auto tumor = pattern_hits("tumor"); // logreg: sigmoid(s) + 0
    EXPECT_GE(tumor["add-zero"], 1);

    auto face = pattern_hits("face"); // svm: -(-(m<1)), c ? ... : c*0
    EXPECT_GE(face["double-neg"], 1);
    EXPECT_GE(face["mul-zero"], 1);
}

} // namespace
} // namespace cosmic::compile
