/**
 * @file
 * JIT backend correctness: bit-exact equivalence of the dlopen'ed
 * native kernels against the interpreter tape across the whole
 * benchmark suite × {F64, Q16.16}, kernel cache behaviour (in-memory and on-disk hits), the COSMIC_TAPE_JIT /
 * COSMIC_JIT_CC knobs, graceful degradation when the toolchain is
 * missing or broken, and cluster-level trajectories on both
 * transports.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <tuple>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/pipeline.h"
#include "dfg/tape.h"
#include "jit/kernel_cache.h"
#include "ml/dataset.h"
#include "ml/templates.h"
#include "ml/workloads.h"
#include "net/transport.h"
#include "system/cluster_runtime.h"

namespace cosmic {
namespace {

/** setenv/unsetenv with restore, so tests cannot leak knob state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_ = false;
};

dfg::Translation
translateWorkload(const ml::Workload &w, double scale)
{
    return compile::translateSource(w.dslSource(scale));
}

/** Smallest Table-1 scale divisor whose tape stays under ~4k
 *  instructions: every workload's op mix is exercised natively while
 *  each kernel compile stays in the seconds range (the matrix models
 *  at 1/64 would otherwise spend minutes in the C toolchain). */
double
jitTestScale(const ml::Workload &w)
{
    for (double scale : {64.0, 256.0}) {
        auto tr = translateWorkload(w, scale);
        if (dfg::Tape(tr).instructionCount() <= 4000)
            return scale;
    }
    return 1024.0;
}

/**
 * Native runBatch (and sgdSweep, where the tape has a sweep form)
 * against the interpreter tape over @p count records, F64 and Q16.16.
 */
void
expectNativeBitExact(const dfg::Translation &tr,
                     std::span<const double> records, int64_t count,
                     const std::vector<double> &model)
{
    const bool has_sweep = tr.gradientWords == tr.modelWords;
    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        SCOPED_TRACE(quantizer ? "Q16.16" : "F64");
        dfg::Tape interp_tape(tr, quantizer, dfg::TapeBackend::Interp);
        dfg::Tape jit_tape(tr, quantizer, dfg::TapeBackend::Jit);
        dfg::TapeExecutor interp_exec(interp_tape);
        dfg::TapeExecutor jit_exec(jit_tape);
        ASSERT_FALSE(interp_exec.prepareNative());

        ASSERT_TRUE(jit_exec.prepareNative()) << "kernel resolution failed";
        ASSERT_TRUE(jit_exec.nativeActive());

        std::vector<double> want(tr.gradientWords, 0.0);
        std::vector<double> got(tr.gradientWords, 0.0);
        interp_exec.runBatch(records, count, model, want);
        jit_exec.runBatch(records, count, model, got);
        for (int64_t i = 0; i < tr.gradientWords; ++i)
            ASSERT_EQ(got[i], want[i]) << "gradient element " << i;

        if (!has_sweep)
            continue;
        std::vector<double> want_model(model), got_model(model);
        interp_exec.sgdSweep(records, count, want_model, 0.05);
        jit_exec.sgdSweep(records, count, got_model, 0.05);
        for (int64_t i = 0; i < tr.modelWords; ++i)
            ASSERT_EQ(got_model[i], want_model[i]) << "model element " << i;
    }
}

/**
 * The full bit-exactness matrix, one workload per test case, with a
 * record count that leaves a remainder after the kernel's 8-record
 * lane loop.
 */
class JitEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(JitEquivalence, NativeKernelsBitExactVsInterpreterTape)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    const auto &w = ml::Workload::byName(GetParam());
    const double scale = jitTestScale(w);
    auto tr = translateWorkload(w, scale);

    Rng rng(17);
    // 11 records: one 8-record lane group plus a 3-record remainder
    // through the native kernel.
    auto ds = ml::DatasetGenerator::generate(w, scale, 11, rng);
    auto model = ml::DatasetGenerator::initialModel(w, scale, rng);
    expectNativeBitExact(tr, ds.data, ds.count, model);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, JitEquivalence,
    ::testing::Values("mnist", "acoustic", "stock", "texture", "tumor",
                      "cancer1", "movielens", "netflix", "face",
                      "cancer2"),
    [](const auto &info) { return info.param; });

/**
 * Independent sweeps through one executor, as a node's thread runs
 * its SGD shards: ragged record counts, each shard's own model. The
 * native sweeps must match the interpreter tape's bit for bit.
 */
TEST(Jit, ShardSweepsBitExactVsInterpreterTape)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    const auto &w = ml::Workload::byName("stock");
    auto tr = translateWorkload(w, 64.0);
    Rng rng(29);
    auto ds = ml::DatasetGenerator::generate(w, 64.0, 64, rng);
    auto model0 = ml::DatasetGenerator::initialModel(w, 64.0, rng);

    for (double (*quantizer)(double) :
         {static_cast<double (*)(double)>(nullptr),
          &accel::quantizeToFixed}) {
        dfg::Tape interp_tape(tr, quantizer, dfg::TapeBackend::Interp);
        dfg::Tape jit_tape(tr, quantizer, dfg::TapeBackend::Jit);
        dfg::TapeExecutor interp_exec(interp_tape);
        dfg::TapeExecutor jit_exec(jit_tape);
        int64_t off = 0;
        for (int shard = 0; shard < 8; ++shard) {
            const int64_t count = 5 + shard % 3; // ragged
            const std::span<const double> recs(
                ds.data.data() + off * tr.recordWords,
                count * tr.recordWords);
            off += count;
            std::vector<double> want(model0), got(model0);
            interp_exec.sgdSweep(recs, count, want, 0.05);
            jit_exec.sgdSweep(recs, count, got, 0.05);
            ASSERT_TRUE(jit_exec.nativeActive());
            for (int64_t i = 0; i < tr.modelWords; ++i)
                ASSERT_EQ(got[i], want[i])
                    << "shard " << shard << " element " << i
                    << (quantizer ? " (quantized)" : " (exact)");
        }
    }
}

/**
 * The JIT twin of Tape.IrregularGradientsMatchInterpreter. Gradients
 * that are a model input, a constant, one operation twice and an
 * absent node leave the tape without a gradient region, so the kernel
 * reads every gradient through its own slot; the model-input gradient
 * must be read before the sweep's update lands.
 */
TEST(Jit, IrregularGradientsBitExactVsInterpreterTape)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
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
    g.markGradient(act, 4, {}); // gradient 3 stays absent
    tr.recordWords = 1;
    tr.modelWords = 5;
    tr.gradientWords = 5;
    tr.minibatch = 1;
    ASSERT_EQ(g.gradientNodes()[3], dfg::kInvalidNode);
    ASSERT_FALSE(dfg::Tape(tr).hasGradientRegion());

    // 11 records: one 8-record lane group plus a remainder.
    const std::vector<double> records = {0.75, -1.5,  2.0,   0.125,
                                         -0.5, 3.25,  -2.75, 1.0,
                                         0.0,  -0.25, 1.625};
    const std::vector<double> model = {0.3, -0.7, 0.25, 1.0, -2.0};
    expectNativeBitExact(tr, records, std::ssize(records), model);
}

/**
 * Tapes of at most 64 instructions, a range that once had an emitter
 * mode of its own, through the one emitter: suite templates small
 * enough to fit, over 11 records (an 8-record lane group plus a
 * remainder).
 */
TEST(Jit, SmallTapesBitExactVsInterpreterTape)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    const std::string sources[] = {
        ml::templates::logisticRegression(6, 8),
        ml::templates::svm(4, 8),
        ml::templates::huberRegression(4, 8),
        ml::templates::mlp(2, 3, 1, 8),
    };
    for (const std::string &src : sources) {
        auto tr = compile::translateSource(src);
        SCOPED_TRACE(src);
        ASSERT_LE(dfg::Tape(tr).instructionCount(), 64);
        Rng rng(31);
        std::vector<double> records(11 * tr.recordWords);
        std::vector<double> model(tr.modelWords);
        for (double &v : records)
            v = rng.uniform(-1.0, 1.0);
        for (double &v : model)
            v = rng.uniform(-0.5, 0.5);
        expectNativeBitExact(tr, records, 11, model);
    }
}

TEST(Jit, EnvParserIsStrict)
{
    EXPECT_FALSE(dfg::parseTapeJitEnv("0"));
    EXPECT_TRUE(dfg::parseTapeJitEnv("1"));
    EXPECT_THROW(dfg::parseTapeJitEnv(""), CosmicError);
    EXPECT_THROW(dfg::parseTapeJitEnv("yes"), CosmicError);
    EXPECT_THROW(dfg::parseTapeJitEnv("01"), CosmicError);
    EXPECT_THROW(dfg::parseTapeJitEnv(" 1"), CosmicError);
    try {
        dfg::parseTapeJitEnv("2");
        FAIL() << "value 2 must be rejected";
    } catch (const CosmicError &e) {
        EXPECT_NE(std::string(e.what()).find("COSMIC_TAPE_JIT"),
                  std::string::npos)
            << "error must name the knob: " << e.what();
    }
}

TEST(Jit, EnvOverrideWinsOverBackendChoice)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    auto tr = translateWorkload(ml::Workload::byName("stock"), 64.0);
    dfg::Tape interp_tape(tr, nullptr, dfg::TapeBackend::Interp);
    dfg::Tape jit_tape(tr, nullptr, dfg::TapeBackend::Jit);
    {
        // A set COSMIC_TAPE_JIT=1 turns the jit on even for an
        // explicit interpreter choice...
        ScopedEnv env("COSMIC_TAPE_JIT", "1");
        dfg::TapeExecutor exec(interp_tape);
        EXPECT_TRUE(exec.prepareNative());
    }
    {
        // ...and =0 turns it off even for an explicit jit choice.
        ScopedEnv env("COSMIC_TAPE_JIT", "0");
        dfg::TapeExecutor exec(jit_tape);
        EXPECT_FALSE(exec.prepareNative());
        EXPECT_FALSE(exec.nativeActive());
    }
    {
        // Unset: the backend choice decides.
        ScopedEnv env("COSMIC_TAPE_JIT", nullptr);
        dfg::TapeExecutor exec(jit_tape);
        EXPECT_TRUE(exec.prepareNative());
    }
}

TEST(Jit, KernelCacheHitsInMemoryThenOnDisk)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    const std::string dir =
        ::testing::TempDir() + "cosmic-jit-cache-test";
    // A leftover dir from an earlier run would turn the expected cold
    // miss into a disk hit.
    std::filesystem::remove_all(dir);
    ScopedEnv env("COSMIC_JIT_CACHE_DIR", dir.c_str());
    auto &cache = jit::KernelCache::instance();
    cache.clearInMemory();

    auto tr = translateWorkload(ml::Workload::byName("tumor"), 16.0);
    dfg::Tape tape(tr, &accel::quantizeToFixed, dfg::TapeBackend::Jit);

    // Cold: one toolchain invocation.
    auto first = cache.acquire(tape);
    ASSERT_NE(first, nullptr);
    jit::JitStats s = cache.stats();
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.hits, 0);
    EXPECT_GT(s.compileMs, 0.0);

    // Same tape shape again: in-memory hit, same kernel object.
    dfg::Tape same(tr, &accel::quantizeToFixed, dfg::TapeBackend::Jit);
    auto second = cache.acquire(same);
    EXPECT_EQ(second.get(), first.get());
    s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.diskHits, 0);
    EXPECT_EQ(s.misses, 1);

    // Warm process restart (simulated): the .so is dlopen'ed from
    // disk, the toolchain never runs.
    first.reset();
    second.reset();
    cache.clearInMemory();
    auto warm = cache.acquire(tape);
    ASSERT_NE(warm, nullptr);
    s = cache.stats();
    EXPECT_EQ(s.misses, 0);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.diskHits, 1);

    cache.clearInMemory();
}

TEST(Jit, BrokenToolchainFallsBackToInterpreterTape)
{
    auto tr = translateWorkload(ml::Workload::byName("stock"), 64.0);

    Rng rng(41);
    auto ds = ml::DatasetGenerator::generate(
        ml::Workload::byName("stock"), 64.0, 8, rng);
    auto model = ml::DatasetGenerator::initialModel(
        ml::Workload::byName("stock"), 64.0, rng);

    // Reference gradients through the interpreter tape.
    dfg::Tape interp_tape(tr, nullptr, dfg::TapeBackend::Interp);
    dfg::TapeExecutor interp_exec(interp_tape);
    std::vector<double> want(tr.gradientWords, 0.0);
    interp_exec.runBatch(ds.data, ds.count, model, want);

    ScopedEnv env("COSMIC_JIT_CC", "/nonexistent/cosmic-broken-cc");
    const int64_t fallbacks_before =
        jit::KernelCache::instance().stats().fallbacks;

    dfg::Tape jit_tape(tr, nullptr, dfg::TapeBackend::Jit);
    dfg::TapeExecutor jit_exec(jit_tape);
    // No crash, no silent cliff: the batch still completes (on the
    // interpreter tape), the degradation is counted.
    EXPECT_FALSE(jit_exec.prepareNative());
    EXPECT_FALSE(jit_exec.nativeActive());
    std::vector<double> got(tr.gradientWords, 0.0);
    jit_exec.runBatch(ds.data, ds.count, model, got);
    for (int64_t i = 0; i < tr.gradientWords; ++i)
        ASSERT_EQ(got[i], want[i]) << "gradient element " << i;

    const compile::BuildCacheStats stats =
        compile::BuildCache::instance().stats();
    EXPECT_GT(stats.jitFallbacks, fallbacks_before);
}

TEST(Jit, BrokenToolchainClusterTrainingStillCompletes)
{
    ScopedEnv env("COSMIC_JIT_CC", "/nonexistent/cosmic-broken-cc");
    sys::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.groups = 1;
    cfg.minibatchPerNode = 16;
    cfg.recordsPerNode = 32;
    cfg.compile.tapeBackend = dfg::TapeBackend::Jit;
    sys::ClusterRuntime runtime(ml::Workload::byName("stock"), 64.0,
                                cfg);
    auto report = runtime.train(1);
    EXPECT_EQ(report.epochLoss.size(), 2u);
    EXPECT_GT(jit::KernelCache::instance().stats().fallbacks, 0);
}

/** Cluster-level: jit and interpreter backends must produce
 *  bit-identical trajectories on both transports. */
void
expectJitClusterBitIdentical(net::TransportKind transport)
{
    if (!jit::KernelCache::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain in this environment";
    sys::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.groups = 1;
    cfg.acceleratorThreadsPerNode = 2;
    cfg.minibatchPerNode = 32;
    cfg.recordsPerNode = 64;
    cfg.learningRate = 0.4;
    cfg.aggregation.deterministic = true;
    cfg.transport.kind = transport;

    cfg.compile.tapeBackend = dfg::TapeBackend::Interp;
    sys::ClusterRuntime interp_runtime(ml::Workload::byName("tumor"),
                                       64.0, cfg);
    auto want = interp_runtime.train(2);

    cfg.compile.tapeBackend = dfg::TapeBackend::Jit;
    sys::ClusterRuntime jit_runtime(ml::Workload::byName("tumor"),
                                    64.0, cfg);
    auto got = jit_runtime.train(2);

    ASSERT_EQ(got.epochLoss.size(), want.epochLoss.size());
    for (size_t i = 0; i < want.epochLoss.size(); ++i)
        EXPECT_EQ(got.epochLoss[i], want.epochLoss[i]) << "epoch " << i;
    ASSERT_EQ(got.finalModel.size(), want.finalModel.size());
    for (size_t i = 0; i < want.finalModel.size(); ++i)
        ASSERT_EQ(got.finalModel[i], want.finalModel[i])
            << "model element " << i;
}

TEST(Jit, ClusterTrajectoryBitIdenticalInProcess)
{
    expectJitClusterBitIdentical(net::TransportKind::InProcess);
}

TEST(Jit, ClusterTrajectoryBitIdenticalOverTcp)
{
    expectJitClusterBitIdentical(net::TransportKind::Tcp);
}

} // namespace
} // namespace cosmic
