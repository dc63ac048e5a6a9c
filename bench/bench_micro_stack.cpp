/**
 * @file
 * Micro-benchmarks (google-benchmark) of the stack's building blocks:
 * DSL parsing, translation, mapping, scheduling, interpretation, and
 * the system-software primitives. These are wall-clock measurements of
 * the library itself, not paper figures.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "dfg/rewrite.h"
#include "dfg/tape.h"
#include "jit/kernel_cache.h"
#include "ml/dataset.h"
#include "ml/workloads.h"
#include "planner/planner.h"
#include "system/aggregation.h"
#include "system/circular_buffer.h"
#include "system/thread_pool.h"

using namespace cosmic;

namespace {

const ml::Workload &
faceWorkload()
{
    return ml::Workload::byName("face");
}

void
BM_DslParse(benchmark::State &state)
{
    std::string src = faceWorkload().dslSource();
    for (auto _ : state) {
        compile::Pipeline pipeline(src);
        benchmark::DoNotOptimize(&pipeline.parsed());
    }
    state.SetBytesProcessed(state.iterations() * src.size());
}
BENCHMARK(BM_DslParse);

void
BM_Frontend(benchmark::State &state)
{
    // Parse + translate + DFG passes, uncached (the cache would turn
    // every iteration after the first into a lookup).
    std::string src = faceWorkload().dslSource(state.range(0));
    for (auto _ : state) {
        auto tr = compile::translateSource(src);
        benchmark::DoNotOptimize(&tr);
        state.counters["nodes"] = static_cast<double>(tr.dfg.size());
    }
}
BENCHMARK(BM_Frontend)->Arg(1)->Arg(8);

void
BM_FrontendCacheHit(benchmark::State &state)
{
    // Warm-cache frontend: one lookup in the content-hashed build
    // cache instead of a parse + translate + passes run.
    std::string src = faceWorkload().dslSource(8);
    compile::translateCached(src);
    for (auto _ : state) {
        auto frontend = compile::translateCached(src);
        benchmark::DoNotOptimize(frontend.get());
    }
}
BENCHMARK(BM_FrontendCacheHit);

void
BM_BuildCacheHit(benchmark::State &state)
{
    // Warm-cache full build (frontend + plan + map + tape).
    auto platform = accel::PlatformSpec::ultrascalePlus();
    std::string src = faceWorkload().dslSource(8);
    compile::buildCached(src, platform);
    for (auto _ : state) {
        auto build = compile::buildCached(src, platform);
        benchmark::DoNotOptimize(build.get());
    }
}
BENCHMARK(BM_BuildCacheHit);

void
BM_MapDataFirst(benchmark::State &state)
{
    auto tr = compile::translateSource(faceWorkload().dslSource());
    auto plan = planner::Planner::makePlan(
        tr, accel::PlatformSpec::ultrascalePlus(), 4,
        static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto m = compiler::Mapper::map(
            tr.dfg, plan, compiler::MappingStrategy::DataFirst);
        benchmark::DoNotOptimize(&m);
    }
    state.SetItemsProcessed(state.iterations() *
                            tr.dfg.operationCount());
}
BENCHMARK(BM_MapDataFirst)->Arg(2)->Arg(12);

void
BM_Schedule(benchmark::State &state)
{
    auto tr = compile::translateSource(faceWorkload().dslSource());
    auto plan = planner::Planner::makePlan(
        tr, accel::PlatformSpec::ultrascalePlus(), 4,
        static_cast<int>(state.range(0)));
    auto mapping = compiler::Mapper::map(
        tr.dfg, plan, compiler::MappingStrategy::DataFirst);
    compiler::InterconnectModel bus(compiler::BusKind::Hierarchical,
                                    plan.columns, plan.rowsPerThread);
    for (auto _ : state) {
        auto sched = compiler::Scheduler::schedule(tr.dfg, mapping, bus);
        benchmark::DoNotOptimize(&sched);
    }
    state.SetItemsProcessed(state.iterations() *
                            tr.dfg.operationCount());
}
BENCHMARK(BM_Schedule)->Arg(2)->Arg(12);

void
BM_InterpretRecord(benchmark::State &state)
{
    const auto &w = faceWorkload();
    auto tr = compile::translateSource(w.dslSource());
    dfg::Interpreter interp(tr);
    Rng rng(1);
    auto ds = ml::DatasetGenerator::generate(w, 1.0, 4, rng);
    auto model = ml::DatasetGenerator::initialModel(w, 1.0, rng);
    std::vector<double> grad;
    int64_t r = 0;
    for (auto _ : state) {
        interp.run(ds.record(r++ % ds.count), model, grad);
        benchmark::DoNotOptimize(grad.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            tr.dfg.operationCount());
}
BENCHMARK(BM_InterpretRecord);

void
BM_CircularBuffer(benchmark::State &state)
{
    sys::CircularBuffer ring(64);
    std::vector<double> payload(1024, 1.0);
    sys::Chunk chunk{0, 0, payload.data(),
                     static_cast<int64_t>(payload.size()), -1};
    for (auto _ : state) {
        ring.push(chunk);
        sys::Chunk out;
        ring.pop(out);
        benchmark::DoNotOptimize(out.values);
    }
    state.SetBytesProcessed(state.iterations() * 1024 * 8);
}
BENCHMARK(BM_CircularBuffer);

void
BM_ThreadPoolDispatch(benchmark::State &state)
{
    sys::ThreadPool pool(2);
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            pool.submit([] {});
        pool.waitIdle();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolDispatch);

void
BM_AggregationRound(benchmark::State &state)
{
    sys::AggregationConfig config;
    sys::AggregationEngine engine(config);
    const int senders = 4;
    const int64_t words = state.range(0);
    std::vector<double> payload(words, 1.0);
    for (auto _ : state) {
        engine.begin(words, 0);
        for (int s = 0; s < senders; ++s)
            engine.onMessage(sys::Message{s, 0, payload});
        auto sum = engine.finish();
        benchmark::DoNotOptimize(sum.data());
    }
    state.SetBytesProcessed(state.iterations() * senders * words * 8);
}
BENCHMARK(BM_AggregationRound)->Arg(4096)->Arg(65536);

void
BM_RewriteFixpoint(benchmark::State &state)
{
    // The rewrite stage alone: fixpoint over a fresh copy of the raw
    // graph each iteration (every enabled pattern, default budget).
    auto raw = compile::translateSource(
        faceWorkload().dslSource(state.range(0)),
        compiler::CompileOptions{}.withDfgPasses(false));
    for (auto _ : state) {
        auto tr = raw;
        auto outcome = dfg::rewriteFixpoint(tr);
        benchmark::DoNotOptimize(&outcome);
        state.counters["sweeps"] = static_cast<double>(outcome.sweeps);
        state.counters["hits"] =
            static_cast<double>(outcome.totalHits());
    }
    state.SetItemsProcessed(state.iterations() * raw.dfg.size());
}
BENCHMARK(BM_RewriteFixpoint)->Arg(1)->Arg(8);

void
BM_JitAcquireWarm(benchmark::State &state)
{
    // Warm-path cost of the native-kernel cache: re-emit the C source,
    // hash it, and hit the in-memory kernel map. The first call pays
    // the one-off cold compile (or a disk dlopen if a previous run left
    // the .so behind); every timed iteration after that is a lookup.
    if (!jit::KernelCache::toolchainAvailable()) {
        state.SkipWithError("no jit toolchain");
        return;
    }
    auto tr = compile::translateSource(faceWorkload().dslSource(8));
    dfg::Tape tape(tr);
    jit::KernelCache::instance().acquire(tape);
    for (auto _ : state) {
        auto kernel = jit::KernelCache::instance().acquire(tape);
        benchmark::DoNotOptimize(kernel.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JitAcquireWarm);

/**
 * One JSON line per Table 1 workload: frontend compile time, the
 * tape-length delta the patterns buy, and the per-pattern hit
 * counters. CI greps these into
 * BENCH_hotpath.json next to the hot-path tape numbers.
 */
void
reportRewriteStage()
{
    using clock = std::chrono::steady_clock;
    const double scale = 16.0;
    for (const auto &w : ml::Workload::suite()) {
        auto src = w.dslSource(scale);

        auto t0 = clock::now();
        compile::PipelineReport report;
        auto optimized = compile::translateSource(src, {}, &report);
        auto t1 = clock::now();
        auto raw = compile::translateSource(
            src, compiler::CompileOptions{}.withDfgPasses(false));

        auto ms = [](clock::time_point a, clock::time_point b) {
            return std::chrono::duration<double, std::milli>(b - a)
                .count();
        };
        dfg::Tape raw_tape(raw, nullptr, dfg::TapeBackend::Interp);
        dfg::Tape opt_tape(optimized, nullptr,
                           dfg::TapeBackend::Interp);

        std::string hits;
        for (const auto &p : report.patternHits) {
            if (!hits.empty())
                hits += ",";
            hits += "\"" + p.name +
                    "\":" + std::to_string(p.hits);
        }
        std::printf(
            "{\"bench\":\"rewrite\",\"workload\":\"%s\","
            "\"compile_ms_patterns\":%.3f,"
            "\"tape_len_raw\":%lld,\"tape_len_opt\":%lld,"
            "\"sweeps\":%d,\"pattern_hits\":{%s}}\n",
            w.name.c_str(), ms(t0, t1),
            static_cast<long long>(raw_tape.instructions().size()),
            static_cast<long long>(opt_tape.instructions().size()),
            report.rewriteSweeps, hits.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    reportRewriteStage();

    // One consolidated line per cache so CI logs show how much of the
    // run above was served from the build stack's caches.
    const auto stats = compile::BuildCache::instance().stats();
    std::printf("build-cache: hits=%lld misses=%lld entries=%lld\n",
                static_cast<long long>(stats.hits),
                static_cast<long long>(stats.misses),
                static_cast<long long>(stats.entries));
    std::printf("jit-cache: hits=%lld disk_hits=%lld misses=%lld "
                "compile_ms=%.1f fallbacks=%lld\n",
                static_cast<long long>(stats.jitHits),
                static_cast<long long>(stats.jitDiskHits),
                static_cast<long long>(stats.jitMisses), stats.jitCompileMs,
                static_cast<long long>(stats.jitFallbacks));
    return 0;
}
