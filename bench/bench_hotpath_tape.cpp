/**
 * @file
 * Training hot-path throughput: interpreter vs compiled tape executor.
 *
 * Measures single-thread records/sec of the per-record gradient kernel
 * for all 10 Table-1 workloads — the node-order Interpreter against the
 * Tape's segment stream (runBatch; each program's segment count and
 * scratch words are listed with it) and the plain-SGD sweep that
 * default training runs, in F64 and in Q16.16 (the PE number format;
 * reported only, with no target) — and times one functional-runtime
 * iteration to show the persistent-worker system layer end to end,
 * with one and with eight SGD shards per node.
 *
 * Each body runs in 9 rounds of alternating 50 ms windows in this one
 * process; rates are the medians of its windows, and speedups the
 * median of the per-round ratios, which cancels most of a shared
 * host's run-to-run drift.
 *
 * The last line of output is a machine-readable JSON summary so the
 * perf trajectory can be tracked:
 *   {"bench":"hotpath_tape","scale":...,"results":[{"workload":...,
 *    "segments":...,"scratch_words":...,"interp_rps":...,
 *    "tape_rps":...,"sgd_rps":...,"sgd_q16_rps":...,
 *    "q16_slowdown":...,"speedup":...},...],
 *    "iteration":{...},"iteration_shards":{...}}
 *
 * Target: >= 3x tape-over-interpreter single-thread throughput on the
 * linear- and logistic-regression workloads (stock, texture, tumor,
 * cancer1). The exit status is non-zero when it is missed.
 */
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_support.h"
#include "common/rng.h"
#include "common/table.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "dfg/tape.h"
#include "ml/dataset.h"
#include "ml/workloads.h"
#include "system/cluster_runtime.h"

using namespace cosmic;

namespace {

/** Runs @p body repeatedly until @p min_seconds elapsed; returns
 *  records/sec (body processes @p records records per call). */
double
measureRps(int64_t records, const std::function<void()> &body,
           double min_seconds)
{
    int64_t reps = 0;
    auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++reps;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    return static_cast<double>(records) * reps / elapsed;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Timing windows per body, and each window's length. */
constexpr int kRounds = 9;
constexpr double kWindowSeconds = 0.05;

/**
 * Records/sec of each body in kRounds rounds of alternating windows:
 * round r times one window of every body in turn, so the host's slow
 * spells land on all bodies alike. rps[i][r] is body i in round r.
 */
std::vector<std::vector<double>>
alternateRps(int64_t records,
             const std::vector<std::function<void()>> &bodies)
{
    // Warm-up pass (touches every buffer, trains the branch predictor).
    for (const auto &body : bodies)
        body();
    std::vector<std::vector<double>> rps(bodies.size());
    for (int r = 0; r < kRounds; ++r)
        for (size_t i = 0; i < bodies.size(); ++i)
            rps[i].push_back(measureRps(records, bodies[i],
                                        kWindowSeconds));
    return rps;
}

/** Median over rounds of num[r] / den[r]: the windows of one round
 *  ran back to back, so their ratio cancels most host drift. */
double
medianRatio(const std::vector<double> &num,
            const std::vector<double> &den)
{
    std::vector<double> ratio;
    for (size_t r = 0; r < num.size(); ++r)
        ratio.push_back(num[r] / den[r]);
    return median(std::move(ratio));
}

/** Average per-iteration seconds / records-per-second of one run. */
struct IterationSummary
{
    double iterSec = 0.0;
    double aggSec = 0.0;
    double rps = 0.0;
};

IterationSummary
measureIteration(sys::ClusterRuntime &runtime)
{
    auto report = runtime.train(2);
    IterationSummary s;
    for (size_t i = 0; i < report.iterationSeconds.size(); ++i) {
        const sys::IterationStats &it = report.iterationStats[i];
        s.iterSec += report.iterationSeconds[i];
        s.aggSec += it.maxAggregationSec;
        s.rps += it.records / report.iterationSeconds[i];
    }
    size_t iters = report.iterationSeconds.size();
    s.iterSec /= iters;
    s.aggSec /= iters;
    s.rps /= iters;
    return s;
}

} // namespace

int
main()
{
    const double scale = 8.0;
    const int64_t records = 256;

    TablePrinter table("Training hot path: single-thread records/sec, "
                       "interpreter vs tape (scale 1/" +
                       std::to_string(static_cast<int>(scale)) +
                       "; medians of " + std::to_string(kRounds) +
                       " alternating windows)");
    table.setHeader({"Benchmark", "Algorithm", "DFG ops", "Segments",
                     "Scratch words", "Interp rec/s",
                     "Tape rec/s", "SGD rec/s", "Q16 SGD rec/s",
                     "Q16 SGD us/rec", "Q16/F64 time", "Tape x"});

    std::ostringstream json;
    json << "{\"bench\":\"hotpath_tape\",\"scale\":" << scale
         << ",\"records\":" << records << ",\"rounds\":" << kRounds
         << ",\"results\":[";

    bool tape_ok = true;
    bool first = true;
    int64_t frontend_passes = 0;
    int64_t dfg_passes = 0;
    for (const auto &w : ml::Workload::suite()) {
        auto frontend = compile::translateCached(w.dslSource(scale));
        const auto &tr = frontend->translation;
        frontend_passes +=
            static_cast<int64_t>(frontend->report.passes.size());
        dfg_passes += frontend->report.dfgPassCount();

        Rng rng(99);
        auto ds = ml::DatasetGenerator::generate(w, scale, records,
                                                 rng);
        auto model =
            ml::DatasetGenerator::initialModel(w, scale, rng);

        dfg::Interpreter interp(tr);
        dfg::Tape tape(tr);
        dfg::TapeExecutor exec(tape);
        dfg::Tape tape_q16(tr, accel::Numeric::Q16);
        dfg::TapeExecutor exec_q16(tape_q16);
        std::vector<double> grad;
        std::vector<double> grad_accum(tr.gradientWords, 0.0);

        // The sweep default training runs, then the same in Q16.16;
        // every call restarts from the initial model so the weights
        // never drift.
        const bool sgd = tr.gradientWords == tr.modelWords;
        std::vector<double> sweep_model(model.size());
        std::vector<std::function<void()>> bodies = {
            [&] {
                for (int64_t r = 0; r < records; ++r)
                    interp.run(ds.record(r), model, grad);
            },
            [&] { exec.runBatch(ds.data, records, model, grad_accum); },
        };
        if (sgd)
            for (dfg::TapeExecutor *e : {&exec, &exec_q16})
                bodies.push_back([&, e] {
                    std::copy(model.begin(), model.end(),
                              sweep_model.begin());
                    e->sgdSweep(ds.data, records, sweep_model, 1e-3);
                });
        const auto rps = alternateRps(records, bodies);
        const double interp_rps = median(rps[0]);
        const double tape_rps = median(rps[1]);
        const double sgd_rps = sgd ? median(rps[2]) : 0.0;
        const double q16_rps = sgd ? median(rps[3]) : 0.0;
        // Q16 time per record over F64's: the per-round F64/Q16 rate
        // ratio.
        const double q16_slowdown = sgd ? medianRatio(rps[2], rps[3]) : 0.0;
        const double speedup = medianRatio(rps[1], rps[0]);

        bool is_regression =
            w.algorithm == ml::Algorithm::LinearRegression ||
            w.algorithm == ml::Algorithm::LogisticRegression;
        if (is_regression && speedup < 3.0)
            tape_ok = false;

        table.addRow({w.name, ml::algorithmName(w.algorithm),
                      std::to_string(tr.dfg.operationCount()),
                      std::to_string(tape.segmentCount()),
                      std::to_string(tape.scratchWords()),
                      TablePrinter::num(interp_rps, 0),
                      TablePrinter::num(tape_rps, 0),
                      sgd ? TablePrinter::num(sgd_rps, 0) : "-",
                      sgd ? TablePrinter::num(q16_rps, 0) : "-",
                      sgd ? TablePrinter::num(1e6 / q16_rps, 2) : "-",
                      sgd ? TablePrinter::num(q16_slowdown, 1) : "-",
                      TablePrinter::num(speedup, 2)});

        json << (first ? "" : ",") << "{\"workload\":\"" << w.name
             << "\",\"segments\":" << tape.segmentCount()
             << ",\"scratch_words\":" << tape.scratchWords()
             << ",\"interp_rps\":" << TablePrinter::num(interp_rps, 0)
             << ",\"tape_rps\":" << TablePrinter::num(tape_rps, 0)
             << ",\"sgd_rps\":" << TablePrinter::num(sgd_rps, 0)
             << ",\"sgd_q16_rps\":" << TablePrinter::num(q16_rps, 0)
             << ",\"q16_slowdown\":" << TablePrinter::num(q16_slowdown, 3)
             << ",\"speedup\":" << TablePrinter::num(speedup, 3) << "}";
        first = false;
    }
    table.print(std::cout);
    std::cout << "\nTargets on the linear/logistic-regression "
              << "workloads: tape >= 3x interpreter — "
              << (tape_ok ? "MET" : "NOT MET") << "\n";

    // One functional-runtime iteration: the persistent-worker system
    // layer (tape executors fed through the nodes' thread pools),
    // then the same cluster with 8 SGD shards per node, each
    // accelerator thread sweeping its shards in turn.
    sys::ClusterConfig cfg = bench::smallCluster(4, 64, 256);
    auto runtime = bench::makeRuntime("tumor", scale, cfg);
    auto base = measureIteration(*runtime);

    sys::ClusterConfig shard_cfg = cfg;
    shard_cfg.sgdShardsPerNode = 8;
    auto shard_runtime = bench::makeRuntime("tumor", scale, shard_cfg);
    auto shards = measureIteration(*shard_runtime);

    std::cout << "\nCluster iteration (tumor, 4 nodes, b=64): "
              << TablePrinter::num(base.iterSec * 1e3, 3)
              << " ms/iter, " << TablePrinter::num(base.rps, 0)
              << " records/sec, "
              << TablePrinter::num(base.aggSec * 1e3, 3)
              << " ms aggregation wait\n"
              << "Cluster iteration (8 SGD shards/node):   "
              << TablePrinter::num(shards.iterSec * 1e3, 3)
              << " ms/iter, " << TablePrinter::num(shards.rps, 0)
              << " records/sec, "
              << TablePrinter::num(shards.aggSec * 1e3, 3)
              << " ms aggregation wait\n\n";

    auto cache_stats = compile::BuildCache::instance().stats();
    json << "],\"pipeline\":{\"frontend_passes\":" << frontend_passes
         << ",\"dfg_passes\":" << dfg_passes
         << ",\"cache_hits\":" << cache_stats.hits
         << ",\"cache_misses\":" << cache_stats.misses << "}"
         << ",\"iteration\":{\"workload\":\"tumor\",\"nodes\":"
         << cfg.nodes << ",\"iter_sec\":" << base.iterSec
         << ",\"records_per_sec\":" << TablePrinter::num(base.rps, 0)
         << ",\"aggregation_wait_sec\":" << base.aggSec
         << "},\"iteration_shards\":{\"workload\":\"tumor\",\"nodes\":"
         << shard_cfg.nodes
         << ",\"sgd_shards\":" << shard_cfg.sgdShardsPerNode
         << ",\"iter_sec\":" << shards.iterSec
         << ",\"records_per_sec\":" << TablePrinter::num(shards.rps, 0)
         << ",\"aggregation_wait_sec\":" << shards.aggSec << "}}";
    std::cout << json.str() << "\n";
    return tape_ok ? 0 : 1;
}
