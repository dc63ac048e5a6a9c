/**
 * @file
 * `train-compute` and `train-wire`: one Session training a 3-node
 * cluster with one accelerator thread per node on the barrier loop,
 * with the tape pinned to the interpreter.
 *
 *  - train-compute: mnist (backprop) at scale 8 on the in-process
 *    fabric, minibatch 128/node. Tape compute dominates node time.
 *  - train-wire: texture (linear regression) at scale 1 over TCP
 *    loopback with F64 payloads, minibatch 4/node, 128 records/node.
 *    A 16,384-word model per message and little compute per
 *    iteration, so the wire and aggregation dominate.
 */
#include <cmath>
#include <memory>
#include <sstream>

#include "compiler/pipeline.h"
#include "host.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "system/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cosmic;

struct Shape
{
    const char *workload;
    double scale;
    int64_t minibatchPerNode;
    int64_t recordsPerNode;
    bool tcp;
    /** Iterations run per 10 s of nominal run length (on one core). */
    double iterationsPerTenSeconds;
};

constexpr int kNodes = 3;
/** Session::prepare runs this many times per run; setup_s is the
 *  median. */
constexpr int kSetupRepeats = 7;
/** At least this many iterations, so the iteration p90 has 10 beyond
 *  it. */
constexpr int64_t kMinIterations = 100;
/** cpu_ms_per_unit and wall.rate_per_s are medians over this many
 *  blocks of epochs; wall.p50_ms and wall.tail_ms medians over up to
 *  this many blocks of iterations (fewer when a block's p90 would have
 *  under 10 beyond it). */
constexpr size_t kRateBlocks = 16;
/** The iteration tail quantile. */
constexpr double kTail = 0.90;
constexpr Shape kComputeShape{"mnist", 8.0, 128, 1024, false, 340};
constexpr Shape kWireShape{"texture", 1.0, 4, 128, true, 4096};

/** The final training loss must fall below this share of the initial
 *  model's. */
constexpr double kLossFraction = 0.5;
/** Traced and untraced final losses must agree to this relative
 *  tolerance (the aggregation fold order may differ over TCP). */
constexpr double kFoldTolerance = 1e-9;

int64_t
itersPerEpoch(const Shape &shape)
{
    return (shape.recordsPerNode + shape.minibatchPerNode - 1) /
           shape.minibatchPerNode;
}

sys::JobSpec
makeSpec(const Shape &shape, uint64_t seed, int epochs)
{
    sys::JobSpec spec;
    spec.name = shape.workload;
    spec.workload = shape.workload;
    spec.scale = shape.scale;
    spec.epochs = epochs;
    sys::ClusterConfig &c = spec.cluster;
    c.nodes = kNodes;
    c.acceleratorThreadsPerNode = 1;
    c.minibatchPerNode = shape.minibatchPerNode;
    c.recordsPerNode = shape.recordsPerNode;
    c.seed = seed;
    c.compile.tapeBackend = dfg::TapeBackend::Interp;
    if (shape.tcp) {
        c.transport.kind = net::TransportKind::Tcp;
        c.transport.payload = net::PayloadKind::F64;
    }
    return spec;
}

/** The untraced run: Session::prepare (repeated, cold) then run. */
struct UntracedRun
{
    /** Wall and process CPU seconds of each cold set-up. */
    std::vector<double> setupSec;
    std::vector<double> setupCpuSec;
    double runWallSec = 0.0;
    double cpuSec = 0.0;
    /** Wall and process CPU seconds into run() at which each epoch
     *  finished. */
    std::vector<double> epochEnds;
    std::vector<double> epochCpu;
    sys::TrainingReport report;
    /** Buffer-pool allocations after the first epoch and at the end. */
    uint64_t allocsWarm = 0;
    uint64_t allocsEnd = 0;
};

UntracedRun
runUntraced(const sys::JobSpec &spec)
{
    UntracedRun out;
    std::unique_ptr<sys::Session> session;
    for (int k = 0; k < kSetupRepeats; ++k) {
        // Each repeat is a cold prepare: no cached frontend, a fresh
        // runtime (dataset synthesis, node threads, fabric).
        session.reset();
        compile::BuildCache::instance().clear();
        const double cpu = processCpuSeconds();
        const auto start = Clock::now();
        auto s = std::make_unique<sys::Session>(spec);
        s->prepare();
        out.setupSec.push_back(secondsSince(start));
        out.setupCpuSec.push_back(processCpuSeconds() - cpu);
        session = std::move(s);
    }
    const sys::Session *observed = session.get();
    auto start = Clock::now();
    double cpu0 = 0.0;
    session->setProgressSink([&](const sys::JobProgress &p) {
        if (p.epochsDone <= static_cast<int>(out.epochEnds.size()))
            return;
        out.epochEnds.push_back(secondsSince(start));
        out.epochCpu.push_back(processCpuSeconds() - cpu0);
        if (p.epochsDone == 1)
            out.allocsWarm = observed->runtime().bufferPool().allocations();
    });
    cpu0 = processCpuSeconds();
    start = Clock::now();
    out.report = session->run();
    out.runWallSec = secondsSince(start);
    out.cpuSec = processCpuSeconds() - cpu0;
    out.allocsEnd = session->runtime().bufferPool().allocations();
    return out;
}

/** The job's data as the runtime synthesizes it: one generator call
 *  seeded with the cluster seed, training partitions first, then the
 *  holdout; the initial model comes from the seed after it. */
struct JobData
{
    ml::Dataset train;
    ml::Dataset holdout;
    std::vector<double> initialModel;
};

JobData
regenerate(const sys::JobSpec &spec)
{
    const ml::Workload &workload = ml::Workload::byName(spec.workload);
    const sys::ClusterConfig &cfg = spec.cluster;
    const int64_t trainCount = cfg.nodes * cfg.recordsPerNode;
    const int64_t holdoutCount = std::min<int64_t>(128, cfg.recordsPerNode);
    Rng dataRng(cfg.seed);
    const ml::Dataset all = ml::DatasetGenerator::generate(
        workload, spec.scale, trainCount + holdoutCount, dataRng);
    Rng modelRng(cfg.seed + 1);
    return {all.partition(0, trainCount),
            all.partition(trainCount, holdoutCount),
            ml::DatasetGenerator::initialModel(workload, spec.scale,
                                               modelRng)};
}

/**
 * The run must finish every iteration and fit its training records:
 * the final model's ml::Reference loss over the training partitions
 * must fall below kLossFraction of the initial model's. (The holdout
 * loss is reported, not checked: train-wire fits 16,384 features to
 * 384 records, and its holdout loss need not fall.)
 */
void
checkReport(Result &result, const sys::TrainingReport &report,
            int64_t iterations, const sys::JobSpec &spec,
            const JobData &data)
{
    if (report.cancelled || report.iterations != iterations) {
        std::ostringstream what;
        what << "ran " << report.iterations << " of " << iterations
             << " iterations";
        result.fail(what.str());
        return;
    }
    const ml::Reference reference(ml::Workload::byName(spec.workload),
                                  spec.scale);
    if (reference.meanLoss(data.holdout.data, data.holdout.count,
                           data.initialModel) != report.epochLoss.front()) {
        result.fail("regenerated holdout does not match the runtime's");
        return;
    }
    const double initial = reference.meanLoss(
        data.train.data, data.train.count, data.initialModel);
    const double final = reference.meanLoss(
        data.train.data, data.train.count, report.finalModel);
    if (!std::isfinite(report.epochLoss.back()) ||
        !(final < kLossFraction * initial)) {
        std::ostringstream what;
        what << "training loss " << final << " is not below "
             << kLossFraction << " x initial training loss " << initial
             << " (holdout loss " << report.epochLoss.back() << ")";
        result.fail(what.str());
    }
}

} // namespace

Result
runTrain(const RunOptions &opts, bool wire)
{
    const Shape &shape = wire ? kWireShape : kComputeShape;
    const int64_t perEpoch = itersPerEpoch(shape);
    const int epochs = static_cast<int>(
        (workUnits(shape.iterationsPerTenSeconds, opts.seconds,
                   kMinIterations) +
         perEpoch - 1) /
        perEpoch);
    const int64_t iterations = epochs * perEpoch;
    const sys::JobSpec spec = makeSpec(shape, opts.seed, epochs);

    Result result;
    result.attempted = iterations;
    const UntracedRun run = runUntraced(spec);
    // Read before the check data is synthesized, which would count.
    const double peakRss = peakRssMb();
    const JobData data = regenerate(spec);
    checkReport(result, run.report, iterations, spec, data);
    const std::vector<double> &iter = run.report.iterationSeconds;

    if (!opts.trace) {
        result.add("setup_s", median(run.setupCpuSec), "s");
        result.add("cpu_ms_per_unit",
                   1e3 / medianBlockRate(run.epochCpu,
                                         static_cast<double>(perEpoch),
                                         kRateBlocks),
                   "ms");
        result.add("peak_rss_mb", peakRss, "MB");
        result.noteSamples("setup_s", 0.5, run.setupCpuSec.size(),
                           "cold set-ups");
        result.noteSamples("cpu_ms_per_unit", 0.5, kRateBlocks,
                           "blocks of epochs (per iteration)");
        result.failed = result.correct ? 0 : iterations;
        return result;
    }

    // The wall-clock figures of the untraced run.
    const double records =
        static_cast<double>(iterations * kNodes * shape.minibatchPerNode);
    result.add("wall.setup_s", median(run.setupSec), "s");
    result.add("wall.rate_per_s",
               medianBlockRate(run.epochEnds, records / epochs, kRateBlocks),
               "1/s");
    size_t tailBlocks = 0;
    const double tail =
        medianBlockPercentile(iter, kTail, kRateBlocks, &tailBlocks);
    result.add("wall.p50_ms",
               1e3 * medianBlockPercentile(iter, 0.5, tailBlocks), "ms");
    result.add("wall.tail_ms", 1e3 * tail, "ms");
    result.noteSamples("wall.p50_ms and wall.tail_ms", 0.5, tailBlocks,
                       "blocks' p50 and p90");
    result.noteSamples("each block's wall.tail_ms", kTail,
                       iter.size() / tailBlocks, "iterations");

    // Traced run: the same job driven through the public calls the
    // Session makes, one span around each.
    const ml::Workload &workload = ml::Workload::byName(spec.workload);
    const sys::ClusterConfig &cfg = spec.cluster;
    const ml::Reference reference(workload, spec.scale);
    std::vector<double> model = data.initialModel;

    Tracer tracer(true);
    compile::BuildCache::instance().clear();
    std::unique_ptr<sys::ClusterRuntime> runtime;
    std::vector<double> losses;
    std::vector<sys::IterationStats> stats(iterations);
    std::vector<double> iterWall(iterations);
    net::NetStats net;
    double trainWallSec = 0.0;
    uint64_t tracedAllocsWarm = 0, tracedAllocsEnd = 0;
    {
        Tracer::Scope root(tracer, "train");
        std::shared_ptr<const compile::FrontendArtifact> frontend;
        {
            Tracer::Scope s(tracer, "compiler.frontend");
            frontend = compile::translateCached(
                workload.dslSource(spec.scale), cfg.compile);
        }
        {
            Tracer::Scope s(tracer, "system.runtime_build");
            runtime = std::make_unique<sys::ClusterRuntime>(
                workload, spec.scale, cfg, frontend);
        }
        const auto trainStart = Clock::now();
        Tracer::Scope train(tracer, "system.train");
        auto eval = [&](uint64_t epoch) {
            Tracer::Scope s(tracer, "ml.eval", epoch);
            losses.push_back(
                reference.meanLoss(data.holdout.data, data.holdout.count,
                                   model));
        };
        // The runtime exposes its payload pool read-only, but its own
        // train() loop recycles each superseded model into it; this
        // loop does the same, or every iteration would allocate.
        sys::BufferPool &pool =
            const_cast<sys::BufferPool &>(runtime->bufferPool());
        eval(0);
        uint64_t seq = 0;
        for (int e = 0; e < epochs; ++e) {
            for (int64_t i = 0; i < perEpoch; ++i, ++seq) {
                const auto start = Clock::now();
                Tracer::Scope s(tracer, "system.iteration", seq);
                std::vector<double> next =
                    runtime->runIteration(model, seq, &stats[seq]);
                pool.release(std::move(model));
                model = std::move(next);
                iterWall[seq] = secondsSince(start);
            }
            eval(e + 1);
            if (e == 0)
                tracedAllocsWarm = pool.allocations();
        }
        tracedAllocsEnd = pool.allocations();
        trainWallSec = secondsSince(trainStart);
        net = runtime->netStats();
    }

    const double untracedFinal = run.report.epochLoss.back();
    if (!(std::abs(losses.back() - untracedFinal) <=
          kFoldTolerance * std::max(1.0, std::abs(untracedFinal)))) {
        std::ostringstream what;
        what.precision(17);
        what << "traced final loss " << losses.back()
             << " differs from untraced " << untracedFinal;
        result.fail(what.str());
    }

    double compute = 0, busy = 0, wait = 0, unattributed = 0;
    for (int64_t i = 0; i < iterations; ++i) {
        compute += stats[i].maxComputeSec;
        busy += stats[i].sumComputeSec;
        wait += stats[i].maxAggregationSec;
        // Iteration wall outside the mean node's role (compute plus
        // aggregation): task dispatch, the barrier, stats folding.
        unattributed +=
            iterWall[i] -
            (stats[i].sumComputeSec + stats[i].sumAggregationSec) / kNodes;
    }
    const double perIterMs = 1e3 / static_cast<double>(iterations);
    const TraceSummary sum = summarize(tracer.spans());
    result.add("compiler.frontend_ms", sum.totalMs.at("compiler.frontend"),
               "ms");
    result.add("system.runtime_build_ms",
               sum.totalMs.at("system.runtime_build"), "ms");
    result.add("system.node.compute_ms", compute * perIterMs, "ms");
    result.add("system.node.compute_busy_ms", busy * perIterMs, "ms");
    result.add("system.aggregation.wait_ms", wait * perIterMs, "ms");
    result.add("system.iteration.unattributed_ms",
               unattributed * perIterMs, "ms");
    result.add("ml.eval_ms", sum.totalMs.at("ml.eval"), "ms");
    result.add("ml.final_loss", run.report.epochLoss.back(), "loss");
    result.add("ml.loss_ratio",
               run.report.epochLoss.back() / run.report.epochLoss.front(),
               "ratio");
    const uint64_t allocsSteady = run.allocsEnd - run.allocsWarm;
    const uint64_t tracedAllocsSteady = tracedAllocsEnd - tracedAllocsWarm;
    result.add("system.buffer_pool.allocs_steady",
               static_cast<double>(allocsSteady), "count");
    result.add("system.buffer_pool.allocs_steady_traced",
               static_cast<double>(tracedAllocsSteady), "count");
    if (tracedAllocsSteady != allocsSteady) {
        std::ostringstream what;
        what << "traced loop made " << tracedAllocsSteady
             << " steady-state buffer allocations, Session::run made "
             << allocsSteady;
        result.fail(what.str());
    }
    const double iters = static_cast<double>(iterations);
    result.add("net.bytes_per_iter",
               static_cast<double>(net.bytesSent) / iters, "B");
    result.add("net.frames_per_iter",
               static_cast<double>(net.framesSent) / iters, "count");
    result.add("net.wakeups_per_iter",
               static_cast<double>(net.wakeups) / iters, "count");
    result.add("net.serialize_ms", 1e3 * net.serializeSec / iters, "ms");
    result.add("net.deserialize_ms", 1e3 * net.deserializeSec / iters,
               "ms");
    result.add("net.corrupt_frames",
               static_cast<double>(net.corruptFramesDropped), "count");
    result.add("net.reconnects", static_cast<double>(net.reconnects),
               "count");
    addTraceMetrics(result, tracer, trainWallSec, run.runWallSec,
                    run.cpuSec / run.runWallSec, opts.traceOut);
    result.failed = result.correct ? 0 : iterations;
    return result;
}

} // namespace perfbench
