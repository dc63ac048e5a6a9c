#include "bench_support.h"

#include <algorithm>
#include <cstdio>

#include "baselines/gpu_model.h"
#include "baselines/spark_model.h"
#include "baselines/tabla_model.h"
#include "common/error.h"
#include "compiler/pipeline.h"

namespace cosmic::bench {

WorkloadSummary
buildSummary(const ml::Workload &workload,
             const accel::PlatformSpec &platform, double scale)
{
    std::fprintf(stderr, "[bench] building %s on %s ...\n",
                 workload.name.c_str(), platform.name.c_str());
    auto built = core::CosmicStack::buildWorkload(workload, scale,
                                                  platform);
    accel::PerfEstimator perf(built.translation,
                              built.planResult.kernel,
                              built.planResult.plan);
    WorkloadSummary summary;
    summary.workload = workload.name;
    summary.platform = platform.name;
    summary.perf = perf.params();
    summary.flopsPerRecord = built.flopsPerRecord;
    summary.bytesPerRecord = built.bytesPerRecord;
    summary.modelBytes = built.modelBytes;
    summary.threads = built.planResult.plan.threads;
    summary.rowsPerThread = built.planResult.plan.rowsPerThread;
    summary.columns = built.planResult.plan.columns;
    summary.usage = built.planResult.plan.resourceUsage();
    return summary;
}

WorkloadSummary
buildTablaSummary(const ml::Workload &workload,
                  const accel::PlatformSpec &platform, double scale)
{
    std::fprintf(stderr, "[bench] building %s on %s (TABLA) ...\n",
                 workload.name.c_str(), platform.name.c_str());
    auto frontend = compile::translateCached(workload.dslSource(scale));
    const auto &tr = frontend->translation;
    auto tabla = baselines::TablaModel::build(tr, platform);

    accel::PerfEstimator perf(tr, tabla.kernel, tabla.plan);
    WorkloadSummary summary;
    summary.workload = workload.name;
    summary.platform = platform.name + " TABLA";
    summary.perf = perf.params();
    summary.flopsPerRecord = static_cast<double>(
        tr.dfg.operationCount() + tr.gradientWords);
    summary.bytesPerRecord = 4.0 * tr.recordWords;
    summary.modelBytes = 4 * tr.modelWords;
    summary.threads = tabla.plan.threads;
    summary.rowsPerThread = tabla.plan.rowsPerThread;
    summary.columns = tabla.plan.columns;
    summary.usage = tabla.plan.resourceUsage();
    return summary;
}

std::vector<WorkloadSummary>
buildSuite(const accel::PlatformSpec &platform, double scale)
{
    std::vector<WorkloadSummary> summaries;
    for (const auto &w : ml::Workload::suite())
        summaries.push_back(buildSummary(w, platform, scale));
    return summaries;
}

double
nodeBatchSeconds(const WorkloadSummary &summary, int64_t records)
{
    accel::PerfEstimator perf(summary.perf);
    return perf.batchTime(records).totalSec();
}

core::ScaleOutEstimate
cosmicEstimate(const WorkloadSummary &summary, int nodes,
               int64_t minibatch, int64_t total_records, int groups)
{
    // CoSMIC's mini-batch b is the local data each node processes
    // before an aggregation round (Eq. 3a): per node, not global.
    core::ScaleOutConfig cfg;
    cfg.nodes = nodes;
    cfg.groups = groups;
    cfg.minibatchPerNode = minibatch;
    return core::ScaleOutEstimator::withNodeTime(
        nodeBatchSeconds(summary, minibatch), summary.modelBytes, cfg,
        total_records);
}

core::ScaleOutEstimate
sparkEstimate(const WorkloadSummary &summary, int nodes,
              int64_t global_minibatch, int64_t total_records)
{
    // Spark MLlib's mini-batch is a fraction of the global dataset, so
    // the batch stays global and each executor sees a 1/N slice.
    int64_t per_node = std::max<int64_t>(1, global_minibatch / nodes);
    const auto &w = ml::Workload::byName(summary.workload);
    baselines::SparkModel spark;
    auto it = spark.iteration(w.algorithm, nodes, per_node,
                              summary.flopsPerRecord,
                              summary.bytesPerRecord,
                              summary.modelBytes);
    core::ScaleOutEstimate est;
    est.iteration = it;
    est.iterationsPerEpoch = static_cast<double>(total_records) /
                             static_cast<double>(global_minibatch);
    est.epochSeconds = est.iterationsPerEpoch * it.totalSec();
    est.recordsPerSecond =
        static_cast<double>(global_minibatch) / it.totalSec();
    return est;
}

core::ScaleOutEstimate
gpuEstimate(const WorkloadSummary &summary, const ml::Workload &workload,
            int nodes, int64_t minibatch, int64_t total_records)
{
    // The GPU nodes run under CoSMIC's runtime: per-node b (Eq. 3a).
    int64_t per_node = minibatch;
    baselines::GpuNodeModel gpu;
    double dataset_bytes_per_node =
        workload.dataGB * 1e9 / nodes;
    double node_batch = gpu.batchSeconds(
        workload.algorithm, per_node, summary.flopsPerRecord,
        summary.bytesPerRecord, summary.modelBytes,
        dataset_bytes_per_node);

    core::ScaleOutConfig cfg;
    cfg.nodes = nodes;
    cfg.minibatchPerNode = per_node;
    return core::ScaleOutEstimator::withNodeTime(
        node_batch, summary.modelBytes, cfg, total_records);
}


sys::ClusterConfig
smallCluster(int nodes, int64_t minibatch_per_node,
             int64_t records_per_node, int groups)
{
    sys::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.groups = groups;
    cfg.minibatchPerNode = minibatch_per_node;
    cfg.recordsPerNode = records_per_node;
    return cfg;
}

std::unique_ptr<sys::ClusterRuntime>
makeRuntime(const std::string &workload, double scale,
            const sys::ClusterConfig &cfg)
{
    return std::make_unique<sys::ClusterRuntime>(
        ml::Workload::byName(workload), scale, cfg);
}

sys::TrainingReport
trainMeasured(const std::string &workload, double scale,
              const sys::ClusterConfig &cfg, int epochs)
{
    return makeRuntime(workload, scale, cfg)->train(epochs);
}

} // namespace cosmic::bench
