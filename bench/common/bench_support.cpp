#include "bench_support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/gpu_model.h"
#include "baselines/spark_model.h"
#include "baselines/tabla_model.h"
#include "common/error.h"
#include "compiler/pipeline.h"

namespace cosmic::bench {

namespace {

/** v6: the platform name sits on its own line (it contains spaces). */
constexpr int kCacheVersion = 6;

bool
cacheEnabled()
{
    const char *env = std::getenv("COSMIC_BENCH_CACHE");
    return env == nullptr || std::string(env) != "0";
}

std::filesystem::path
cachePath(const ml::Workload &w, const accel::PlatformSpec &p,
          double scale)
{
    std::string platform = p.name;
    for (auto &c : platform)
        if (c == ' ' || c == '/' || c == '+')
            c = '_';
    std::ostringstream name;
    name << w.name << "__" << platform << "__s" << scale << ".txt";
    return std::filesystem::path("bench-cache") / name.str();
}

bool
loadSummary(const std::filesystem::path &path, WorkloadSummary &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    int version = 0;
    in >> version;
    if (version != kCacheVersion)
        return false;
    in >> out.workload;
    std::getline(in >> std::ws, out.platform);
    in >> out.perf.frequencyHz >> out.perf.threads >> out.perf.columns >>
        out.perf.wordsPerCycle >> out.perf.pcieBandwidthBytesPerSec >>
        out.perf.computeCyclesPerRecord >> out.perf.recordWords >>
        out.perf.modelWords >> out.perf.gradientWords;
    in >> out.flopsPerRecord >> out.bytesPerRecord >> out.modelBytes;
    in >> out.threads >> out.rowsPerThread >> out.columns;
    in >> out.usage.luts >> out.usage.flipFlops >> out.usage.bramBytes >>
        out.usage.dspSlices >> out.usage.lutUtil >> out.usage.ffUtil >>
        out.usage.bramUtil >> out.usage.dspUtil;
    return static_cast<bool>(in);
}

void
storeSummary(const std::filesystem::path &path,
             const WorkloadSummary &s)
{
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    std::ofstream out(path);
    if (!out)
        return;
    out.precision(17);
    out << kCacheVersion << "\n";
    out << s.workload << "\n" << s.platform << "\n";
    out << s.perf.frequencyHz << " " << s.perf.threads << " "
        << s.perf.columns << " " << s.perf.wordsPerCycle << " "
        << s.perf.pcieBandwidthBytesPerSec << " "
        << s.perf.computeCyclesPerRecord << " " << s.perf.recordWords
        << " " << s.perf.modelWords << " " << s.perf.gradientWords
        << "\n";
    out << s.flopsPerRecord << " " << s.bytesPerRecord << " "
        << s.modelBytes << "\n";
    out << s.threads << " " << s.rowsPerThread << " " << s.columns
        << "\n";
    out << s.usage.luts << " " << s.usage.flipFlops << " "
        << s.usage.bramBytes << " " << s.usage.dspSlices << " "
        << s.usage.lutUtil << " " << s.usage.ffUtil << " "
        << s.usage.bramUtil << " " << s.usage.dspUtil << "\n";
}

} // namespace

WorkloadSummary
buildSummary(const ml::Workload &workload,
             const accel::PlatformSpec &platform, double scale)
{
    auto path = cachePath(workload, platform, scale);
    WorkloadSummary summary;
    if (cacheEnabled() && loadSummary(path, summary) &&
        summary.workload == workload.name &&
        summary.platform == platform.name)
        return summary;

    std::fprintf(stderr, "[bench] building %s on %s ...\n",
                 workload.name.c_str(), platform.name.c_str());
    auto built = core::CosmicStack::buildWorkload(workload, scale,
                                                  platform);
    accel::PerfEstimator perf(built.translation,
                              built.planResult.kernel,
                              built.planResult.plan);
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

    if (cacheEnabled())
        storeSummary(path, summary);
    return summary;
}

WorkloadSummary
buildTablaSummary(const ml::Workload &workload,
                  const accel::PlatformSpec &platform, double scale)
{
    accel::PlatformSpec tagged = platform;
    tagged.name = platform.name + " TABLA";
    auto path = cachePath(workload, tagged, scale);
    WorkloadSummary summary;
    if (cacheEnabled() && loadSummary(path, summary) &&
        summary.workload == workload.name &&
        summary.platform == tagged.name)
        return summary;

    std::fprintf(stderr, "[bench] building %s on %s (TABLA) ...\n",
                 workload.name.c_str(), platform.name.c_str());
    auto frontend = compile::translateCached(workload.dslSource(scale));
    const auto &tr = frontend->translation;
    auto tabla = baselines::TablaModel::build(tr, platform);

    accel::PerfEstimator perf(tr, tabla.kernel, tabla.plan);
    summary.workload = workload.name;
    summary.platform = tagged.name;
    summary.perf = perf.params();
    summary.flopsPerRecord = static_cast<double>(
        tr.dfg.operationCount() + tr.gradientWords);
    summary.bytesPerRecord = 4.0 * tr.recordWords;
    summary.modelBytes = 4 * tr.modelWords;
    summary.threads = tabla.plan.threads;
    summary.rowsPerThread = tabla.plan.rowsPerThread;
    summary.columns = tabla.plan.columns;
    summary.usage = tabla.plan.resourceUsage();

    if (cacheEnabled())
        storeSummary(path, summary);
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
