/**
 * @file
 * Shared support for the evaluation harness.
 *
 * Every bench binary regenerates one of the paper's tables or figures.
 * They all need the same expensive artifact — the planned + compiled
 * accelerator for each (benchmark, platform) pair — which this support
 * library builds through the compile pipeline's in-memory BuildCache
 * (compiler/pipeline.h) and reduces to a timing summary of a dozen
 * numbers. Nothing persists between runs, so a figure always comes from
 * the code that prints it.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/perf.h"
#include "accel/platform.h"
#include "core/cosmic.h"
#include "ml/workloads.h"
#include "system/cluster_runtime.h"

namespace cosmic::bench {

/** What the figures need from building one benchmark for one
 *  platform. */
struct WorkloadSummary
{
    std::string workload;
    std::string platform;

    accel::PerfParams perf;
    double flopsPerRecord = 0.0;
    double bytesPerRecord = 0.0;
    int64_t modelBytes = 0;

    int threads = 0;
    int rowsPerThread = 0;
    int columns = 0;

    accel::ResourceUsage usage;
};

/** Builds the summary for one benchmark on one platform. */
WorkloadSummary buildSummary(const ml::Workload &workload,
                             const accel::PlatformSpec &platform,
                             double scale = 1.0);

/** Summaries for the whole Table 1 suite on one platform. */
std::vector<WorkloadSummary>
buildSuite(const accel::PlatformSpec &platform, double scale = 1.0);

/**
 * Builds the TABLA-baseline summary: single thread over the
 * whole fabric, operation-first mapping, flat shared bus (Fig. 17).
 */
WorkloadSummary buildTablaSummary(const ml::Workload &workload,
                                  const accel::PlatformSpec &platform,
                                  double scale = 1.0);

/** Per-node accelerator time for a mini-batch of @p records. */
double nodeBatchSeconds(const WorkloadSummary &summary, int64_t records);

/** CoSMIC cluster estimate from a summary. */
core::ScaleOutEstimate
cosmicEstimate(const WorkloadSummary &summary, int nodes,
               int64_t minibatch_per_node, int64_t total_records,
               int groups = 0);

/** Spark baseline estimate for the same deployment. */
core::ScaleOutEstimate
sparkEstimate(const WorkloadSummary &summary, int nodes,
              int64_t minibatch_per_node, int64_t total_records);

/** GPU-accelerated CoSMIC estimate (Sec. 7.1's 3-GPU system). */
core::ScaleOutEstimate
gpuEstimate(const WorkloadSummary &summary, const ml::Workload &workload,
            int nodes, int64_t minibatch_per_node, int64_t total_records);

/** The paper's default mini-batch size. */
constexpr int64_t kDefaultMinibatch = 10000;

/**
 * The scaled-down cluster shape every measured (functional-runtime)
 * bench uses: @p nodes nodes, one aggregation tier unless @p groups
 * says otherwise, small per-node batch/record counts so a run takes
 * milliseconds on the host CPU.
 */
sys::ClusterConfig smallCluster(int nodes, int64_t minibatch_per_node,
                                int64_t records_per_node,
                                int groups = 0);

/** A functional runtime for @p workload (a Table 1 name) at
 *  1/@p scale dimensions under @p cfg. */
std::unique_ptr<sys::ClusterRuntime>
makeRuntime(const std::string &workload, double scale,
            const sys::ClusterConfig &cfg);

/** makeRuntime + train in one call — the common measured-bench body. */
sys::TrainingReport trainMeasured(const std::string &workload,
                                  double scale,
                                  const sys::ClusterConfig &cfg,
                                  int epochs);

} // namespace cosmic::bench
