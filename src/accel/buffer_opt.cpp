#include "accel/buffer_opt.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace cosmic::accel {

namespace {

constexpr int64_t kBytesPerSlot = 4;
/** Effectively unbounded FIFO capacity for the probe run. */
constexpr int32_t kProbeCapacity = 1 << 20;

int64_t
placementBytes(const std::vector<ElasticLinkStats> &links)
{
    int64_t slots = 0;
    for (const auto &link : links)
        slots += link.capacity;
    return slots * kBytesPerSlot;
}

/** Rebuilds the per-link capacity list of a placement from its links. */
void
syncConfig(BufferPlacement &placement, int num_pes)
{
    placement.config.linkCapacity.clear();
    // A link outside the list would get the default; keep the default
    // at 1 so an unforeseen link stays live rather than deadlocking.
    placement.config.defaultCapacity = 1;
    placement.config.linkCapacity.reserve(placement.links.size());
    for (const auto &link : placement.links)
        placement.config.linkCapacity.emplace_back(
            static_cast<int64_t>(link.srcPe) * num_pes + link.dstPe,
            link.capacity);
    placement.bufferBytesPerThread = placementBytes(placement.links);
}

/** Streams a zero batch through one candidate config; timing is
 *  value-independent, so zeros measure what real records would. */
ElasticResult
measure(const dfg::Translation &translation,
        const compiler::CompiledKernel &kernel,
        const dfg::DfgAnalysis &analysis, const ElasticConfig &config,
        int probe_records)
{
    ElasticSimulator sim(translation, kernel, analysis, config);
    std::vector<double> records(
        static_cast<size_t>(probe_records) * translation.recordWords, 0.0);
    std::vector<double> model(
        static_cast<size_t>(std::max<int64_t>(translation.modelWords, 1)),
        0.0);
    return sim.runBatch(records, probe_records, model);
}

void
adoptMeasurement(BufferPlacement &placement, const ElasticResult &result,
                 int probe_records)
{
    placement.links = result.stats.links;
    placement.cyclesPerRecord =
        (result.stats.cycles + probe_records - 1) / probe_records;
    placement.utilization = result.stats.utilization;
    placement.probeRecords = probe_records;
}

} // namespace

int64_t
BufferOptimizer::budgetPerThread(const AcceleratorPlan &plan,
                                 int64_t override_bytes)
{
    if (override_bytes > 0)
        return override_bytes;
    const int64_t plan_buffer_bytes =
        kBytesPerSlot *
        (plan.dataBufWordsPerPe + plan.modelBufWordsPerPe +
         plan.interimBufWordsPerPe) *
        plan.totalPes();
    const int64_t remaining = plan.platform.bramBytes - plan_buffer_bytes;
    if (remaining <= 0 || plan.threads <= 0)
        return 0;
    return remaining / plan.threads;
}

BufferPlacement
BufferOptimizer::probe(const dfg::Translation &translation,
                       const compiler::CompiledKernel &kernel,
                       const dfg::DfgAnalysis &analysis,
                       const AcceleratorPlan &plan, int probe_records)
{
    COSMIC_ASSERT(probe_records > 0, "probe needs at least one record");
    ElasticConfig unbounded;
    unbounded.defaultCapacity = kProbeCapacity;
    const ElasticResult result =
        measure(translation, kernel, analysis, unbounded, probe_records);
    COSMIC_ASSERT(result.ok,
                  "unbounded elastic probe failed: " << result.violation);

    BufferPlacement placement;
    adoptMeasurement(placement, result, probe_records);
    // Peak occupancy is exactly sufficient: capped there, every
    // injection the unbounded run performed still finds a free slot in
    // the same cycle, so the probe's schedule replays unchanged.
    for (auto &link : placement.links)
        link.capacity = std::max<int32_t>(link.peakOccupancy, 1);
    syncConfig(placement, plan.pesPerThread());
    placement.budgetBytesPerThread = budgetPerThread(plan);
    placement.withinBudget =
        placement.bufferBytesPerThread <= placement.budgetBytesPerThread;
    return placement;
}

BufferPlacement
BufferOptimizer::fit(const dfg::Translation &translation,
                     const compiler::CompiledKernel &kernel,
                     const dfg::DfgAnalysis &analysis,
                     const BufferPlacement &probed, int64_t budget_bytes)
{
    const int num_pes = kernel.mapping.columns * kernel.mapping.rowsPerThread;
    BufferPlacement placement = probed;
    placement.budgetBytesPerThread = budget_bytes;
    placement.withinBudget =
        placement.bufferBytesPerThread <= budget_bytes;
    if (placement.withinBudget)
        return placement;

    const int probe_records = std::max(probed.probeRecords, 1);
    // Scale all capacities down together (floored at one slot so every
    // live link keeps a credit), largest fitting candidate first. Each
    // candidate is re-measured: shrinking changes the backpressure
    // pattern, so throughput must be observed, not assumed.
    for (double factor : {0.5, 0.25, 0.125, 0.0}) {
        BufferPlacement candidate = probed;
        for (size_t i = 0; i < candidate.links.size(); ++i)
            candidate.links[i].capacity = std::max<int32_t>(
                1, static_cast<int32_t>(std::floor(
                       probed.links[i].peakOccupancy * factor)));
        syncConfig(candidate, num_pes);
        if (candidate.bufferBytesPerThread > budget_bytes)
            continue;
        const ElasticResult result = measure(
            translation, kernel, analysis, candidate.config, probe_records);
        if (!result.ok)
            continue; // single-credit cyclic stall: try a smaller shape
        // The run reports links at the configured capacities, so
        // adopting its stats keeps config/bytes consistent.
        adoptMeasurement(candidate, result, probe_records);
        candidate.budgetBytesPerThread = budget_bytes;
        candidate.withinBudget = true;
        return candidate;
    }
    // Nothing completing fits; report the honest peak placement and let
    // the caller (planner DSE) reject the design point.
    placement.withinBudget = false;
    return placement;
}

BufferPlacement
BufferOptimizer::optimize(const dfg::Translation &translation,
                          const compiler::CompiledKernel &kernel,
                          const AcceleratorPlan &plan, int probe_records,
                          int64_t budget_override)
{
    const dfg::DfgAnalysis analysis = dfg::analyze(translation.dfg);
    const BufferPlacement probed =
        probe(translation, kernel, analysis, plan, probe_records);
    return fit(translation, kernel, analysis, probed,
               budgetPerThread(plan, budget_override));
}

} // namespace cosmic::accel
