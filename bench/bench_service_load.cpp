/**
 * @file
 * Service-layer load benchmark: the multi-tenant scheduler under a
 * burst of concurrent jobs.
 *
 * A fleet of tenants submits the Table 1 workloads (both wire
 * encodings, several tenants per program) to one JobScheduler sized
 * to train 8 jobs at once. The bench measures what the service layer
 * promises:
 *
 *  - **Throughput**: jobs/sec over the whole burst, and the peak
 *    number of jobs observed training simultaneously (target >= 8).
 *  - **Queue waits**: p50/p95 submission-to-admission latency.
 *  - **Compile dedup**: duplicate programs across tenants must hit
 *    the shared BuildCache (cross-tenant hit rate > 0).
 *  - **Isolation**: every job's final model must bit-match a solo
 *    single-tenant run of the identical spec — zero cross-job state
 *    leakage, whatever interleaving the scheduler picked.
 *
 * The last line of output is a machine-readable JSON summary:
 *   {"bench":"service","jobs":...,"peak_concurrent":...,
 *    "jobs_per_sec":...,"p50_queue_wait_sec":...,
 *    "p95_queue_wait_sec":...,"cache_hits":...,"cache_misses":...,
 *    "cross_tenant_hit_rate":...,"trajectory_matches":...,
 *    "gates":{"concurrency":...,"isolation":...,"dedup":...}}
 * The binary exits nonzero when a gate fails.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

#include "common/table.h"
#include "compiler/pipeline.h"
#include "system/scheduler.h"

using namespace cosmic;

namespace {

/** The tenant mix: distinct programs x encodings, several tenants
 *  re-submitting each so the BuildCache can prove cross-tenant
 *  dedup. */
std::vector<sys::JobSpec>
tenantMix(int tenants_per_spec)
{
    const std::vector<std::string> workloads = {"stock", "tumor",
                                                "texture", "cancer1"};
    std::vector<sys::JobSpec> specs;
    for (int tenant = 0; tenant < tenants_per_spec; ++tenant) {
        for (const auto &w : workloads) {
            for (auto payload :
                 {accel::Numeric::F64, accel::Numeric::Q16}) {
                sys::JobSpec spec;
                spec.name = w + "/" + accel::numericName(payload) +
                            "/t" + std::to_string(tenant);
                spec.workload = w;
                spec.scale = 64.0;
                spec.epochs = 2;
                spec.cluster.nodes = 2;
                spec.cluster.minibatchPerNode = 32;
                spec.cluster.recordsPerNode = 128;
                // Pin the shard count explicitly so the spec is
                // already in the scheduler's canonical form and the
                // solo baseline is trivially the same spec.
                spec.cluster.sgdShardsPerNode =
                    spec.cluster.acceleratorThreadsPerNode;
                spec.cluster.transport.payload = payload;
                spec.cluster.aggregation.deterministic = true;
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main()
{
    constexpr int kConcurrencyTarget = 8;
    const std::vector<sys::JobSpec> specs = tenantMix(3);

    // Solo baselines: each distinct spec trained single-tenant. The
    // session layer adds observation only, so this is the ground
    // truth any scheduled run must bit-match.
    std::map<std::string, std::vector<double>> solo;
    for (const auto &spec : specs) {
        if (solo.count(spec.name))
            continue;
        sys::Session session(spec);
        solo[spec.name] = session.run().finalModel;
    }

    const compile::BuildCacheStats before =
        compile::BuildCache::instance().stats();

    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2 * kConcurrencyTarget;
    cfg.maxConcurrent = kConcurrencyTarget;
    cfg.maxQueued = static_cast<int>(specs.size());

    std::atomic<bool> done{false};
    int peak_concurrent = 0;
    std::vector<uint64_t> ids;
    double burst_sec = 0.0;

    sys::JobScheduler scheduler(cfg);
    {
        // Sample the running gauge while the burst drains; the
        // scheduler's own stats are the source of truth.
        std::thread sampler([&] {
            while (!done.load()) {
                peak_concurrent =
                    std::max(peak_concurrent,
                             scheduler.stats().runningNow);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });

        const auto start = std::chrono::steady_clock::now();
        for (const auto &spec : specs)
            ids.push_back(scheduler.submit(spec));
        scheduler.drain();
        burst_sec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        done.store(true);
        sampler.join();
    }

    const compile::BuildCacheStats after =
        compile::BuildCache::instance().stats();
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;

    // Isolation: every scheduled job's model vs its solo baseline.
    int matches = 0;
    std::vector<double> waits;
    for (size_t i = 0; i < ids.size(); ++i) {
        const auto session = scheduler.session(ids[i]);
        const sys::JobProgress p = session->progress();
        waits.push_back(p.queueWaitSec);
        const std::vector<double> &got =
            session->report().finalModel;
        const std::vector<double> &want = solo[specs[i].name];
        const bool match =
            p.state == sys::JobState::Done &&
            got.size() == want.size() &&
            std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)) == 0;
        if (match)
            ++matches;
        else
            std::cout << "ISOLATION FAILURE: job " << specs[i].name
                      << " (" << sys::jobStateName(p.state)
                      << ") diverged from its solo run\n";
    }
    std::sort(waits.begin(), waits.end());
    const double p50 = percentile(waits, 0.50);
    const double p95 = percentile(waits, 0.95);
    const double jobs_per_sec =
        burst_sec > 0.0
            ? static_cast<double>(ids.size()) / burst_sec
            : 0.0;

    const sys::SchedulerStats stats = scheduler.stats();
    TablePrinter table("Service load: " +
                       std::to_string(ids.size()) +
                       " jobs over " +
                       std::to_string(kConcurrencyTarget) +
                       "-concurrent scheduler");
    table.setHeader({"Metric", "Value"});
    table.addRow({"jobs completed", std::to_string(stats.completed)});
    table.addRow({"burst seconds", TablePrinter::num(burst_sec, 2)});
    table.addRow({"jobs/sec", TablePrinter::num(jobs_per_sec, 2)});
    table.addRow({"peak concurrent", std::to_string(peak_concurrent)});
    table.addRow({"p50 queue wait (ms)",
                  TablePrinter::num(p50 * 1e3, 1)});
    table.addRow({"p95 queue wait (ms)",
                  TablePrinter::num(p95 * 1e3, 1)});
    table.addRow({"peak queue depth",
                  std::to_string(stats.peakQueueDepth)});
    table.addRow({"cache hits (burst)", std::to_string(hits)});
    table.addRow({"cache misses (burst)", std::to_string(misses)});
    table.addRow({"cross-tenant hit rate",
                  TablePrinter::num(100.0 * hit_rate, 1) + "%"});
    table.addRow({"trajectory matches",
                  std::to_string(matches) + "/" +
                      std::to_string(ids.size())});
    table.print(std::cout);

    const bool gate_concurrency =
        peak_concurrent >= kConcurrencyTarget;
    const bool gate_isolation =
        matches == static_cast<int>(ids.size());
    const bool gate_dedup = hits > 0;

    std::cout << "\nGates: concurrency >= " << kConcurrencyTarget
              << " — " << (gate_concurrency ? "MET" : "NOT MET")
              << "; isolation (bit-exact vs solo) — "
              << (gate_isolation ? "MET" : "NOT MET")
              << "; cross-tenant dedup — "
              << (gate_dedup ? "MET"
                             : "NOT MET")
              << "\n\n";

    std::cout << "{\"bench\":\"service\",\"jobs\":" << ids.size()
              << ",\"concurrent_target\":" << kConcurrencyTarget
              << ",\"peak_concurrent\":" << peak_concurrent
              << ",\"jobs_per_sec\":" << jobs_per_sec
              << ",\"p50_queue_wait_sec\":" << p50
              << ",\"p95_queue_wait_sec\":" << p95
              << ",\"cache_hits\":" << hits << ",\"cache_misses\":"
              << misses << ",\"cross_tenant_hit_rate\":" << hit_rate
              << ",\"trajectory_matches\":" << matches
              << ",\"gates\":{\"concurrency\":" << gate_concurrency
              << ",\"isolation\":" << gate_isolation
              << ",\"dedup\":" << gate_dedup << "}}\n";

    return gate_concurrency && gate_isolation && gate_dedup ? 0 : 1;
}
