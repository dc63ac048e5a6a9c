/**
 * @file
 * `service-burst`: a ServiceFrontDoor on loopback with
 * SchedulerConfig{totalNodes=3, maxConcurrent=2}, driven by three
 * closed-loop ServiceClient connections (submit, wait, fetch the
 * result) through a fixed list of 480 jobs. A run repeats that
 * burst, each time behind a freshly started front door, and reports
 * medians over the bursts. The seed shuffles a balanced
 * mix of the six small programs at scale 64 x {F64, Q16} payloads x
 * {1, 2}-node jobs; every 8th job ships its program as client DSL
 * source with a unique leading comment, so it misses the BuildCache
 * and compiles on the request path.
 *
 * Finished jobs stay in the scheduler together with their cluster
 * runtimes, so threads and memory grow with the job count; the run
 * reports that growth instead of sizing it away.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <malloc.h>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "compiler/pipeline.h"
#include "host.h"
#include "system/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cosmic;

constexpr int kClients = 3;
/** Jobs per burst: a multiple of the 24-spec mix, and enough that the
 *  job-latency p95 of one burst has 23 jobs beyond it. */
constexpr int64_t kJobsPerBurst = 480;
/** Bursts per 10 s of nominal run length (on one core); every timing
 *  is a median over bursts, so many short bursts ride out a slow spell
 *  of the host that would move one long burst. */
constexpr double kBurstsPerTenSeconds = 6.5;
constexpr int64_t kMinBursts = 5;
/** A traced run pools this many traced bursts, so the queue-wait p99
 *  (1,440 jobs) has 14 jobs beyond it. */
constexpr int64_t kTracedBursts = 3;
/** Job-latency tail: a burst's p95. A p99 would rest on a handful of
 *  jobs per burst. */
constexpr double kTail = 0.95;
/** Every this-many-th job ships unique client source (a cache miss). */
constexpr size_t kMissEvery = 8;

struct Combo
{
    std::string program;
    net::PayloadKind payload;
    int nodes;
};

std::vector<Combo>
comboMix()
{
    std::vector<Combo> mix;
    for (const auto &program : kSmallPrograms)
        for (auto payload : {net::PayloadKind::F64, net::PayloadKind::Q16})
            for (int nodes : {1, 2})
                mix.push_back({program, payload, nodes});
    return mix;
}

sys::JobSpec
comboSpec(const Combo &combo, uint64_t seed, size_t comboIndex)
{
    sys::JobSpec spec;
    spec.name = combo.program +
                (combo.payload == net::PayloadKind::Q16 ? "/q16/" : "/f64/") +
                std::to_string(combo.nodes);
    spec.workload = combo.program;
    spec.scale = 64.0;
    spec.epochs = 2;
    sys::ClusterConfig &c = spec.cluster;
    c.nodes = combo.nodes;
    // One accelerator thread per node: two concurrent jobs hold at
    // most three nodes, so at most three threads compute at once.
    c.acceleratorThreadsPerNode = 1;
    c.sgdShardsPerNode = 1;
    c.minibatchPerNode = 32;
    c.recordsPerNode = 128;
    c.seed = seed * 977 + comboIndex;
    c.transport.payload = combo.payload;
    c.aggregation.deterministic = true;
    return spec;
}

struct Job
{
    size_t combo = 0;
    sys::JobSpec spec;
};

/** The seed's shuffle of a balanced mix; every kMissEvery-th job in
 *  submission-list order gets unique client source. */
std::vector<Job>
jobList(uint64_t seed, int64_t count, const std::vector<Combo> &mix)
{
    std::vector<Job> jobs;
    for (int64_t i = 0; i < count; ++i)
        jobs.push_back({static_cast<size_t>(i) % mix.size(), {}});
    std::mt19937_64 rng(seed);
    std::shuffle(jobs.begin(), jobs.end(), rng);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].spec = comboSpec(mix[jobs[i].combo], seed, jobs[i].combo);
        if (i % kMissEvery == kMissEvery - 1)
            jobs[i].spec.source =
                "# client job " + std::to_string(i) + " seed " +
                std::to_string(seed) + "\n" +
                ml::Workload::byName(jobs[i].spec.workload)
                    .dslSource(jobs[i].spec.scale);
    }
    return jobs;
}

struct JobOutcome
{
    double latencySec = 0.0;
    double submitSec = NAN;
    double prepareSec = NAN;
    double trainSec = NAN;
    double resultSec = NAN;
    /** The client saw both Queued->Preparing and Preparing->Running. */
    bool phasesSeen = false;
    sys::JobProgress final;
    std::vector<double> model;
    std::string error;
};

struct BurstRun
{
    /** Wall and process CPU seconds of the service's cold start. */
    double setupSec = 0.0;
    double setupCpuSec = 0.0;
    double wallSec = 0.0;
    double cpuSec = 0.0;
    std::vector<JobOutcome> jobs;
    sys::SchedulerStats sched;
    int64_t cacheHits = 0;
    int64_t cacheMisses = 0;
    int threadsBefore = 0;
    int threadsEnd = 0;
};

std::unique_ptr<sys::ServiceFrontDoor>
startService(const std::vector<Combo> &mix, uint64_t seed)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 3;
    cfg.maxConcurrent = 2;
    auto door = std::make_unique<sys::ServiceFrontDoor>(cfg, "127.0.0.1:0");
    // Warm-up: one job per base program fills the BuildCache.
    sys::ServiceClient client("127.0.0.1:" + std::to_string(door->port()));
    for (size_t i = 0; i < mix.size(); ++i) {
        if (mix[i].nodes != 1 || mix[i].payload != net::PayloadKind::F64)
            continue;
        const uint64_t id = client.submit(comboSpec(mix[i], seed, i));
        if (client.wait(id).state != sys::JobState::Done)
            throw std::runtime_error("warm-up job " + mix[i].program +
                                     " did not finish");
        client.result(id);
    }
    return door;
}

/** One client's closed loop over jobs client, client+kClients, ... */
void
clientLoop(int client, uint16_t port, const std::vector<Job> &jobs,
           std::vector<JobOutcome> &out, Tracer &tracer)
{
    Tracer::Scope root(tracer, "service.client", client);
    try {
        sys::ServiceClient conn("127.0.0.1:" + std::to_string(port));
        for (size_t j = client; j < jobs.size(); j += kClients) {
            JobOutcome &o = out[j];
            Tracer::Scope job(tracer, "service.job", j);
            const auto start = Clock::now();
            uint64_t id = 0;
            {
                Tracer::Scope s(tracer, "system.service.submit", j);
                id = conn.submit(jobs[j].spec);
            }
            o.submitSec = secondsSince(start);
            {
                Tracer::Scope s(tracer, "system.service.wait", j);
                // Phase boundaries as the client observes them: a
                // boundary counts only when the frame before it showed
                // the earlier state, so a job already past a state when
                // the subscription lands records no phase for it.
                const int64_t waitStart = tracer.now();
                int64_t prep = -1, run = -1;
                std::optional<sys::JobState> last;
                o.final = conn.wait(id, [&](const sys::JobProgress &p) {
                    if (last == sys::JobState::Queued &&
                        p.state == sys::JobState::Preparing)
                        prep = tracer.now();
                    else if (last == sys::JobState::Preparing &&
                             p.state == sys::JobState::Running)
                        run = tracer.now();
                    last = p.state;
                });
                o.phasesSeen = prep >= 0 && run >= 0;
                const int64_t done = tracer.now();
                if (prep >= 0 && run >= 0) {
                    o.prepareSec = (run - prep) * 1e-9;
                    tracer.record("system.scheduler.queue", waitStart,
                                  prep, s.index(), j);
                    tracer.record("system.session.prepare", prep, run,
                                  s.index(), j);
                }
                if (run >= 0) {
                    o.trainSec = (done - run) * 1e-9;
                    tracer.record("system.session.train", run, done,
                                  s.index(), j);
                }
            }
            if (o.final.state == sys::JobState::Done) {
                const auto resultStart = Clock::now();
                Tracer::Scope s(tracer, "system.service.result", j);
                o.model = conn.result(id);
                o.resultSec = secondsSince(resultStart);
            }
            o.latencySec = secondsSince(start);
        }
    } catch (const std::exception &e) {
        for (size_t j = client; j < jobs.size(); j += kClients)
            if (out[j].error.empty() && out[j].model.empty())
                out[j].error = e.what();
    }
}

/** One burst behind its own cold-started front door (one setup_s
 *  sample); the door and every job it kept are torn down after. */
BurstRun
runBurst(uint64_t seed, const std::vector<Combo> &mix,
         const std::vector<Job> &jobs, Tracer &tracer)
{
    BurstRun run;
    // Start every burst from the same heap: glibc keeps the previous
    // burst's freed pages in its per-thread arenas, which would stack
    // each burst's peak on top of the last one's.
    malloc_trim(0);
    compile::BuildCache::instance().clear();
    const double setupCpu = processCpuSeconds();
    const auto setupStart = Clock::now();
    const std::unique_ptr<sys::ServiceFrontDoor> door =
        startService(mix, seed);
    run.setupSec = secondsSince(setupStart);
    run.setupCpuSec = processCpuSeconds() - setupCpu;
    const compile::BuildCacheStats cache0 =
        compile::BuildCache::instance().stats();
    run.threadsBefore = threadCount();
    run.jobs.resize(jobs.size());

    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    {
        std::vector<std::jthread> clients; // joined at scope exit
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(clientLoop, c, door->port(),
                                 std::cref(jobs), std::ref(run.jobs),
                                 std::ref(tracer));
    }
    run.wallSec = secondsSince(start);
    run.cpuSec = processCpuSeconds() - cpu0;
    run.threadsEnd = threadCount();
    run.sched = door->scheduler().stats();
    const compile::BuildCacheStats cache1 =
        compile::BuildCache::instance().stats();
    run.cacheHits = cache1.hits - cache0.hits;
    run.cacheMisses = cache1.misses - cache0.misses;
    return run;
}

/** Every job must end Done with a model that bit-matches the solo
 *  Session run of its spec. Returns the number of failed jobs. */
int64_t
checkJobs(Result &result, const BurstRun &run, const std::vector<Job> &jobs,
          const std::vector<std::vector<double>> &solo)
{
    int64_t bad = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const JobOutcome &o = run.jobs[j];
        const std::vector<double> &want = solo[jobs[j].combo];
        std::string why;
        if (!o.error.empty())
            why = o.error;
        else if (o.final.state != sys::JobState::Done)
            why = std::string("ended ") + sys::jobStateName(o.final.state) +
                  " " + o.final.error;
        else if (o.model.size() != want.size() ||
                 std::memcmp(o.model.data(), want.data(),
                             want.size() * sizeof(double)) != 0)
            why = "final model differs from its solo Session run";
        if (!why.empty()) {
            if (bad++ < 5)
                result.fail("job " + std::to_string(j) + " (" +
                            jobs[j].spec.name + "): " + why);
        }
    }
    if (bad > 5)
        result.fail(std::to_string(bad - 5) + " more failed jobs");
    if (run.sched.rejected > 0)
        result.fail(std::to_string(run.sched.rejected) +
                    " jobs rejected at admission");
    return bad;
}

std::vector<double>
collect(const std::vector<JobOutcome> &jobs, double JobOutcome::*field)
{
    std::vector<double> out;
    for (const auto &o : jobs)
        if (std::isfinite(o.*field))
            out.push_back(o.*field);
    return out;
}

} // namespace

Result
runServiceBurst(const RunOptions &opts)
{
    const std::vector<Combo> mix = comboMix();
    const std::vector<Job> jobs = jobList(opts.seed, kJobsPerBurst, mix);
    const int64_t bursts =
        workUnits(kBurstsPerTenSeconds, opts.seconds, kMinBursts);

    // Ground truth before any timer starts: each spec trained solo.
    std::vector<std::vector<double>> solo;
    for (size_t i = 0; i < mix.size(); ++i)
        solo.push_back(
            sys::Session(comboSpec(mix[i], opts.seed, i)).run().finalModel);

    Result result;
    Tracer untraced(false);
    std::vector<double> setup, setupCpu, cpuPerJob, rate, p50, tail, wall,
        cpu;
    for (int64_t b = 0; b < bursts; ++b) {
        const BurstRun run = runBurst(opts.seed, mix, jobs, untraced);
        result.attempted += static_cast<int64_t>(jobs.size());
        result.failed += checkJobs(result, run, jobs, solo);
        const std::vector<double> latency =
            collect(run.jobs, &JobOutcome::latencySec);
        setup.push_back(run.setupSec);
        setupCpu.push_back(run.setupCpuSec);
        cpuPerJob.push_back(run.cpuSec / static_cast<double>(jobs.size()));
        rate.push_back(static_cast<double>(jobs.size()) / run.wallSec);
        p50.push_back(median(latency));
        tail.push_back(percentile(latency, kTail));
        wall.push_back(run.wallSec);
        cpu.push_back(run.cpuSec);
    }

    std::ostringstream note;
    note << "each timing: median over " << bursts << " bursts of "
         << jobs.size() << " jobs";
    if (!opts.trace) {
        result.add("setup_s", median(setupCpu), "s");
        result.add("cpu_ms_per_unit", 1e3 * median(cpuPerJob), "ms");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        note << " (cpu_ms_per_unit per job)";
        result.notes.push_back(note.str());
        return result;
    }

    // The wall-clock figures of the untraced bursts.
    result.add("wall.setup_s", median(setup), "s");
    result.add("wall.rate_per_s", median(rate), "1/s");
    result.add("wall.p50_ms", 1e3 * median(p50), "ms");
    result.add("wall.tail_ms", 1e3 * median(tail), "ms");
    note << "; wall.tail_ms: a burst's p" << 100.0 * kTail << " ("
         << samplesBeyond(jobs.size(), kTail) << " jobs beyond)";
    result.notes.push_back(note.str());

    // kTracedBursts traced bursts, pooled, against as many median
    // untraced ones.
    Tracer tracer(true);
    std::vector<JobOutcome> outcomes;
    int64_t cacheHits = 0, cacheMisses = 0;
    uint64_t rejected = 0;
    size_t peakQueue = 0;
    double tracedWall = 0.0, threadsPerJob = 0.0;
    int threadsEnd = 0;
    for (int64_t b = 0; b < kTracedBursts; ++b) {
        const BurstRun traced = runBurst(opts.seed, mix, jobs, tracer);
        result.attempted += static_cast<int64_t>(jobs.size());
        result.failed += checkJobs(result, traced, jobs, solo);
        outcomes.insert(outcomes.end(), traced.jobs.begin(),
                        traced.jobs.end());
        cacheHits += traced.cacheHits;
        cacheMisses += traced.cacheMisses;
        peakQueue = std::max(peakQueue, traced.sched.peakQueueDepth);
        rejected += traced.sched.rejected;
        tracedWall += traced.wallSec;
        threadsEnd = std::max(threadsEnd, traced.threadsEnd);
        threadsPerJob += static_cast<double>(traced.threadsEnd -
                                             traced.threadsBefore) /
                         static_cast<double>(jobs.size() * kTracedBursts);
    }

    std::vector<double> queueWait;
    for (const auto &o : outcomes)
        queueWait.push_back(o.final.queueWaitSec);
    auto p50ms = [&](double JobOutcome::*field) {
        return 1e3 * median(collect(outcomes, field));
    };
    result.add("system.service.submit_ms", p50ms(&JobOutcome::submitSec),
               "ms");
    result.add("system.scheduler.queue_wait_p50_ms",
               1e3 * median(queueWait), "ms");
    result.add("system.scheduler.queue_wait_p99_ms",
               1e3 * percentile(queueWait, 0.99), "ms");
    const int64_t missed =
        std::count_if(outcomes.begin(), outcomes.end(),
                      [](const JobOutcome &o) { return !o.phasesSeen; });
    result.add("system.session.prepare_ms", p50ms(&JobOutcome::prepareSec),
               "ms");
    result.add("system.session.phases_missed",
               static_cast<double>(missed), "count");
    result.add("system.session.train_ms", p50ms(&JobOutcome::trainSec),
               "ms");
    result.add("system.service.result_ms", p50ms(&JobOutcome::resultSec),
               "ms");
    const int64_t lookups = cacheHits + cacheMisses;
    result.add("compiler.buildcache.hit_ratio",
               lookups ? static_cast<double>(cacheHits) / lookups : 0.0,
               "ratio");
    result.add("system.scheduler.peak_queue_depth",
               static_cast<double>(peakQueue), "count");
    result.add("system.scheduler.rejected", static_cast<double>(rejected),
               "count");
    result.add("system.threads_end", threadsEnd, "count");
    result.add("system.threads_per_job", threadsPerJob, "count");
    result.noteSamples("system.scheduler.queue_wait_p99_ms", 0.99,
                       queueWait.size(), "jobs");
    addTraceMetrics(result, tracer, tracedWall,
                    static_cast<double>(kTracedBursts) * median(wall),
                    median(cpu) / median(wall), opts.traceOut);
    return result;
}

} // namespace perfbench
