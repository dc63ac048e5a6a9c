/**
 * @file
 * Service-layer tests: Session/Scheduler/front-door split.
 *
 * The invariants under test, in order of importance:
 *
 *  1. The Session layer adds observation, never math — a Session-run
 *     job's final model is bit-identical to driving ClusterRuntime
 *     directly, for every Table 1 workload, both wire encodings, and
 *     over real TCP.
 *  2. The scheduler's resource decisions (admission order, node
 *     carving, PE-thread carving) never leak into trajectories.
 *  3. Admission control: strict FIFO, max-concurrency, queue bounds,
 *     impossible-resource and invalid-config rejections, counters
 *     that reconcile.
 *  4. The shared BuildCache is safe under same-key races from many
 *     sessions, which all adopt one artifact.
 *  5. The wire front door round-trips jobs faithfully and rejects
 *     malformed submissions instead of guessing.
 *  6. Finished work holds no threads: the scheduler tears a job's
 *     cluster down at its terminal state, and the front door reaps
 *     closed connections.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.h"
#include "compiler/pipeline.h"
#include "ml/dataset.h"
#include "ml/workloads.h"
#include "net/wire.h"
#include "system/scheduler.h"
#include "system/service.h"
#include "proc_self.h"

using namespace cosmic;
using cosmic::testing_support::liveThreads;
using cosmic::testing_support::liveThreadsSettled;
using cosmic::testing_support::mappedRegions;

namespace {

/** The small, fast cluster shape most tests train. */
sys::JobSpec
smallJob(const std::string &workload,
         accel::Numeric payload = accel::Numeric::F64)
{
    sys::JobSpec spec;
    spec.workload = workload;
    spec.scale = 64.0;
    spec.epochs = 1;
    spec.cluster.nodes = 2;
    spec.cluster.minibatchPerNode = 32;
    spec.cluster.recordsPerNode = 64;
    spec.cluster.transport.payload = payload;
    spec.cluster.aggregation.deterministic = true;
    return spec;
}

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(double)) == 0);
}

} // namespace

// ---------------------------------------------------------------------
// ClusterConfig validation

TEST(ClusterConfigValidation, AcceptsDefaults)
{
    EXPECT_NO_THROW(sys::ClusterConfig{}.validate());
}

TEST(ClusterConfigValidation, RejectsStalenessWithoutOverlap)
{
    sys::ClusterConfig cfg;
    cfg.maxStaleness = 2;
    cfg.overlapIterations = false;
    EXPECT_THROW(cfg.validate(), CosmicError);
    cfg.overlapIterations = true;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfigValidation, RejectsNonsensicalKnobs)
{
    {
        sys::ClusterConfig cfg;
        cfg.nodes = 0;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
    {
        sys::ClusterConfig cfg;
        cfg.groups = 9;
        cfg.nodes = 4;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
    {
        sys::ClusterConfig cfg;
        cfg.acceleratorThreadsPerNode = 0;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
    {
        sys::ClusterConfig cfg;
        cfg.learningRate = 0.0;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
    {
        sys::ClusterConfig cfg;
        cfg.minibatchPerNode = 0;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
    {
        sys::ClusterConfig cfg;
        cfg.streamChunkWords = -1;
        EXPECT_THROW(cfg.validate(), CosmicError);
    }
}

TEST(ClusterConfigValidation, RejectsStreamChunkWiderThanModel)
{
    // The chunk/model comparison needs the compiled program, so it
    // lives in the runtime constructor rather than validate().
    sys::JobSpec spec = smallJob("stock");
    spec.cluster.streamChunkWords = 1 << 24;
    sys::Session session(spec);
    EXPECT_THROW(session.prepare(), CosmicError);
    EXPECT_EQ(session.progress().state, sys::JobState::Failed);
    EXPECT_NE(session.progress().error.find("streamChunkWords"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Wire text payloads + JobSpec wire form

TEST(ServiceWire, PackTextRoundTripsArbitraryBytes)
{
    std::string text = "job spec \x01\xff";
    text.push_back('\0');
    text += "tail";
    std::vector<double> words;
    const uint32_t bytes = net::packText(text, words);
    EXPECT_EQ(bytes, text.size());
    EXPECT_EQ(words.size(), (text.size() + 7) / 8);

    sys::Message msg;
    msg.payload = words;
    msg.offset = bytes;
    EXPECT_EQ(net::unpackText(msg), text);
}

TEST(ServiceWire, UnpackTextRejectsOverlongLength)
{
    sys::Message msg;
    msg.payload = {0.0};
    msg.offset = 64; // claims 64 bytes in an 8-byte payload
    EXPECT_THROW(net::unpackText(msg), CosmicError);
}

TEST(JobSpecText, RoundTrips)
{
    sys::JobSpec spec = smallJob("tumor", accel::Numeric::Q16);
    spec.name = "tenant-a";
    spec.epochs = 3;
    spec.cluster.mode = sys::TrainingMode::BatchedGradient;
    spec.cluster.overlapIterations = true;
    spec.cluster.maxStaleness = 2;
    spec.cluster.seed = 0xabcdef;
    spec.source = "model m;\nfancy program text\n";

    const sys::JobSpec got = sys::JobSpec::fromText(spec.toText());
    EXPECT_EQ(got.name, spec.name);
    EXPECT_EQ(got.workload, spec.workload);
    EXPECT_EQ(got.source, spec.source);
    EXPECT_EQ(got.scale, spec.scale);
    EXPECT_EQ(got.epochs, spec.epochs);
    EXPECT_EQ(got.cluster.nodes, spec.cluster.nodes);
    EXPECT_EQ(got.cluster.mode, spec.cluster.mode);
    EXPECT_EQ(got.cluster.transport.payload,
              spec.cluster.transport.payload);
    EXPECT_EQ(got.cluster.maxStaleness, spec.cluster.maxStaleness);
    EXPECT_EQ(got.cluster.overlapIterations,
              spec.cluster.overlapIterations);
    EXPECT_EQ(got.cluster.seed, spec.cluster.seed);
}

TEST(JobSpecText, RejectsGarbage)
{
    EXPECT_THROW(sys::JobSpec::fromText("nonsense"), CosmicError);
    EXPECT_THROW(sys::JobSpec::fromText("frobnicate=1\n"),
                 CosmicError);
    EXPECT_THROW(sys::JobSpec::fromText("workload=stock\nepochs=2x\n"),
                 CosmicError);
    EXPECT_THROW(sys::JobSpec::fromText("workload=stock\nscale=\n"),
                 CosmicError);
    EXPECT_THROW(sys::JobSpec::fromText("epochs=2\n"), // no workload
                 CosmicError);
    EXPECT_THROW(
        sys::JobSpec::fromText("workload=stock\nepochs=-1\n"),
        CosmicError);
    EXPECT_THROW(
        sys::JobSpec::fromText("workload=stock\nmode=turbo\n"),
        CosmicError);
}

// ---------------------------------------------------------------------
// Session layer: bit-exact single-tenant path

TEST(SessionLayer, BitExactAcrossSuiteAndPayloads)
{
    for (const auto &w : ml::Workload::suite()) {
        for (auto payload :
             {accel::Numeric::F64, accel::Numeric::Q16}) {
            const sys::JobSpec spec = smallJob(w.name, payload);
            sys::ClusterRuntime direct(w, spec.scale, spec.cluster);
            const auto want = direct.train(spec.epochs);

            sys::Session session(spec);
            const auto &got = session.run();
            EXPECT_TRUE(bitEqual(got.finalModel, want.finalModel))
                << w.name << " diverged through the Session layer ("
                << accel::numericName(payload) << ")";
            EXPECT_EQ(got.epochLoss, want.epochLoss) << w.name;
        }
    }
}

TEST(SessionLayer, BitExactOverTcp)
{
    sys::JobSpec spec = smallJob("stock", accel::Numeric::Q16);
    spec.cluster.transport.kind = net::TransportKind::Tcp;

    sys::ClusterRuntime direct(ml::Workload::byName("stock"),
                               spec.scale, spec.cluster);
    const auto want = direct.train(spec.epochs);

    sys::Session session(spec);
    EXPECT_TRUE(
        bitEqual(session.run().finalModel, want.finalModel));
}

TEST(SessionLayer, StreamsProgressTransitions)
{
    sys::JobSpec spec = smallJob("stock");
    spec.epochs = 2;
    sys::Session session(spec);
    std::vector<sys::JobState> states;
    int epochs_seen = 0;
    session.setProgressSink([&](const sys::JobProgress &p) {
        states.push_back(p.state);
        epochs_seen = std::max(epochs_seen, p.epochsDone);
    });
    session.run();
    ASSERT_FALSE(states.empty());
    EXPECT_EQ(states.front(), sys::JobState::Preparing);
    EXPECT_EQ(states.back(), sys::JobState::Done);
    EXPECT_NE(std::find(states.begin(), states.end(),
                        sys::JobState::Running),
              states.end());
    EXPECT_EQ(epochs_seen, spec.epochs);
    EXPECT_EQ(session.progress().totalEpochs, spec.epochs);
}

TEST(SessionLayer, UnknownWorkloadFailsWithRecordedError)
{
    sys::Session session(smallJob("no-such-benchmark"));
    EXPECT_THROW(session.run(), CosmicError);
    EXPECT_EQ(session.progress().state, sys::JobState::Failed);
    EXPECT_FALSE(session.progress().error.empty());
}

TEST(SessionLayer, ProgramContradictingDescriptorIsRejected)
{
    const auto &stock = ml::Workload::byName("stock");
    const auto &tumor = ml::Workload::byName("tumor");
    if (ml::DatasetGenerator::modelWords(stock, 64.0) ==
        ml::DatasetGenerator::modelWords(tumor, 64.0))
        GTEST_SKIP() << "need workloads with distinct model widths";
    sys::JobSpec spec = smallJob("stock");
    spec.source = tumor.dslSource(64.0);
    sys::Session session(spec);
    EXPECT_THROW(session.prepare(), CosmicError);
    EXPECT_EQ(session.progress().state, sys::JobState::Failed);
}

TEST(SessionLayer, CancelBeforeRunShortCircuits)
{
    sys::Session session(smallJob("stock"));
    session.cancel();
    const auto &report = session.run();
    EXPECT_EQ(session.progress().state, sys::JobState::Cancelled);
    EXPECT_TRUE(report.finalModel.empty());
}

TEST(SessionLayer, ReleaseRuntimeKeepsTheReport)
{
    sys::Session session(smallJob("stock"));
    const std::vector<double> model = session.run().finalModel;
    // A directly driven session keeps its runtime after run().
    EXPECT_NO_THROW(session.runtime());
    session.releaseRuntime();
    EXPECT_THROW(session.runtime(), CosmicError);
    EXPECT_THROW(session.prepare(), CosmicError);
    EXPECT_EQ(session.progress().state, sys::JobState::Done);
    EXPECT_TRUE(bitEqual(session.report().finalModel, model));
    EXPECT_EQ(session.translation().modelWords,
              static_cast<int64_t>(model.size()));
}

// ---------------------------------------------------------------------
// Scheduler: admission, FIFO, partitioning, counters

TEST(Scheduler, CompletesABurstAndReconcilesCounters)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 4;
    cfg.maxConcurrent = 2;
    cfg.maxQueued = 32;
    sys::JobScheduler scheduler(cfg);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(scheduler.submit(smallJob("stock")));
    scheduler.drain();
    for (uint64_t id : ids)
        EXPECT_EQ(scheduler.progress(id).state, sys::JobState::Done);
    const sys::SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.admitted, 6u);
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.runningNow, 0);
    EXPECT_EQ(stats.freeNodes, cfg.totalNodes);
}

TEST(Scheduler, RunsFifoUnderSingleConcurrency)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::JobScheduler scheduler(cfg);
    std::mutex mu;
    std::vector<uint64_t> done_order;
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        const uint64_t id = scheduler.submit(smallJob("stock"));
        ids.push_back(id);
        scheduler.session(id)->setProgressSink(
            [&, id](const sys::JobProgress &p) {
                if (p.state == sys::JobState::Done) {
                    std::lock_guard<std::mutex> lock(mu);
                    done_order.push_back(id);
                }
            });
    }
    scheduler.drain();
    EXPECT_EQ(done_order, ids);
}

TEST(Scheduler, RejectsWhenQueueFull)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    cfg.maxQueued = 2;
    sys::JobScheduler scheduler(cfg);
    sys::JobSpec slow = smallJob("stock");
    slow.epochs = 3;
    std::vector<uint64_t> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(scheduler.submit(slow));
    int rejected = 0;
    for (uint64_t id : ids) {
        const sys::JobProgress p = scheduler.progress(id);
        if (p.state == sys::JobState::Rejected) {
            ++rejected;
            EXPECT_NE(p.error.find("queue full"), std::string::npos);
        }
    }
    // 8 instant submissions against a 1-deep runway + 2-deep queue:
    // something must have been refused.
    EXPECT_GT(rejected, 0);
    scheduler.drain();
    const sys::SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected));
    EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
}

TEST(Scheduler, RejectsImpossibleResources)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 4;
    sys::JobScheduler scheduler(cfg);
    sys::JobSpec spec = smallJob("stock");
    spec.cluster.nodes = 99;
    const uint64_t id = scheduler.submit(spec);
    const sys::JobProgress p = scheduler.progress(id);
    EXPECT_EQ(p.state, sys::JobState::Rejected);
    EXPECT_NE(p.error.find("99"), std::string::npos);
}

TEST(Scheduler, RejectsInvalidConfigAtAdmission)
{
    sys::JobScheduler scheduler(sys::SchedulerConfig{});
    sys::JobSpec spec = smallJob("stock");
    spec.cluster.maxStaleness = 3; // without overlapIterations
    const uint64_t id = scheduler.submit(spec);
    EXPECT_EQ(scheduler.progress(id).state, sys::JobState::Rejected);
}

TEST(Scheduler, StampsQueueWait)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::JobScheduler scheduler(cfg);
    const uint64_t first = scheduler.submit(smallJob("stock"));
    const uint64_t second = scheduler.submit(smallJob("stock"));
    scheduler.drain();
    EXPECT_EQ(scheduler.progress(first).state, sys::JobState::Done);
    EXPECT_GT(scheduler.progress(second).queueWaitSec, 0.0);
}

TEST(Scheduler, CancelsQueuedJobWithoutRunningIt)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::JobScheduler scheduler(cfg);
    sys::JobSpec slow = smallJob("stock");
    slow.epochs = 3;
    const uint64_t running = scheduler.submit(slow);
    const uint64_t queued = scheduler.submit(slow);
    EXPECT_TRUE(scheduler.cancel(queued));
    scheduler.drain();
    EXPECT_EQ(scheduler.progress(running).state, sys::JobState::Done);
    const sys::JobProgress p = scheduler.progress(queued);
    EXPECT_EQ(p.state, sys::JobState::Cancelled);
    EXPECT_EQ(p.epochsDone, 0);
    EXPECT_FALSE(scheduler.cancel(12345));
}

TEST(Scheduler, CarvedJobBitMatchesSoloRun)
{
    // The solo ground truth: the job's trajectory is a function of
    // sgdShardsPerNode only, so a direct run with the shard count the
    // scheduler will pin (= the requested thread count) is the
    // reference.
    sys::JobSpec spec = smallJob("tumor");
    spec.cluster.acceleratorThreadsPerNode = 4;
    spec.cluster.sgdShardsPerNode = 0; // let the scheduler pin it

    sys::ClusterConfig solo = spec.cluster;
    solo.sgdShardsPerNode = 4;
    sys::ClusterRuntime direct(ml::Workload::byName("tumor"),
                               spec.scale, solo);
    const auto want = direct.train(spec.epochs);

    sys::SchedulerConfig cfg;
    cfg.totalNodes = 4;
    cfg.maxConcurrent = 2;
    cfg.peThreadsPerNode = 4; // each tenant carved to 2 threads
    sys::JobScheduler scheduler(cfg);
    const uint64_t id = scheduler.submit(spec);
    scheduler.drain();

    const auto session = scheduler.session(id);
    ASSERT_EQ(session->progress().state, sys::JobState::Done);
    // The carve really happened...
    EXPECT_EQ(session->spec().cluster.acceleratorThreadsPerNode, 2);
    EXPECT_EQ(session->spec().cluster.compile.forceThreads, 2);
    EXPECT_EQ(session->spec().cluster.sgdShardsPerNode, 4);
    // ...and did not touch the math.
    EXPECT_TRUE(
        bitEqual(session->report().finalModel, want.finalModel));
}

TEST(Scheduler, ReleasesClusterAtTerminalState)
{
    const sys::JobSpec exact = smallJob("tumor");
    sys::Session solo(exact);
    const std::vector<double> want = solo.run().finalModel;

    // Streaming aggregation feeds the engines' pools, so this job
    // starts threads a deterministic one does not.
    sys::JobSpec streaming = smallJob("stock");
    streaming.cluster.aggregation.deterministic = false;
    // Far more epochs than the test waits for: it is cancelled.
    sys::JobSpec slow = smallJob("stock");
    slow.epochs = 20000;
    slow.cluster.recordsPerNode = 256;

    sys::SchedulerConfig cfg;
    cfg.totalNodes = 4;
    cfg.maxConcurrent = 2;
    sys::JobScheduler scheduler(cfg);
    const int before = liveThreads();
    const uint64_t done = scheduler.submit(exact);
    const uint64_t streamed = scheduler.submit(streaming);
    const uint64_t cancelled = scheduler.submit(slow);

    // Cancel the slow job mid-run, once it has finished an epoch.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (scheduler.progress(cancelled).epochsDone < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "slow job never finished an epoch";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(liveThreads(), before) << "a running job has no threads";
    scheduler.cancel(cancelled);
    scheduler.drain();

    // Every cluster is gone: only the scheduler's own workers remain.
    EXPECT_EQ(liveThreadsSettled(before), before);
    EXPECT_EQ(scheduler.progress(done).state, sys::JobState::Done);
    EXPECT_EQ(scheduler.progress(streamed).state, sys::JobState::Done);
    const sys::JobProgress stopped = scheduler.progress(cancelled);
    EXPECT_EQ(stopped.state, sys::JobState::Cancelled);
    EXPECT_LT(stopped.epochsDone, slow.epochs);
    for (uint64_t id : {done, streamed, cancelled})
        EXPECT_THROW(scheduler.session(id)->runtime(), CosmicError);

    // The report outlives the cluster, bit for bit.
    EXPECT_TRUE(
        bitEqual(scheduler.session(done)->report().finalModel, want));
    EXPECT_EQ(scheduler.session(streamed)->report().finalModel.size(),
              static_cast<size_t>(
                  scheduler.session(streamed)->translation().modelWords));
    const sys::SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.freeNodes, cfg.totalNodes);
}

// ---------------------------------------------------------------------
// BuildCache under concurrent sessions

TEST(BuildCacheConcurrency, SameKeyRaceAdoptsOneWinner)
{
    // A source no other test compiles (stock at scale 62), so the
    // race starts cold.
    const std::string source =
        ml::Workload::byName("stock").dslSource(62.0);

    const auto before = compile::BuildCache::instance().stats();
    constexpr int kRacers = 8;
    std::vector<std::shared_ptr<const compile::FrontendArtifact>>
        results(kRacers);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kRacers; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (ready.load() < kRacers) {
            } // start line: maximize the same-key race
            results[i] = compile::translateCached(source);
        });
    }
    for (auto &t : threads)
        t.join();
    const auto after = compile::BuildCache::instance().stats();

    for (const auto &r : results)
        ASSERT_NE(r, nullptr);
    // Whoever wins the insert, everyone must adopt one artifact.
    for (const auto &r : results)
        EXPECT_EQ(r, results[0]);
    EXPECT_EQ(after.entries, before.entries + 1);
    // Stats reconcile: every racer either hit or missed.
    EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
              kRacers);
}

TEST(BuildCacheConcurrency, ConcurrentSessionsShareOneFrontend)
{
    const sys::JobSpec spec = smallJob("texture");
    sys::Session warm(spec);
    warm.prepare(); // ensure the artifact exists

    constexpr int kSessions = 4;
    std::vector<std::unique_ptr<sys::Session>> sessions;
    for (int i = 0; i < kSessions; ++i)
        sessions.push_back(std::make_unique<sys::Session>(spec));
    std::vector<std::thread> threads;
    for (auto &s : sessions)
        threads.emplace_back([&s] { s->prepare(); });
    for (auto &t : threads)
        t.join();

    for (auto &s : sessions)
        EXPECT_EQ(&s->translation(), &warm.translation())
            << "sessions did not share the cached frontend";
}

// ---------------------------------------------------------------------
// Front door over TCP

TEST(ServiceFrontDoor, SubmitWaitResultRoundTrip)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 4;
    cfg.maxConcurrent = 2;
    sys::ServiceFrontDoor door(cfg, "127.0.0.1:0");
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(door.port());

    for (auto payload :
         {accel::Numeric::F64, accel::Numeric::Q16}) {
        const sys::JobSpec spec = smallJob("stock", payload);
        sys::ClusterRuntime direct(ml::Workload::byName("stock"),
                                   spec.scale, spec.cluster);
        const auto want = direct.train(spec.epochs);

        sys::ServiceClient client(endpoint);
        sys::JobProgress ack;
        const uint64_t id = client.submit(spec, &ack);
        EXPECT_NE(ack.state, sys::JobState::Rejected);
        const sys::JobProgress done = client.wait(id);
        ASSERT_EQ(done.state, sys::JobState::Done) << done.error;
        EXPECT_EQ(done.epochsDone, spec.epochs);
        EXPECT_TRUE(bitEqual(client.result(id), want.finalModel))
            << "service trajectory diverged over the wire";
    }
}

TEST(ServiceFrontDoor, RejectsMalformedSubmission)
{
    sys::ServiceFrontDoor door(sys::SchedulerConfig{}, "127.0.0.1:0");
    sys::ServiceClient client("127.0.0.1:" +
                              std::to_string(door.port()));
    sys::JobSpec bad = smallJob("stock");
    bad.epochs = -1; // fromText refuses on the server side
    sys::JobProgress ack;
    client.submit(bad, &ack);
    EXPECT_EQ(ack.state, sys::JobState::Rejected);
    EXPECT_FALSE(ack.error.empty());
}

TEST(ServiceFrontDoor, UnknownJobIdIsRejectedNotGuessed)
{
    sys::ServiceFrontDoor door(sys::SchedulerConfig{}, "127.0.0.1:0");
    sys::ServiceClient client("127.0.0.1:" +
                              std::to_string(door.port()));
    const sys::JobProgress p = client.status(424242);
    EXPECT_EQ(p.state, sys::JobState::Rejected);
    EXPECT_NE(p.error.find("unknown job id"), std::string::npos);
    EXPECT_THROW(client.result(424242), CosmicError);
}

TEST(ServiceFrontDoor, CancelOverTheWire)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::ServiceFrontDoor door(cfg, "127.0.0.1:0");
    sys::ServiceClient client("127.0.0.1:" +
                              std::to_string(door.port()));

    sys::JobSpec slow = smallJob("stock");
    slow.epochs = 200;
    slow.cluster.recordsPerNode = 256;
    const uint64_t running = client.submit(slow);
    const uint64_t queued = client.submit(slow);
    client.cancel(queued);
    client.cancel(running);
    EXPECT_EQ(client.wait(queued).state, sys::JobState::Cancelled);
    const sys::JobProgress p = client.wait(running);
    EXPECT_EQ(p.state, sys::JobState::Cancelled);
    EXPECT_LT(p.epochsDone, slow.epochs);
}

TEST(ServiceFrontDoor, ResultOutlivesReleasedCluster)
{
    const sys::JobSpec spec = smallJob("tumor", accel::Numeric::Q16);
    sys::Session solo(spec);
    const std::vector<double> want = solo.run().finalModel;

    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::ServiceFrontDoor door(cfg, "127.0.0.1:0");
    sys::ServiceClient client("127.0.0.1:" +
                              std::to_string(door.port()));
    const uint64_t id = client.submit(spec);
    ASSERT_EQ(client.wait(id).state, sys::JobState::Done);
    // drain() returns only after the worker released the cluster.
    door.scheduler().drain();
    EXPECT_THROW(door.scheduler().session(id)->runtime(), CosmicError);
    EXPECT_TRUE(bitEqual(client.result(id), want));
    EXPECT_EQ(client.status(id).state, sys::JobState::Done);
}

TEST(ServiceFrontDoor, SubscriberHangingUpMidRunDoesNotFailTheJob)
{
    sys::JobSpec spec = smallJob("stock");
    spec.epochs = 60;
    sys::Session solo(spec);
    const std::vector<double> want = solo.run().finalModel;

    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::ServiceFrontDoor door(cfg, "127.0.0.1:0");
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(door.port());
    sys::ServiceClient owner(endpoint);
    const uint64_t id = owner.submit(spec);
    {
        // Subscribe, take the first push of the running job, then
        // vanish: the socket closes with unread pushes queued, so the
        // kernel resets the connection and the next push from the
        // job's thread fails with EPIPE or ECONNRESET.
        sys::ServiceClient subscriber(endpoint);
        struct HungUp
        {};
        EXPECT_THROW(subscriber.wait(id,
                                     [](const sys::JobProgress &p) {
                                         if (p.state ==
                                             sys::JobState::Running)
                                             throw HungUp{};
                                     }),
                     HungUp);
    }
    // The owner polls rather than subscribes, so the dead connection
    // keeps the job's progress sink.
    door.scheduler().drain();
    const sys::JobProgress done = owner.status(id);
    ASSERT_EQ(done.state, sys::JobState::Done) << done.error;
    EXPECT_EQ(done.epochsDone, spec.epochs);
    EXPECT_TRUE(bitEqual(owner.result(id), want));

    // The front door keeps serving a second client.
    sys::ServiceClient second(endpoint);
    const uint64_t next = second.submit(smallJob("tumor"));
    EXPECT_EQ(second.wait(next).state, sys::JobState::Done);
}

TEST(ServiceFrontDoor, ReapsClosedConnections)
{
    sys::SchedulerConfig cfg;
    cfg.totalNodes = 2;
    cfg.maxConcurrent = 1;
    sys::ServiceFrontDoor door(cfg, "127.0.0.1:0");
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(door.port());
    const sys::JobSpec spec = smallJob("stock");
    auto cycle = [&](int i) {
        sys::ServiceClient client(endpoint);
        const uint64_t id = client.submit(spec);
        ASSERT_EQ(client.wait(id).state, sys::JobState::Done) << i;
        EXPECT_FALSE(client.result(id).empty()) << i;
    };
    // Warm-up: the first job fills the build cache, and the allocator
    // and any sanitizer runtime make their one-time mappings for
    // threads (about 70 regions under TSan within the first 64
    // connections, flat after that).
    for (int i = 0; i < 64; ++i)
        cycle(-1 - i);
    door.scheduler().drain();
    const int threads = liveThreads();
    const int regions = mappedRegions();
    for (int i = 0; i < 64; ++i)
        cycle(i);
    door.scheduler().drain();
    // No job keeps a cluster, and each accept joins the handlers whose
    // client already hung up, so only the last few can be unjoined. An
    // unjoined handler has exited (it is not in /proc/self/task) but
    // still maps its stack and guard page.
    EXPECT_LE(liveThreadsSettled(threads + 2), threads + 2);
    EXPECT_LE(mappedRegions(), regions + 16);
}
