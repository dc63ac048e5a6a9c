#include "system/cluster_runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "compiler/pipeline.h"

namespace cosmic::sys {

void
ClusterConfig::validate() const
{
    if (nodes <= 0)
        COSMIC_FATAL("ClusterConfig: nodes must be positive (got "
                     << nodes << ")");
    if (groups < 0 || groups > nodes)
        COSMIC_FATAL("ClusterConfig: groups (" << groups
                     << ") must lie in [0, nodes = " << nodes << "]");
    if (acceleratorThreadsPerNode <= 0)
        COSMIC_FATAL("ClusterConfig: acceleratorThreadsPerNode must "
                     "be positive (got "
                     << acceleratorThreadsPerNode << ")");
    if (sgdShardsPerNode < 0)
        COSMIC_FATAL("ClusterConfig: sgdShardsPerNode must be >= 0 "
                     "(got " << sgdShardsPerNode << ")");
    if (!std::isfinite(learningRate) || learningRate <= 0.0)
        COSMIC_FATAL("ClusterConfig: learningRate must be a positive "
                     "finite value (got " << learningRate << ")");
    if (minibatchPerNode <= 0)
        COSMIC_FATAL("ClusterConfig: minibatchPerNode must be "
                     "positive (got " << minibatchPerNode << ")");
    if (recordsPerNode <= 0)
        COSMIC_FATAL("ClusterConfig: recordsPerNode must be positive "
                     "(got " << recordsPerNode << ")");
    if (maxStaleness < 0)
        COSMIC_FATAL("ClusterConfig: maxStaleness must be >= 0 (got "
                     << maxStaleness << ")");
    if (maxStaleness > 0 && !overlapIterations)
        COSMIC_FATAL(
            "ClusterConfig: maxStaleness = "
            << maxStaleness
            << " requires overlapIterations — bounded-staleness "
               "async SGD is a pipelined protocol; set "
               "overlapIterations = true (or maxStaleness = 0)");
    if (streamChunkWords < 0)
        COSMIC_FATAL("ClusterConfig: streamChunkWords must be >= 0 "
                     "(got " << streamChunkWords << ")");
}

ClusterRuntime::ClusterRuntime(const ml::Workload &workload, double scale,
                               const ClusterConfig &config)
    : ClusterRuntime(workload, scale, config,
                     // Cached compile-pipeline frontend: repeated
                     // runtimes (and tenants) over the same workload
                     // share one parse/translate/optimize.
                     compile::translateCached(workload.dslSource(scale),
                                              config.compile))
{
}

ClusterRuntime::ClusterRuntime(
    const ml::Workload &workload, double scale,
    const ClusterConfig &config,
    std::shared_ptr<const compile::FrontendArtifact> frontend)
    : workload_(workload), scale_(scale), config_(config),
      frontend_(std::move(frontend)),
      topology_(SystemDirector::assign(
          config.nodes, config.groups > 0
                            ? config.groups
                            : SystemDirector::defaultGroups(config.nodes))),
      reference_(workload_, scale)
{
    config_.validate();
    COSMIC_ASSERT(frontend_, "ClusterRuntime needs a compiled frontend");
    if (config_.streamChunkWords > frontend_->translation.modelWords)
        COSMIC_FATAL("ClusterConfig: streamChunkWords ("
                     << config_.streamChunkWords
                     << ") exceeds the model width ("
                     << frontend_->translation.modelWords
                     << " words); chunks wider than the vector "
                        "cannot stream");
    Rng rng(config_.seed);
    NodeComputeConfig node_config;
    node_config.acceleratorThreads = config_.acceleratorThreadsPerNode;
    node_config.sgdShards = config_.sgdShardsPerNode;
    node_config.learningRate = config_.learningRate;

    // One shared payload recycler: engines release consumed payloads
    // into it and runIteration acquires its message buffers from it.
    pool_ = std::make_shared<BufferPool>();
    config_.aggregation.pool = pool_;

    // One teacher, so every partition (and the holdout) shares the
    // same hidden ground-truth model; each node's records are then
    // synthesized in place, exactly as slices of
    // generate(nodes * recordsPerNode + holdout, Rng(seed)).
    const ml::Teacher teacher(workload_, scale_,
                              ml::DatasetGenerator::drawKey(rng));
    tape_ = std::make_unique<const dfg::Tape>(frontend_->translation);
    for (int i = 0; i < config_.nodes; ++i) {
        nodes_.push_back(std::make_unique<TrainingNode>(
            *tape_,
            teacher.records(i * config_.recordsPerNode,
                            config_.recordsPerNode),
            node_config));
    }
    // The fabric: in-process channels by default, TCP when selected —
    // the protocol above this seam is identical either way.
    transports_ = net::makeTransports(config_.transport, config_.nodes,
                                      pool_.get());

    engines_.resize(config_.nodes);
    for (const auto &n : topology_.nodes) {
        if (n.role != NodeRole::Delta)
            engines_[n.id] =
                std::make_unique<AggregationEngine>(config_.aggregation);
    }

    holdout_ = teacher.records(config_.nodes * config_.recordsPerNode,
                               std::min<int64_t>(128,
                                                 config_.recordsPerNode));

    // Fault injection and the failure-tolerant protocol: zero-cost
    // when disabled (no injector, blocking receives, identical math).
    faultsActive_ =
        config_.faultTolerance.enabled || !config_.faultPlan.empty();
    if (faultsActive_) {
        for (const auto &c : config_.faultPlan.crashes()) {
            COSMIC_ASSERT(c.node >= 0 && c.node < config_.nodes,
                          "fault plan crashes unknown node " << c.node);
            if (c.node == topology_.masterId())
                COSMIC_FATAL("fault plan kills the master Sigma (node "
                             << c.node
                             << "): master failover is unsupported");
        }
        injector_ =
            std::make_unique<FaultInjector>(config_.faultPlan);
        for (int i = 0; i < config_.nodes; ++i) {
            // The drop/delay/duplicate seam is the transport, so the
            // same chaos plan behaves identically on either backend.
            transports_[i]->setFaultInjector(injector_.get());
            nodes_[i]->setFaultInjector(injector_.get(), i);
        }
    }
    // Pipelined (barrier-free) iterations. Crash-fault plans keep the
    // barrier — the eviction/repair machinery needs the iteration
    // boundary.
    pipelineActive_ =
        config_.overlapIterations && config_.faultPlan.crashes().empty();
    for (int i = 0; i < config_.nodes; ++i)
        nodeRuntimes_.push_back(makeNodeRuntime(i));
    nodeResults_.resize(config_.nodes);
    missStreak_.resize(config_.nodes, 0);

    // One long-lived worker per node: each iteration's node tasks all
    // block on each other's channels, so the pool must be able to run
    // every node concurrently.
    nodeWorkers_ = std::make_unique<ThreadPool>(config_.nodes);
}

const dfg::Translation &
ClusterRuntime::translation() const
{
    return frontend_->translation;
}

ClusterRuntime::~ClusterRuntime()
{
    // Stop the workers before tearing down the fabric they block on.
    nodeWorkers_.reset();
    for (auto &transport : transports_)
        transport->shutdown();
}

std::unique_ptr<NodeRuntime>
ClusterRuntime::makeNodeRuntime(int id)
{
    NodeRuntimeConfig nc;
    nc.mode = config_.mode;
    nc.learningRate = config_.learningRate;
    nc.minibatchPerNode = config_.minibatchPerNode;
    nc.faultTolerance = config_.faultTolerance;
    nc.faultsActive = faultsActive_;
    nc.payload = config_.transport.payload;
    nc.maxStaleness = config_.maxStaleness;
    nc.streamChunkWords = config_.streamChunkWords;
    return std::make_unique<NodeRuntime>(
        frontend_->translation, nc, *nodes_[id], *transports_[id],
        engines_[id].get(), *pool_);
}

void
ClusterRuntime::applyRepairs()
{
    const int master = topology_.masterId();
    std::vector<char> suspected(config_.nodes, 0);
    for (const auto &res : nodeResults_)
        for (int id : res.suspects)
            if (id >= 0 && id < config_.nodes)
                suspected[id] = 1;

    // A suspect must miss evictAfterMisses consecutive iterations
    // before the Director gives up on it — one late partial (a
    // straggler, a dropped message) is forgiven. The master is never
    // evicted: it is this process's coordinator and master failover
    // is out of scope.
    std::vector<int> evict;
    for (const auto &n : topology_.nodes) {
        if (n.id == master)
            continue;
        if (suspected[n.id]) {
            if (++missStreak_[n.id] >=
                config_.faultTolerance.evictAfterMisses)
                evict.push_back(n.id);
        } else {
            missStreak_[n.id] = 0;
        }
    }
    if (evict.empty())
        return;

    auto repair = SystemDirector::repair(topology_, evict);
    topology_ = std::move(repair.topology);
    recovery_.nodesEvicted += repair.removed;
    recovery_.sigmaPromotions += repair.promotions;
    ++recovery_.topologyRepairs;
    // A promoted Delta needs a Sigma's aggregation engine (and its
    // protocol executor rebound to it).
    for (const auto &n : topology_.nodes)
        if (n.role != NodeRole::Delta && !engines_[n.id]) {
            engines_[n.id] =
                std::make_unique<AggregationEngine>(config_.aggregation);
            nodeRuntimes_[n.id] = makeNodeRuntime(n.id);
        }
}

namespace {

/** Folds one node's share of a round into the cluster's counters: the
 *  slowest node's times, the cluster sums and the records. */
void
addNodeRound(IterationStats &stats, const NodeRuntime::Result &res)
{
    stats.maxComputeSec = std::max(stats.maxComputeSec, res.computeSec);
    stats.maxAggregationSec =
        std::max(stats.maxAggregationSec, res.aggregationSec);
    stats.sumComputeSec += res.computeSec;
    stats.sumAggregationSec += res.aggregationSec;
    stats.records += res.records;
}

} // namespace

std::vector<double>
ClusterRuntime::runIteration(const std::vector<double> &model,
                             uint64_t seq, IterationStats *stats)
{
    // Crashed and evicted nodes run no role; their slots read zero.
    for (auto &res : nodeResults_)
        res.clear();
    const int master = topology_.masterId();
    for (const auto &assign : topology_.nodes) {
        // A crashed node's process is gone: it computes nothing and
        // sends nothing, and its silence is what the timeouts detect.
        if (faultsActive_ && injector_->crashed(assign.id, seq))
            continue;
        nodeWorkers_->submit([this, assign, &model, seq, master] {
            NodeRuntime::Result &res = nodeResults_[assign.id];
            nodeRuntimes_[assign.id]->runRole(assign, topology_, model,
                                              seq, res);
            // In-process nodes share the master's model by reference;
            // every received broadcast copy goes back to the pool.
            if (assign.id != master)
                pool_->release(std::move(res.model));
        });
    }
    nodeWorkers_->waitIdle();
    std::vector<double> new_model = std::move(nodeResults_[master].model);
    COSMIC_ASSERT(!new_model.empty(), "master produced no model");

    if (faultsActive_) {
        for (const auto &res : nodeResults_)
            recovery_ += res.recovery;
        applyRepairs();
    }

    if (stats) {
        *stats = IterationStats{};
        for (const auto &res : nodeResults_)
            addNodeRound(*stats, res);
    }
    return new_model;
}

RecoveryStats
ClusterRuntime::recovery() const
{
    RecoveryStats merged = recovery_;
    for (const auto &engine : engines_) {
        if (!engine)
            continue;
        merged.duplicatesDropped += engine->duplicatesDropped();
        merged.staleDropped += engine->staleDropped();
        merged.malformedDropped += engine->malformedDropped();
    }
    if (injector_) {
        merged.messagesDropped = injector_->messagesDropped();
        merged.messagesDelayed = injector_->messagesDelayed();
        merged.messagesDuplicated = injector_->messagesDuplicated();
        merged.stragglerStalls = injector_->stragglerStalls();
    }
    return merged;
}

net::NetStats
ClusterRuntime::netStats() const
{
    net::NetStats total;
    for (const auto &transport : transports_)
        total += transport->stats();
    return total;
}

TrainingReport
ClusterRuntime::train(int epochs, RunControl *control)
{
    if (pipelineActive_)
        return trainPipelined(epochs, control);
    TrainingReport report;

    Rng rng(config_.seed + 1);
    std::vector<double> model =
        ml::DatasetGenerator::initialModel(workload_, scale_, rng);
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) ==
                      frontend_->translation.modelWords,
                  "initial model does not match the translation layout");

    report.epochLoss.push_back(reference_.meanLoss(
        holdout_.data, holdout_.count, model));

    int64_t iters_per_epoch =
        (config_.recordsPerNode + config_.minibatchPerNode - 1) /
        config_.minibatchPerNode;
    uint64_t seq = 0;
    for (int e = 0; e < epochs && !report.cancelled; ++e) {
        for (int64_t i = 0; i < iters_per_epoch; ++i) {
            // Cooperative cancel: the iteration boundary is the only
            // point where no node holds in-flight protocol state.
            if (control && control->cancel.load()) {
                report.cancelled = true;
                break;
            }
            auto start = std::chrono::steady_clock::now();
            IterationStats stats;
            std::vector<double> next =
                runIteration(model, seq++, &stats);
            // Recycle the superseded model: it becomes a future
            // message payload, closing the steady-state buffer loop.
            pool_->release(std::move(model));
            model = std::move(next);
            double iter_sec =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            report.iterationSeconds.push_back(iter_sec);
            report.iterationStats.push_back(stats);
        }
        if (report.cancelled)
            break;
        report.epochLoss.push_back(reference_.meanLoss(
            holdout_.data, holdout_.count, model));
        if (control && control->onEpoch)
            control->onEpoch(e + 1, report.epochLoss.back(), seq);
    }
    report.iterations = static_cast<int>(seq);
    report.finalModel = std::move(model);
    // Post-repair state: the surviving role map and what recovery did.
    report.topology = topology_;
    report.recovery = recovery();
    report.net = netStats();
    return report;
}

namespace {

/** Folds the pipelined run's per-node round reports into per-round
 *  counters and streams the master's models to the train loop. */
class PipelineCollector : public NodeRuntime::PipelineSink
{
  public:
    explicit PipelineCollector(uint64_t rounds) : stats_(rounds) {}

    void
    onRound(uint64_t seq, const NodeRuntime::Result &res) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        addNodeRound(stats_[seq], res);
    }

    void
    onModel(uint64_t seq, std::vector<double> model) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        models_.emplace_back(seq, std::move(model));
        cv_.notify_all();
    }

    /** Blocks for the next model in the master's stream. */
    std::pair<uint64_t, std::vector<double>>
    nextModel()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !models_.empty(); });
        auto entry = std::move(models_.front());
        models_.pop_front();
        return entry;
    }

    /** The per-round counters; call once every node has finished. */
    std::vector<IterationStats>
    takeStats()
    {
        return std::move(stats_);
    }

  private:
    std::vector<IterationStats> stats_;

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::pair<uint64_t, std::vector<double>>> models_;
};

} // namespace

TrainingReport
ClusterRuntime::trainPipelined(int epochs, RunControl *control)
{
    TrainingReport report;

    Rng rng(config_.seed + 1);
    std::vector<double> model0 =
        ml::DatasetGenerator::initialModel(workload_, scale_, rng);
    COSMIC_ASSERT(static_cast<int64_t>(model0.size()) ==
                      frontend_->translation.modelWords,
                  "initial model does not match the translation layout");
    report.epochLoss.push_back(
        reference_.meanLoss(holdout_.data, holdout_.count, model0));

    const int64_t iters_per_epoch =
        (config_.recordsPerNode + config_.minibatchPerNode - 1) /
        config_.minibatchPerNode;
    const uint64_t rounds =
        static_cast<uint64_t>(epochs) *
        static_cast<uint64_t>(iters_per_epoch);
    PipelineCollector collector(rounds);

    // Launch every node's free-running loop; the workers block on each
    // other's channels, and the pool holds one thread per node.
    std::vector<NodeRuntime::PipelineResult> results(config_.nodes);
    for (const auto &assign : topology_.nodes) {
        nodeWorkers_->submit(
            [this, assign, &model0, rounds, &collector, &results] {
                results[assign.id] =
                    nodeRuntimes_[assign.id]->runPipelined(
                        assign, topology_, model0, rounds, collector);
            });
    }

    // Consume the master's model stream. Everything on this thread —
    // including the held-out epoch-loss evaluation — overlaps the
    // cluster's next rounds; under the barrier protocol the whole
    // cluster idled through it.
    std::vector<double> model = model0;
    auto last_arrival = std::chrono::steady_clock::now();
    for (uint64_t k = 0; k < rounds; ++k) {
        auto entry = collector.nextModel();
        COSMIC_ASSERT(entry.first == k,
                      "master models out of order: got "
                          << entry.first << " expected " << k);
        auto now = std::chrono::steady_clock::now();
        report.iterationSeconds.push_back(
            std::chrono::duration<double>(now - last_arrival).count());
        last_arrival = now;
        pool_->release(std::move(model));
        model = std::move(entry.second);
        if ((k + 1) % static_cast<uint64_t>(iters_per_epoch) == 0) {
            report.epochLoss.push_back(reference_.meanLoss(
                holdout_.data, holdout_.count, model));
            if (control && control->onEpoch)
                control->onEpoch(
                    static_cast<int>((k + 1) /
                                     static_cast<uint64_t>(
                                         iters_per_epoch)),
                    report.epochLoss.back(), k + 1);
        }
        // The free-running nodes are committed to their scheduled
        // rounds (stopping them mid-protocol would strand in-flight
        // partials), so a cancel is recorded but the run drains.
        if (control && control->cancel.load())
            report.cancelled = true;
    }
    nodeWorkers_->waitIdle();

    report.iterationStats = collector.takeStats();
    for (const auto &r : results) {
        recovery_ += r.recovery;
        report.staleness += r.staleness;
    }
    for (const auto &engine : engines_) {
        if (!engine)
            continue;
        report.staleness.stalePartialsAccepted +=
            engine->staleAccepted();
        report.staleness.tooStaleDropped += engine->tooStaleDropped();
        report.staleness.maxEpochLag = std::max(
            report.staleness.maxEpochLag, engine->maxEpochLag());
    }

    report.iterations = static_cast<int>(rounds);
    report.finalModel = std::move(model);
    report.topology = topology_;
    report.recovery = recovery();
    report.net = netStats();
    return report;
}

} // namespace cosmic::sys
