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

/**
 * What the nodes report over one segment. Each node writes only its own
 * slot, so reporting a round takes no lock; the master's streamed
 * models (multi-round segments only) go through a locked queue that the
 * train loop drains while the nodes run on.
 */
class ClusterRuntime::SegmentLog : public NodeRuntime::Sink
{
  public:
    /** One node's reports over the segment. */
    struct Slot
    {
        /** The node's share of each round: its own times stand for
         *  both the slowest node's and the cluster sum. */
        std::vector<IterationStats> rounds;
        RecoveryStats recovery;
        StalenessStats staleness;
        std::vector<int> suspects;
    };

    SegmentLog(int nodes, BufferPool &pool) : slots(nodes), pool_(pool) {}

    /** Empties every slot for rounds [@p first, @p last); slots keep
     *  their capacity. */
    void
    begin(uint64_t first, uint64_t last)
    {
        first_ = first;
        for (Slot &slot : slots) {
            slot.rounds.assign(last - first, IterationStats{});
            slot.recovery = RecoveryStats{};
            slot.staleness = StalenessStats{};
            slot.suspects.clear();
        }
    }

    void
    onRound(int node, uint64_t seq, const NodeRuntime::Result &res) override
    {
        Slot &slot = slots[node];
        slot.rounds[seq - first_] = {res.computeSec, res.aggregationSec,
                                     res.computeSec, res.aggregationSec,
                                     res.records};
        slot.recovery += res.recovery;
        slot.staleness += res.staleness;
        slot.suspects.insert(slot.suspects.end(), res.suspects.begin(),
                             res.suspects.end());
    }

    void
    onModel(uint64_t seq, const std::vector<double> &model) override
    {
        std::vector<double> copy = pool_.acquire(model.size());
        std::copy(model.begin(), model.end(), copy.begin());
        std::lock_guard<std::mutex> lock(mutex_);
        models_.emplace_back(seq, std::move(copy));
        cv_.notify_all();
    }

    /** Blocks for the master's round-@p seq model. */
    std::vector<double>
    nextModel(uint64_t seq)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !models_.empty(); });
        COSMIC_ASSERT(models_.front().first == seq,
                      "master models out of order: got "
                          << models_.front().first << " expected "
                          << seq);
        std::vector<double> model = std::move(models_.front().second);
        models_.pop_front();
        return model;
    }

    /** Indexed by node id; crashed and evicted nodes' slots read
     *  zero. */
    std::vector<Slot> slots;
    /** The master's runSegment() result. */
    std::vector<double> finalModel;

  private:
    BufferPool &pool_;
    uint64_t first_ = 0;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::pair<uint64_t, std::vector<double>>> models_;
};

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
    // Pipelined (barrier-free) iterations: the whole run is one
    // segment. Crash-fault plans keep one-round segments — eviction
    // and topology repair run between segments.
    pipelineActive_ =
        config_.overlapIterations && config_.faultPlan.crashes().empty();
    for (int i = 0; i < config_.nodes; ++i)
        nodeRuntimes_.push_back(makeNodeRuntime(i));
    log_ = std::make_unique<SegmentLog>(config_.nodes, *pool_);
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
    for (const auto &slot : log_->slots)
        for (int id : slot.suspects)
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

void
ClusterRuntime::launch(const std::vector<double> &model, uint64_t first,
                       uint64_t last)
{
    log_->begin(first, last);
    const int master = topology_.masterId();
    for (const auto &assign : topology_.nodes) {
        // A crashed node's process is gone: it computes nothing and
        // sends nothing, and its silence is what the timeouts detect.
        // Crash plans run one-round segments, so `first` is the round.
        if (faultsActive_ && injector_->crashed(assign.id, first))
            continue;
        nodeWorkers_->submit([this, assign, &model, first, last, master] {
            std::vector<double> held = nodeRuntimes_[assign.id]->runSegment(
                assign, topology_, model, first, last, *log_);
            // In-process nodes share the master's model; every other
            // node's copy goes back to the pool.
            if (assign.id == master)
                log_->finalModel = std::move(held);
            else
                pool_->release(std::move(held));
        });
    }
}

std::vector<double>
ClusterRuntime::join(uint64_t first, uint64_t last)
{
    nodeWorkers_->waitIdle();
    std::vector<double> next = std::move(log_->finalModel);
    COSMIC_ASSERT(!next.empty(), "master produced no model");

    roundStats_.assign(last - first, IterationStats{});
    for (const auto &slot : log_->slots) {
        for (size_t r = 0; r < roundStats_.size(); ++r) {
            IterationStats &stats = roundStats_[r];
            const IterationStats &node = slot.rounds[r];
            stats.maxComputeSec =
                std::max(stats.maxComputeSec, node.maxComputeSec);
            stats.maxAggregationSec =
                std::max(stats.maxAggregationSec, node.maxAggregationSec);
            stats.sumComputeSec += node.sumComputeSec;
            stats.sumAggregationSec += node.sumAggregationSec;
            stats.records += node.records;
        }
        recovery_ += slot.recovery;
        staleness_ += slot.staleness;
    }
    // Miss streaks count consecutive rounds, so only a one-round
    // segment may evict; a pipelined run never does.
    if (faultsActive_ && last - first == 1)
        applyRepairs();
    return next;
}

std::vector<double>
ClusterRuntime::runIteration(const std::vector<double> &model,
                             uint64_t seq, IterationStats *stats)
{
    launch(model, seq, seq + 1);
    std::vector<double> next = join(seq, seq + 1);
    if (stats)
        *stats = roundStats_.front();
    return next;
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
    TrainingReport report;
    staleness_ = StalenessStats{};

    Rng rng(config_.seed + 1);
    std::vector<double> model =
        ml::DatasetGenerator::initialModel(workload_, scale_, rng);
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) ==
                      frontend_->translation.modelWords,
                  "initial model does not match the translation layout");
    report.epochLoss.push_back(reference_.meanLoss(
        holdout_.data, holdout_.count, model));

    const uint64_t iters_per_epoch = static_cast<uint64_t>(
        (config_.recordsPerNode + config_.minibatchPerNode - 1) /
        config_.minibatchPerNode);
    const uint64_t rounds =
        static_cast<uint64_t>(epochs) * iters_per_epoch;
    // The segment-length rule: one segment over the whole run when
    // pipelined, otherwise one round per segment (the barrier).
    const uint64_t segment_rounds = pipelineActive_ ? rounds : 1;

    // Round k's new model, on this thread: time it, and at an epoch end
    // evaluate it. Inside a multi-round segment this overlaps the
    // cluster's next rounds; after a one-round segment it runs before
    // the next launch, outside the timed round.
    auto mark = std::chrono::steady_clock::now();
    auto finish_round = [&](uint64_t k, const std::vector<double> &m) {
        const auto now = std::chrono::steady_clock::now();
        report.iterationSeconds.push_back(
            std::chrono::duration<double>(now - mark).count());
        mark = now;
        if ((k + 1) % iters_per_epoch != 0)
            return;
        report.epochLoss.push_back(
            reference_.meanLoss(holdout_.data, holdout_.count, m));
        if (control && control->onEpoch)
            control->onEpoch(static_cast<int>((k + 1) / iters_per_epoch),
                             report.epochLoss.back(), k + 1);
    };

    uint64_t done = 0;
    for (;;) {
        // Cooperative cancel: a segment boundary is the only point
        // where no node holds in-flight protocol state.
        report.cancelled = control && control->cancel.load();
        if (report.cancelled || done == rounds)
            break;
        const uint64_t last = std::min(rounds, done + segment_rounds);
        mark = std::chrono::steady_clock::now();
        launch(model, done, last);
        for (uint64_t k = done; k + 1 < last; ++k) {
            std::vector<double> streamed = log_->nextModel(k);
            finish_round(k, streamed);
            pool_->release(std::move(streamed));
        }
        std::vector<double> next = join(done, last);
        report.iterationStats.insert(report.iterationStats.end(),
                                     roundStats_.begin(),
                                     roundStats_.end());
        finish_round(last - 1, next);
        // Recycle the superseded model: it becomes a future message
        // payload, closing the steady-state buffer loop.
        pool_->release(std::move(model));
        model = std::move(next);
        done = last;
    }

    report.iterations = static_cast<int>(done);
    report.finalModel = std::move(model);
    report.staleness = staleness_;
    for (const auto &engine : engines_) {
        if (!engine)
            continue;
        report.staleness.stalePartialsAccepted +=
            engine->staleAccepted();
        report.staleness.tooStaleDropped += engine->tooStaleDropped();
        report.staleness.maxEpochLag = std::max(
            report.staleness.maxEpochLag, engine->maxEpochLag());
    }
    // Post-repair state: the surviving role map and what recovery did.
    report.topology = topology_;
    report.recovery = recovery();
    report.net = netStats();
    return report;
}

} // namespace cosmic::sys
