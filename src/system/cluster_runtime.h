/**
 * @file
 * The functional scale-out training runtime.
 *
 * This is the whole CoSMIC system software running in one process: the
 * System Director assigns Sigma/Delta roles, every node runs on its own
 * thread, partial updates travel over channels (the "sockets"), Sigma
 * nodes aggregate through their networking/aggregation thread pools and
 * circular buffers, and the master broadcasts the new model down the
 * hierarchy. Training demonstrably converges — the convergence tests
 * ride on this runtime.
 *
 * train() is one loop over segments of rounds: each segment launches
 * every node's NodeRuntime::runSegment once and ends drained, and the
 * loop folds counters, repairs the topology, checks for cancel and
 * evaluates between segments. The barrier protocol is segments of one
 * round; the pipelined protocol (overlapIterations) is one segment
 * over the whole run.
 *
 * Failure tolerance: with a FaultPlan installed (or the tolerant
 * protocol force-enabled) every receive is bounded by a timeout with
 * retry/backoff, Sigma nodes aggregate whichever k of n partials
 * arrive and rescale the Eq. 3 weights by the surviving contributor
 * count, sequence numbers reconcile duplicated and late messages, and
 * nodes that miss enough consecutive rounds are evicted by a
 * Director-driven topology repair (a dead GroupSigma's group promotes
 * a Delta; a dead Delta shrinks its group). With the machinery
 * disabled — the default — every hook is a null check and the
 * trajectory is the original bit-exact math.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "compiler/kernel.h"
#include "dfg/translator.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "ml/workloads.h"
#include "net/transport.h"
#include "system/aggregation.h"
#include "system/channel.h"
#include "system/director.h"
#include "system/fault.h"
#include "system/node_runtime.h"
#include "system/thread_pool.h"
#include "system/training_node.h"

namespace cosmic::compile {
struct FrontendArtifact;
}

namespace cosmic::sys {

/** Scale-out training configuration. TrainingMode (ModelAveraging vs
 *  BatchedGradient) lives in node_runtime.h with the per-node
 *  protocol. */
struct ClusterConfig
{
    TrainingMode mode = TrainingMode::ModelAveraging;
    int nodes = 4;
    /** 0 = let the Director pick (nodes/4, min 1). */
    int groups = 0;
    int acceleratorThreadsPerNode = 2;
    /** Local-SGD shards per node (the accelerator's t_max thread
     *  dimension); 0 = one per accelerator thread. Shards beyond the
     *  thread count are swept in turn by the node's threads. The
     *  training math depends only on this count, never on threads. */
    int sgdShardsPerNode = 0;
    double learningRate = 0.05;
    /** Mini-batch size b per node per iteration (Eq. 3a). */
    int64_t minibatchPerNode = 64;
    /** Records synthesized per node partition. */
    int64_t recordsPerNode = 256;
    uint64_t seed = 0x5eed;
    AggregationConfig aggregation;

    /**
     * Which fabric carries the messages: the in-process channels
     * (default; bit-exact with the pre-transport runtime) or the TCP
     * backend with the real wire protocol. transport.payload selects
     * the wire encoding (F64 or Q16); runs are bit-identical across
     * backends for either encoding when aggregation.deterministic is
     * set.
     */
    net::TransportConfig transport;

    /** Compile-pipeline options for the workload's DFG (the runtime
     *  builds through compile::translateCached; passes default on). */
    compiler::CompileOptions compile;

    /**
     * Deterministic fault schedule (crashes, link faults,
     * stragglers). A non-empty plan activates the failure-tolerant
     * protocol; an empty plan leaves the runtime on the original
     * bit-exact blocking path unless faultTolerance.enabled forces
     * the tolerant protocol on.
     */
    FaultPlan faultPlan;
    /** Timeout/retry/eviction policy of the tolerant protocol. */
    FaultToleranceConfig faultTolerance;

    /**
     * Pipelined iterations: run the whole training run as one segment
     * (NodeRuntime::runSegment) instead of one segment per round, so
     * there is no cluster barrier between rounds and every node
     * free-runs, gated only by model freshness. With maxStaleness = 0
     * each node still waits for the previous round's broadcast before
     * computing, so the trajectory is bit-identical to the barrier
     * protocol — but epoch-loss evaluation and slow receivers no
     * longer stall the cluster. Cancel is checked only at segment
     * boundaries, so a pipelined run finishes its rounds once started.
     * Required when maxStaleness > 0. Crash-fault plans keep one-round
     * segments (eviction and topology repair run between segments).
     */
    bool overlapIterations = false;
    /**
     * Bounded-staleness async SGD: a node may compute round k from a
     * model up to this many epochs old, and Sigma nodes reject
     * partials lagging further than this. 0 = synchronous (exact
     * freshness). A value > 0 without overlapIterations is rejected
     * by validate() — async SGD is a pipelined protocol, so asking
     * for staleness with the pipeline off is a contradiction.
     */
    int maxStaleness = 0;
    /** Streaming aggregation: split partial updates into chunks of
     *  this many words so partial sums flow up the Sigma tree while
     *  the rest of the vector is in flight. 0 = whole-vector
     *  messages (the original zero-copy path). Must not exceed the
     *  workload's model width (checked at runtime construction). */
    int64_t streamChunkWords = 0;

    /**
     * Rejects nonsensical knob combinations with a clear CosmicError
     * instead of letting them silently misbehave: non-positive
     * nodes/threads/batch/record counts, groups exceeding nodes, a
     * non-finite or non-positive learning rate, negative staleness or
     * chunk words, and a staleness budget without pipelined
     * iterations (maxStaleness > 0 requires overlapIterations — a
     * bounded-staleness run *is* a pipelined run, and asking for one
     * while leaving the pipeline off is a contradiction). Called by
     * ClusterRuntime's constructor; model-width-dependent checks
     * (streamChunkWords vs the translation) happen there too.
     */
    void validate() const;
};

/**
 * Cooperative controls a Session threads into a running train() call:
 * `cancel` is checked at every segment boundary, the end of the run
 * included — after every round under the barrier protocol, only before
 * and after the run's one segment when pipelined (its nodes free-run
 * through their rounds, but the report is still marked cancelled) —
 * and onEpoch fires after each epoch-loss evaluation with the epochs
 * completed so far, the loss, and the iterations executed. Both hooks
 * are observation-only: a run with a null or untouched RunControl is
 * bit-identical to one without.
 */
struct RunControl
{
    std::atomic<bool> cancel{false};
    std::function<void(int epochsDone, double loss,
                       uint64_t iterations)>
        onEpoch;
};

/** Per-iteration performance counters (observability). */
struct IterationStats
{
    /** Slowest node's partial-update compute time. */
    double maxComputeSec = 0.0;
    /** Slowest node's post-compute time: waiting on partial updates,
     *  aggregating, and waiting for the model broadcast. */
    double maxAggregationSec = 0.0;
    /** Cluster-summed gradient-compute seconds. */
    double sumComputeSec = 0.0;
    /** Cluster-summed aggregation/communication-wait seconds. */
    double sumAggregationSec = 0.0;
    /** Training records processed cluster-wide this iteration. */
    int64_t records = 0;
};

/** Result of a training run. */
struct TrainingReport
{
    /** Mean loss on a held-out sample after each epoch (index 0 is the
     *  initial model's loss). */
    std::vector<double> epochLoss;
    std::vector<double> finalModel;
    int iterations = 0;
    /** True when a RunControl cancel stopped the run early. */
    bool cancelled = false;
    ClusterTopology topology;

    /** Wall-clock seconds per iteration (observability). */
    std::vector<double> iterationSeconds;
    /** Per-iteration counters, one per iterationSeconds entry: the
     *  slowest node's compute (where straggler skew shows up) and
     *  aggregation wait, their cluster-wide sums (the Fig. 13
     *  breakdown; in pipelined mode the aggregation half includes
     *  each node's freshness-gate wait), and the records trained.
     *  Throughput is records / iterationSeconds. */
    std::vector<IterationStats> iterationStats;

    /** Pipelined-mode staleness counters (all zero under the barrier
     *  protocol and in strict sync overlap with no faults). */
    StalenessStats staleness;

    /** Recovery/injection counters accumulated over the whole run —
     *  a chaos test reconciles these against its FaultPlan. All zero
     *  when no fault fired. */
    RecoveryStats recovery;

    /** Wire counters summed over every node's transport endpoint
     *  (all zero on the in-process fabric). */
    net::NetStats net;
};

/** Orchestrates distributed training of one workload. */
class ClusterRuntime
{
  public:
    /**
     * Builds the cluster: parses and translates the workload's DSL
     * program, synthesizes per-node partitions, and assigns roles.
     *
     * @param scale Dimension scale-down factor for fast runs.
     */
    ClusterRuntime(const ml::Workload &workload, double scale,
                   const ClusterConfig &config);

    /**
     * Session-layer constructor: runs over a caller-owned compiled
     * frontend artifact (from compile::translateCached) instead of
     * compiling internally. This is the PopART-style session/devicex
     * split: the Session owns the compiled artifacts, the runtime is
     * the execution engine over them. The artifact's source must be
     * the workload's program at @p scale (the dataset/reference
     * machinery is descriptor-driven); the delegating constructor
     * above is exactly this with a translateCached call inline.
     */
    ClusterRuntime(
        const ml::Workload &workload, double scale,
        const ClusterConfig &config,
        std::shared_ptr<const compile::FrontendArtifact> frontend);
    ~ClusterRuntime();

    /**
     * Runs @p epochs epochs of parallelized SGD; returns the report.
     * @param control Optional cooperative cancel/progress hooks
     *        (observation-only: a null control changes nothing).
     */
    TrainingReport train(int epochs, RunControl *control = nullptr);

    /** One synchronous iteration over the hierarchy — a one-round
     *  segment of train()'s loop; returns the new globally aggregated
     *  model. Tests and perfbench's traced loop drive iterations one
     *  by one through it.
     *  @param stats Optional out: the iteration's perf counters. */
    std::vector<double> runIteration(const std::vector<double> &model,
                                     uint64_t seq,
                                     IterationStats *stats = nullptr);

    /** Node @p id's compute state, its data partition included. */
    const TrainingNode &node(int id) const { return *nodes_.at(id); }

    /** The current role map — repairs replace it between iterations. */
    const ClusterTopology &topology() const { return topology_; }
    const dfg::Translation &translation() const;

    /** The shared payload recycler (test hook: its allocations()
     *  counter must stop advancing once the hot path is warm). */
    const BufferPool &bufferPool() const { return *pool_; }

    /** Recovery/injection counters so far (runtime + engines +
     *  injector merged); all zero when no fault fired. */
    RecoveryStats recovery() const;

    /** Wire counters summed over every node's transport endpoint. */
    net::NetStats netStats() const;

  private:
    /** Builds node @p id's protocol executor from the cluster config
     *  (rebuilt after a repair hands the node a new engine). */
    std::unique_ptr<NodeRuntime> makeNodeRuntime(int id);

    /** What the nodes report over a segment (defined in the .cpp). */
    class SegmentLog;

    /** Starts every live node on rounds [@p first, @p last) from
     *  @p model, the epoch-@p first model, which must outlive the
     *  segment. The master streams every round's model but the last
     *  through log_->nextModel(). */
    void launch(const std::vector<double> &model, uint64_t first,
                uint64_t last);
    /** Waits for the launched segment to drain, folds its counters
     *  (its rounds' stats into roundStats_), repairs the topology after
     *  a one-round segment, and returns the master's final model. */
    std::vector<double> join(uint64_t first, uint64_t last);

    /** Folds the segment's suspect reports into miss streaks and
     *  evicts nodes past the threshold via Director repair. */
    void applyRepairs();
    ml::Workload workload_;
    double scale_;
    ClusterConfig config_;
    /** The session-owned compiled frontend (translation + report);
     *  shared across sessions by the content-hashed BuildCache. */
    std::shared_ptr<const compile::FrontendArtifact> frontend_;
    /** The frontend's translation lowered once (F64); every node's
     *  executors run it. Declared before nodes_, which refer to it. */
    std::unique_ptr<const dfg::Tape> tape_;
    ClusterTopology topology_;
    ml::Reference reference_;
    ml::Dataset holdout_;

    /** Shared recycler: every message payload, aggregation buffer and
     *  broadcast copy circulates through this pool, so the steady
     *  state performs no per-message allocation. */
    std::shared_ptr<BufferPool> pool_;

    std::vector<std::unique_ptr<TrainingNode>> nodes_;
    /** One fabric endpoint per node (in-process channels or TCP). */
    std::vector<std::unique_ptr<net::Transport>> transports_;
    /** One aggregation engine per Sigma node (indexed by node id). */
    std::vector<std::unique_ptr<AggregationEngine>> engines_;
    /** The per-node protocol executors (one per node, every role). */
    std::vector<std::unique_ptr<NodeRuntime>> nodeRuntimes_;
    /** Long-lived per-node workers: one pool thread drives each node's
     *  segment — launch() only submits tasks and join() waits for
     *  them, neither spawns threads. */
    std::unique_ptr<ThreadPool> nodeWorkers_;

    /** The current segment's reports, reused across segments. */
    std::unique_ptr<SegmentLog> log_;
    /** The last joined segment's per-round counters. */
    std::vector<IterationStats> roundStats_;

    /** True when the failure-tolerant protocol is active (a fault
     *  plan is installed or the policy is force-enabled). */
    bool faultsActive_ = false;
    /** True when train() runs as one segment (pipelined); otherwise
     *  each segment is one round (the barrier protocol). */
    bool pipelineActive_ = false;
    /** Executes the fault plan; null when inactive. */
    std::unique_ptr<FaultInjector> injector_;
    /** Consecutive iterations each node has been suspected. */
    std::vector<int> missStreak_;
    /** Counters accumulated across iterations (runtime-side only;
     *  recovery() merges engine and injector counters in). */
    RecoveryStats recovery_;
    /** The nodes' freshness counters of the current train() call. */
    StalenessStats staleness_;
};

} // namespace cosmic::sys
