/**
 * @file
 * One node of the functional scale-out runtime.
 *
 * A TrainingNode owns a partition of the training data and emulates the
 * node of Fig. 1: the "accelerator" is the compiled tape executor
 * running the gradient program over the node's sub-partitions with
 * multiple worker threads, each performing local SGD (Eq. 3a) on its
 * own model copy; the node then aggregates its workers locally and
 * ships the partial update to its Sigma node.
 *
 * The workers are *persistent*, mirroring the paper's internally
 * managed thread pools (Sec. 3): the pool is spawned once in the
 * constructor and mini-batches are fed to it as tasks, so the
 * per-iteration hot path performs no thread spawn/join and no buffer
 * allocation — each worker reuses a preallocated model/gradient
 * buffer and its own TapeExecutor scratch.
 *
 * SGD shards are the software analogue of the accelerator template's
 * t_max thread dimension: the node's local-SGD split is over
 * `sgdShards` independent sub-models, which may exceed the OS thread
 * count. Each pool thread runs its shard group's sweeps one after
 * another, so adding shards costs compute, not threads. The training
 * math depends only on the shard count — never on how shards are
 * packed onto threads.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dfg/tape.h"
#include "dfg/translator.h"
#include "ml/dataset.h"
#include "system/thread_pool.h"

namespace cosmic::sys {

class FaultInjector;

/** Per-node training configuration. */
struct NodeComputeConfig
{
    /** Worker threads of the node's accelerator. */
    int acceleratorThreads = 2;
    /**
     * Independent local-SGD sub-models (the paper's t_max thread
     * dimension). 0 = one per accelerator thread (the classic
     * configuration). When shards exceed threads, each thread
     * sweeps a group of shards in turn.
     */
    int sgdShards = 0;
    /** SGD learning rate. */
    double learningRate = 0.05;
};

/** The compute side of one cluster node. */
class TrainingNode
{
  public:
    /**
     * @param tape The lowered gradient program, shared by every node
     *        of a runtime; it must outlive the node.
     * @param partition The node's slice of the training data (owned).
     */
    TrainingNode(const dfg::Tape &tape, ml::Dataset partition,
                 const NodeComputeConfig &config);

    /**
     * Computes the node's partial update for the next mini-batch into
     * @p update (resized to modelWords; steady state allocation-free
     * when the caller reuses the buffer): each SGD shard runs local
     * SGD over its sub-partition slice starting from @p model, and the
     * shard models are averaged (the accelerator's local aggregation).
     * Advances the node's batch cursor.
     *
     * @param model Current global model.
     * @param batch_records Mini-batch size b for this node.
     * @param update Out: the locally aggregated updated model
     *        (theta_i).
     */
    void computeLocalUpdate(const std::vector<double> &model,
                            int64_t batch_records,
                            std::vector<double> &update);

    /**
     * Batched-gradient variant (the paper's other parallel SGD family,
     * Sec. 2.2): each worker thread accumulates raw per-record
     * gradients at the fixed @p model through the tape's batch call;
     * the node writes the summed gradient over its batch slice into
     * @p grad instead of an updated model. Advances the same batch
     * cursor.
     */
    void computeGradientSum(const std::vector<double> &model,
                            int64_t batch_records,
                            std::vector<double> &grad);

    const ml::Dataset &partition() const { return partition_; }
    int64_t recordsProcessed() const { return recordsProcessed_; }
    /** Resolved SGD shard count (>= 1). */
    int sgdShards() const { return shards_; }

    /**
     * Installs the fault-injection hook: before each compute call the
     * node asks @p injector for node @p node_id's straggler stall at
     * the node's current iteration and sleeps it off. Null disables
     * (the default; a single pointer check on the hot path). The
     * stall changes wall-clock only — the synchronous aggregation
     * protocol makes the training math independent of skew.
     */
    void
    setFaultInjector(FaultInjector *injector, int node_id)
    {
        injector_ = injector;
        nodeId_ = node_id;
    }

  private:
    /** Serves the injected straggler stall and advances the node's
     *  iteration counter (one tick per compute call). */
    void maybeStall();
    /** Persistent per-thread state, preallocated in the constructor. */
    struct Worker
    {
        /** Executor holds the tape's mutable scratch images. */
        std::unique_ptr<dfg::TapeExecutor> exec;
        /** Gradient accumulator (gradientWords). */
        std::vector<double> grad;
    };

    /** A contiguous run of records within the partition. */
    struct Segment
    {
        const double *records = nullptr;
        int64_t count = 0;
    };

    /**
     * Resolves shard @p s's share of the batch under an @p shard_count
     * way split into at most two contiguous record segments (the
     * wrap-around at the partition boundary), in record order.
     * @return The number of segments written to @p segs.
     */
    int shardSegments(int s, int shard_count, int64_t batch_records,
                      Segment segs[2]) const;

    /** Runs the local-SGD sweeps for shards [s0, s1) on worker @p t. */
    void sweepShardRange(int t, int s0, int s1, int64_t batch_records,
                         const std::vector<double> &model);

    const dfg::Translation &tr_;
    ml::Dataset partition_;
    NodeComputeConfig config_;
    /** Compiled execution schedule, shared by all workers (not
     *  owned). */
    const dfg::Tape &tape_;
    std::vector<Worker> workers_;
    /** Per-shard private model copies (modelWords each). */
    std::vector<std::vector<double>> shardModels_;
    int shards_ = 0;
    /** The node's persistent accelerator worker pool. */
    ThreadPool pool_;
    int64_t cursor_ = 0;
    int64_t recordsProcessed_ = 0;
    /** Straggler-injection hook (not owned) and this node's id. */
    FaultInjector *injector_ = nullptr;
    int nodeId_ = -1;
    /** Compute calls served (the iteration clock for the hook). */
    uint64_t iteration_ = 0;
};

} // namespace cosmic::sys
