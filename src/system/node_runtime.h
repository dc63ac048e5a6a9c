/**
 * @file
 * One node's role protocol, factored out of the cluster orchestrator.
 *
 * NodeRuntime is the per-node half of the scale-out system software.
 * One round of a role is written once: compute the partial update,
 * then ship it to the parent (Delta), fold the children's partials
 * and ship the sum (GroupSigma), or fold, step and broadcast the new
 * model (MasterSigma). One driver runs that round over a Transport:
 * runSegment() runs rounds [first, last) from the caller's
 * epoch-`first` model, starting each round as soon as the node holds a
 * model no staler than maxStaleness epochs, and ends drained: every
 * node has waited for the segment's final broadcast.
 * A one-round segment is the barrier protocol; one segment over the
 * whole run is the pipelined one.
 *
 * The driver reads the inbox through one router: partials park until
 * their round is collected, a fresher model is adopted (and relayed by
 * a GroupSigma), an older one is counted and recycled. It is the same
 * code whether the node lives on a ClusterRuntime worker thread
 * (in-process fabric, N roles per process) or inside a `cosmicd`
 * process (TCP fabric, one role per OS process) — which is what makes
 * the two deployments bit-identical.
 *
 * The failure-tolerant protocol (timed receives with retry/backoff,
 * k-of-n aggregation, suspect reports) lives here too; with faults
 * inactive every receive is the original blocking call and the math
 * is the bit-exact no-fault path.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/translator.h"
#include "net/transport.h"
#include "system/aggregation.h"
#include "system/buffer_pool.h"
#include "system/channel.h"
#include "system/director.h"
#include "system/fault.h"
#include "system/training_node.h"

namespace cosmic::sys {

/** Which parallel-SGD variant the cluster runs (paper Sec. 2.2). */
enum class TrainingMode
{
    /** Parallelized SGD [Zinkevich et al.]: each node runs local SGD
     *  and the Sigma hierarchy averages the models (Eq. 3). */
    ModelAveraging,
    /** Batched gradient descent [Dekel et al.]: nodes accumulate raw
     *  gradients at the frozen model; the master applies one step on
     *  the aggregate. */
    BatchedGradient,
};

/** Per-node protocol configuration (a slice of ClusterConfig). */
struct NodeRuntimeConfig
{
    TrainingMode mode = TrainingMode::ModelAveraging;
    double learningRate = 0.05;
    int64_t minibatchPerNode = 64;
    /** Timeout/retry policy; consulted only when faultsActive. */
    FaultToleranceConfig faultTolerance;
    /** Timed tolerant receives instead of blocking ones. */
    bool faultsActive = false;
    /** Wire payload encoding. In Q16 mode the master quantizes the
     *  new model *before* broadcasting, so the model it keeps is
     *  bit-identical to the (idempotently re-quantized) copies every
     *  other node receives. */
    accel::Numeric payload = accel::Numeric::F64;
    /**
     * Bounded-staleness window for the pipelined protocol: a node may
     * compute round k from a model up to this many epochs old, and a
     * Sigma accepts partials lagging by at most this much. 0 keeps
     * strict freshness (the synchronous pipeline — bit-exact with the
     * barrier protocol).
     */
    int maxStaleness = 0;
    /**
     * Streaming aggregation: split each partial update into
     * (offset, span) chunks of this many words so partial sums flow
     * up the Sigma tree while the rest of the vector is still in
     * flight. 0 (or >= the model width) sends one whole-vector
     * message per round — the original zero-copy path.
     */
    int64_t streamChunkWords = 0;
};

/** Pipelined-mode staleness counters (TrainingReport slice). */
struct StalenessStats
{
    /** Rounds a node computed from a model older than the round. */
    uint64_t staleComputes = 0;
    /** Rounds that blocked waiting for a fresh-enough model. */
    uint64_t freshnessWaits = 0;
    /** Rounds skipped because no fresh-enough model arrived in the
     *  timeout budget (fault mode only). */
    uint64_t roundsSkipped = 0;
    /** Engine: complete partials accepted with a lagging epoch. */
    uint64_t stalePartialsAccepted = 0;
    /** Engine: partials rejected by the staleness bound. */
    uint64_t tooStaleDropped = 0;
    /** Largest (round - model epoch) lag observed anywhere. */
    uint64_t maxEpochLag = 0;

    StalenessStats &operator+=(const StalenessStats &o);
};

/** Executes one node's Sigma/Delta role over a Transport. */
class NodeRuntime
{
  public:
    /** What one round of the role reported. */
    struct Result
    {
        /** Partial-update compute time. */
        double computeSec = 0.0;
        /** The rest of the round: the wait for a fresh model, partial
         *  collection, the fold and the broadcast. */
        double aggregationSec = 0.0;
        /** Training records the round's compute consumed. */
        int64_t records = 0;
        /** This node's recovery counters for the round. */
        RecoveryStats recovery;
        /** Peers this node suspects (missed partials/broadcasts). */
        std::vector<int> suspects;
        /** The round's freshness counters (the engine's fields stay
         *  zero here). */
        StalenessStats staleness;

        /** Resets the report for another round; suspects keeps its
         *  capacity. */
        void clear();
    };

    /**
     * @param engine The node's aggregation engine; required for Sigma
     *        roles, may be null for a pure Delta.
     */
    NodeRuntime(const dfg::Translation &translation,
                const NodeRuntimeConfig &config, TrainingNode &node,
                net::Transport &transport, AggregationEngine *engine,
                BufferPool &pool);

    /** Where a segment reports; the defaults ignore the reports.
     *  Methods are called from the node's worker thread; distinct
     *  nodes report concurrently. */
    class Sink
    {
      public:
        virtual ~Sink() = default;
        /** A node finished (or skipped) a round: its id, the round
         *  and its report. */
        virtual void onRound(int, uint64_t, const Result &) {}
        /** The master's new global model of a round, for every round
         *  of the segment but its last (that one is runSegment()'s
         *  result); valid only during the call. */
        virtual void onModel(uint64_t, const std::vector<double> &) {}
    };

    /**
     * Runs assignment @p assign's side of rounds [@p first, @p last)
     * from @p model, the epoch-@p first model. The caller owns it and
     * keeps it alive until the call returns: the node reads it by
     * reference until it adopts a fresher one, so a one-round segment
     * copies no model. Each round starts once the node holds a model
     * no staler than maxStaleness epochs; with maxStaleness = 0 that is
     * exactly the previous round's broadcast, and the trajectory does
     * not depend on how the run is cut into segments. The last round
     * also waits for the epoch-@p last broadcast (a GroupSigma relays
     * it), so the segment ends drained. Returns the model the node then
     * holds: the epoch-@p last model or, if its broadcast was missed
     * (fault mode), an older one or none.
     */
    std::vector<double> runSegment(const NodeAssignment &assign,
                                   const ClusterTopology &topo,
                                   const std::vector<double> &model,
                                   uint64_t first, uint64_t last,
                                   Sink &sink);

  private:
    /** Takes on role @p assign in @p topo for the next rounds. */
    void enter(const NodeAssignment &assign,
               const ClusterTopology &topo);
    /** One round of the role from @p model, the epoch_ model: compute,
     *  then ship, or fold and ship, or fold, step and broadcast (the
     *  master then holds the new model). */
    void runRound(const std::vector<double> &model, uint64_t seq,
                  Result &res);
    /** Folds round @p seq's partials into the armed engine: parked
     *  ones first, then received ones until every child's partial is
     *  complete or the window expires (k-of-n: the missing children
     *  are counted and suspected). */
    void collectPartials(uint64_t seq, Result &res);
    /** Receives until the held model is at least epoch @p min_epoch;
     *  false (counted, parent suspected) if the window expires. */
    bool awaitModel(uint64_t min_epoch, Result &res);
    /** Routes a message outside its round's collection: a partial
     *  parks in the stash, a fresher model is relayed to the children
     *  and adopted, an older one is counted and recycled. */
    void route(Message &&msg, Result &res);
    RecvStatus receiveProtocol(Message &out, double budget_scale,
                               RecoveryStats &recovery);
    /** Ships one partial update to the parent (whole, or split into
     *  streaming chunks when streamChunkWords is set); consumes
     *  @p update. */
    void sendUpdate(uint64_t seq, uint64_t epoch, int contributors,
                    std::vector<double> update);
    /** The staleness gate begin() is armed with for round @p seq. */
    uint64_t minEpochFor(uint64_t seq) const;
    /** The master's new global model from the round's folded @p sum
     *  of @p contributors partials (Eq. 3b average, or one batched
     *  step from @p model), rounded at the source in Q16 mode;
     *  consumes @p sum. */
    std::vector<double> masterStep(const std::vector<double> &model,
                                   std::vector<double> sum,
                                   int contributors);
    /** Sends each child a pooled copy of @p model as round @p seq's
     *  epoch-@p epoch model broadcast. */
    void broadcast(uint64_t seq, uint64_t epoch,
                   const std::vector<double> &model);

    const dfg::Translation &translation_;
    NodeRuntimeConfig config_;
    TrainingNode &node_;
    net::Transport &transport_;
    AggregationEngine *engine_;
    BufferPool &pool_;

    /** The role the current rounds run. */
    NodeAssignment assign_;
    /** The nodes this Sigma folds partials from and sends the model
     *  to, GroupSigmas first; empty for a Delta. */
    std::vector<int> children_;
    /** The model this node adopted or produced and its epoch (round
     *  k's product is epoch k+1). While epoch_ is the segment's first,
     *  the node holds the caller's model and model_ is empty. */
    std::vector<double> model_;
    uint64_t epoch_ = 0;
    /** Partials read outside a collection, kept for the next one
     *  (whose engine folds or reconciles them). */
    std::vector<Message> stash_;
};

} // namespace cosmic::sys
