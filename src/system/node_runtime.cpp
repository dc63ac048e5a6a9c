#include "system/node_runtime.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"

namespace cosmic::sys {

StalenessStats &
StalenessStats::operator+=(const StalenessStats &o)
{
    staleComputes += o.staleComputes;
    freshnessWaits += o.freshnessWaits;
    roundsSkipped += o.roundsSkipped;
    stalePartialsAccepted += o.stalePartialsAccepted;
    tooStaleDropped += o.tooStaleDropped;
    maxEpochLag = std::max(maxEpochLag, o.maxEpochLag);
    return *this;
}

void
NodeRuntime::Result::clear()
{
    computeSec = 0.0;
    aggregationSec = 0.0;
    records = 0;
    recovery = RecoveryStats{};
    suspects.clear();
    staleness = StalenessStats{};
}

NodeRuntime::NodeRuntime(const dfg::Translation &translation,
                         const NodeRuntimeConfig &config,
                         TrainingNode &node, net::Transport &transport,
                         AggregationEngine *engine, BufferPool &pool)
    : translation_(translation), config_(config), node_(node),
      transport_(transport), engine_(engine), pool_(pool)
{
}

RecvStatus
NodeRuntime::receiveProtocol(Message &out, double budget_scale,
                             RecoveryStats &recovery)
{
    if (!config_.faultsActive)
        return transport_.inbox().receive(out) ? RecvStatus::Ok
                                               : RecvStatus::Closed;
    const FaultToleranceConfig &ft = config_.faultTolerance;
    double window = ft.receiveTimeoutMs * budget_scale;
    for (int attempt = 0;; ++attempt) {
        RecvStatus status = transport_.inbox().receiveFor(out, window);
        if (status != RecvStatus::Timeout)
            return status;
        ++recovery.receiveTimeouts;
        if (attempt >= ft.maxRetries)
            return RecvStatus::Timeout;
        window *= ft.backoffFactor;
    }
}

uint64_t
NodeRuntime::minEpochFor(uint64_t seq) const
{
    const uint64_t s = static_cast<uint64_t>(config_.maxStaleness);
    return seq > s ? seq - s : 0;
}

void
NodeRuntime::sendUpdate(uint64_t seq, uint64_t epoch, int contributors,
                        std::vector<double> update)
{
    const int64_t words = static_cast<int64_t>(update.size());
    const int64_t chunk = config_.streamChunkWords;
    if (chunk <= 0 || chunk >= words) {
        Message msg{assign_.id, seq, std::move(update), contributors};
        msg.epoch = epoch;
        transport_.send(assign_.parent, std::move(msg));
        return;
    }
    // Streaming aggregation: ship the vector as (offset, span) chunks
    // so the receiver's fold pipeline starts consuming while later
    // chunks are still being copied/serialized. Chunk buffers come
    // from (and return to) the shared pool.
    for (int64_t off = 0; off < words; off += chunk) {
        const int64_t span = std::min(chunk, words - off);
        std::vector<double> piece = pool_.acquire(span);
        std::copy(update.begin() + off, update.begin() + off + span,
                  piece.begin());
        Message msg{assign_.id, seq, std::move(piece), contributors};
        msg.epoch = epoch;
        msg.offset = static_cast<uint32_t>(off);
        transport_.send(assign_.parent, std::move(msg));
    }
    pool_.release(std::move(update));
}

std::vector<double>
NodeRuntime::masterStep(const std::vector<double> &model,
                        std::vector<double> sum, int contributors)
{
    std::vector<double> next;
    if (config_.mode == TrainingMode::ModelAveraging) {
        // Eq. 3b: the average of the surviving local updates.
        for (auto &v : sum)
            v /= contributors;
        next = std::move(sum);
    } else {
        // Batched GD: one step on the aggregated gradient, normalized
        // per the program's aggregation operator (average over the
        // surviving global batch, or raw sum).
        const double divisor =
            translation_.aggregator == dsl::Aggregator::Average
                ? static_cast<double>(contributors) *
                      config_.minibatchPerNode
                : 1.0;
        const int64_t words = translation_.modelWords;
        next = pool_.acquire(words);
        for (int64_t i = 0; i < words; ++i)
            next[i] = model[i] - config_.learningRate * sum[i] / divisor;
        pool_.release(std::move(sum));
    }
    // Q16 mode: round the model *at the source*. Every hop of the
    // broadcast re-rounds idempotently, so the model the master keeps
    // is bit-identical to what every receiver gets — on either
    // transport backend.
    if (config_.payload == accel::Numeric::Q16)
        net::quantizePayload(next);
    return next;
}

void
NodeRuntime::broadcast(uint64_t seq, uint64_t epoch,
                       const std::vector<double> &model)
{
    for (int dst : children_) {
        std::vector<double> copy = pool_.acquire(model.size());
        std::copy(model.begin(), model.end(), copy.begin());
        Message msg{assign_.id, seq, std::move(copy)};
        msg.kind = MsgKind::Model;
        msg.epoch = epoch;
        transport_.send(dst, std::move(msg));
    }
}

void
NodeRuntime::enter(const NodeAssignment &assign,
                   const ClusterTopology &topo)
{
    assign_ = assign;
    // A Sigma's children are the nodes it is parent of. GroupSigmas
    // come first, so the next relay level starts soonest.
    children_.clear();
    for (NodeRole role : {NodeRole::GroupSigma, NodeRole::Delta})
        for (const auto &n : topo.nodes)
            if (n.parent == assign.id && n.role == role)
                children_.push_back(n.id);
}

void
NodeRuntime::route(Message &&msg, Result &res)
{
    if (msg.kind == MsgKind::Update) {
        stash_.push_back(std::move(msg));
        return;
    }
    if (msg.epoch > epoch_) {
        // The broadcast tree: a GroupSigma relays the model to its
        // group before adopting it (a Delta has no children, and
        // nobody sends the master a model).
        broadcast(msg.seq, msg.epoch, msg.payload);
        epoch_ = msg.epoch;
        std::swap(model_, msg.payload);
    } else {
        // In-order channels deliver models with increasing epochs; an
        // older one (a broadcast the node already gave up on, or a
        // duplicate) only exists under delay/duplicate faults.
        COSMIC_ASSERT(config_.faultsActive,
                      "stale model epoch " << msg.epoch << " at node "
                                           << assign_.id);
        ++res.recovery.staleDropped;
    }
    pool_.release(std::move(msg.payload));
}

bool
NodeRuntime::awaitModel(uint64_t min_epoch, Result &res)
{
    while (epoch_ < min_epoch) {
        Message msg;
        // 3x window: a model waiter sits behind the Sigma and master
        // timeout levels, so it must outwait both.
        RecvStatus r = receiveProtocol(msg, 3.0, res.recovery);
        COSMIC_ASSERT(r != RecvStatus::Closed,
                      "inbox closed mid-round at node " << assign_.id);
        if (r == RecvStatus::Timeout) {
            ++res.recovery.broadcastsMissed;
            if (assign_.parent >= 0)
                res.suspects.push_back(assign_.parent);
            return false;
        }
        route(std::move(msg), res);
    }
    return true;
}

void
NodeRuntime::collectPartials(uint64_t seq, Result &res)
{
    AggregationEngine &engine = *engine_;
    size_t done = 0;
    // A child counts once its spans tile the round width — at once
    // for whole-vector messages, on the last chunk in streaming mode.
    auto take = [&](Message &&msg) {
        const int from = msg.from;
        if (engine.onMessage(std::move(msg))) {
            if (engine.senderComplete(from) &&
                std::find(children_.begin(), children_.end(), from) !=
                    children_.end())
                ++done;
        } else {
            // Duplicate, stale, or malformed — counted by the engine.
            // Impossible on the no-fault path, where it would be a
            // stack bug.
            COSMIC_ASSERT(config_.faultsActive,
                          "unexpected partial rejected at node "
                              << assign_.id << " from " << from);
        }
    };
    // Parked partials first. Entries for earlier rounds (fault mode
    // only, after a skipped or abandoned round) go through the engine
    // too, so its reconciliation counts and recycles them.
    for (auto it = stash_.begin(); it != stash_.end();) {
        if (it->seq <= seq) {
            take(std::move(*it));
            it = stash_.erase(it);
        } else {
            ++it;
        }
    }
    // 2x window at the master: a group Sigma only reports after its
    // own timeout budget.
    const double budget =
        assign_.role == NodeRole::MasterSigma ? 2.0 : 1.0;
    while (done < children_.size()) {
        Message msg;
        RecvStatus r = receiveProtocol(msg, budget, res.recovery);
        COSMIC_ASSERT(r != RecvStatus::Closed,
                      "inbox closed mid-round at node " << assign_.id);
        if (r == RecvStatus::Timeout) {
            // k-of-n: fold whoever made it, suspect the rest.
            for (int child : children_) {
                if (!engine.senderComplete(child)) {
                    ++res.recovery.partialsMissed;
                    res.suspects.push_back(child);
                }
            }
            return;
        }
        if (msg.kind == MsgKind::Update && msg.seq <= seq)
            take(std::move(msg));
        else
            route(std::move(msg), res);
    }
}

void
NodeRuntime::runRound(const std::vector<double> &model, uint64_t seq,
                      Result &res)
{
    const int64_t words = translation_.modelWords;
    // The epoch this round computes from: a Sigma may adopt a fresher
    // model while it collects.
    const uint64_t used_epoch = epoch_;

    const auto compute_start = std::chrono::steady_clock::now();
    const int64_t records_before = node_.recordsProcessed();
    // Pooled partial-update buffer: filled here, shipped as a message
    // payload and recycled by whoever consumes it — no steady-state
    // allocation.
    std::vector<double> update = pool_.acquire(words);
    if (config_.mode == TrainingMode::ModelAveraging)
        node_.computeLocalUpdate(model, config_.minibatchPerNode,
                                 update);
    else
        node_.computeGradientSum(model, config_.minibatchPerNode,
                                 update);
    res.computeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() -
                         compute_start)
                         .count();
    res.records = node_.recordsProcessed() - records_before;

    if (assign_.role == NodeRole::Delta) {
        // Ship theta_i to the group's Sigma.
        sendUpdate(seq, used_epoch, 1, std::move(update));
        return;
    }
    AggregationEngine &engine = *engine_;
    engine.begin(words, seq, minEpochFor(seq));
    collectPartials(seq, res);
    std::vector<double> sum = engine.finish();
    for (int64_t i = 0; i < words; ++i)
        sum[i] += update[i];
    pool_.release(std::move(update));
    // k-of-n rescaling: the survivors' total weight rides up the
    // hierarchy. With every node healthy this is exactly n and the
    // math is bit-for-bit the no-fault path.
    const int contributors = engine.contributors() + 1;
    if (assign_.role == NodeRole::GroupSigma) {
        // The group's effective epoch is the oldest model any
        // folded-in partial was computed from — the master's staleness
        // gate sees through the hierarchy.
        sendUpdate(seq, std::min(used_epoch, engine.minEpochAccepted()),
                   contributors, std::move(sum));
        return;
    }
    // Master: round seq's product *is* the epoch-(seq+1) model (the
    // initial model is epoch 0). Broadcast pooled copies down the
    // hierarchy, then hold it.
    std::vector<double> next =
        masterStep(model, std::move(sum), contributors);
    broadcast(seq, seq + 1, next);
    pool_.release(std::move(model_));
    model_ = std::move(next);
    epoch_ = seq + 1;
}

std::vector<double>
NodeRuntime::runSegment(const NodeAssignment &assign,
                        const ClusterTopology &topo,
                        const std::vector<double> &model, uint64_t first,
                        uint64_t last, Sink &sink)
{
    enter(assign, topo);
    const uint64_t stale_budget =
        static_cast<uint64_t>(config_.maxStaleness);
    // The caller's model is epoch first; partials computed from it are
    // stamped with that epoch.
    epoch_ = first;

    Result res;
    for (uint64_t seq = first; seq < last; ++seq) {
        const auto start = std::chrono::steady_clock::now();
        res.clear();
        // Opportunistic drain: adopt whatever arrived while this node
        // was computing the previous round, park early partials. The
        // previous segment ended drained, so the first round has
        // nothing to adopt.
        Message msg;
        if (seq > first)
            while (transport_.inbox().tryReceive(msg))
                route(std::move(msg), res);
        // Freshness gate: round seq computes from a model no staler
        // than maxStaleness epochs (epoch >= seq - S). With S = 0 the
        // gate blocks for exactly the round-(seq-1) broadcast. The
        // master never blocks here: its own product advanced its epoch
        // to seq at the end of round seq-1. With no fresh-enough model
        // in the whole timeout budget (fault mode) the round is
        // skipped rather than computed from a model the staleness
        // bound would reject anyway.
        bool fresh = epoch_ + stale_budget >= seq;
        if (!fresh) {
            ++res.staleness.freshnessWaits;
            fresh = awaitModel(seq - stale_budget, res);
            if (!fresh)
                ++res.staleness.roundsSkipped;
        }
        if (fresh) {
            if (epoch_ < seq) {
                ++res.staleness.staleComputes;
                res.staleness.maxEpochLag = seq - epoch_;
            }
            runRound(epoch_ == first ? model : model_, seq, res);
            if (assign.role == NodeRole::MasterSigma && seq + 1 < last)
                sink.onModel(seq, model_);
        }
        // The drained end: every role but the master, which holds its
        // own product, waits for the segment's last broadcast. If the
        // Sigma died it never comes — the bounded wait records the
        // miss and the Director repairs the group once the streak is
        // long enough.
        if (seq + 1 == last)
            awaitModel(last, res);
        // The round's non-compute time: freshness-gate wait, partial
        // collection, fold, broadcast and, in the last round, the wait
        // for the final broadcast — the Fig. 13 breakdown's
        // aggregation half.
        res.aggregationSec = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 start)
                                 .count() -
                             res.computeSec;
        sink.onRound(assign.id, seq, res);
    }
    return std::move(model_);
}

} // namespace cosmic::sys
