#include "system/node_runtime.h"

#include <algorithm>
#include <chrono>
#include <deque>

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
NodeRuntime::sendUpdate(int to, int from_id, uint64_t seq,
                        uint64_t epoch, int contributors,
                        std::vector<double> update)
{
    const int64_t words = static_cast<int64_t>(update.size());
    const int64_t chunk = config_.streamChunkWords;
    if (chunk <= 0 || chunk >= words) {
        Message msg{from_id, seq, std::move(update), contributors};
        msg.epoch = epoch;
        transport_.send(to, std::move(msg));
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
        Message msg{from_id, seq, std::move(piece), contributors};
        msg.epoch = epoch;
        msg.offset = static_cast<uint32_t>(off);
        transport_.send(to, std::move(msg));
    }
    pool_.release(std::move(update));
}

void
NodeRuntime::collectPartials(const NodeAssignment &assign,
                             const std::vector<int> &expected,
                             double budget_scale, Result &res)
{
    AggregationEngine &engine = *engine_;
    std::vector<int> got;
    while (got.size() < expected.size()) {
        Message msg;
        RecvStatus r =
            receiveProtocol(msg, budget_scale, res.recovery);
        COSMIC_ASSERT(r != RecvStatus::Closed,
                      "inbox closed mid-iteration at node "
                          << assign.id);
        if (r == RecvStatus::Timeout)
            break; // give up on whoever is still missing
        const int from = msg.from;
        if (engine.onMessage(std::move(msg))) {
            // A sender counts once its spans tile the round width —
            // immediately for whole-vector messages, on the last
            // chunk in streaming mode.
            if (engine.senderComplete(from) &&
                std::find(got.begin(), got.end(), from) == got.end())
                got.push_back(from);
        } else {
            // Duplicate, stale, or malformed — counted by the engine.
            // Impossible on the no-fault path, where it would be a
            // stack bug.
            COSMIC_ASSERT(config_.faultsActive,
                          "unexpected partial rejected at node "
                              << assign.id << " from " << from);
        }
    }
    for (int sender : expected) {
        if (std::find(got.begin(), got.end(), sender) == got.end()) {
            ++res.recovery.partialsMissed;
            res.suspects.push_back(sender);
        }
    }
}

bool
NodeRuntime::awaitBroadcast(const NodeAssignment &assign, uint64_t seq,
                            Message &bcast, Result &res)
{
    for (;;) {
        // 3x window: a broadcast waiter sits behind the Sigma and
        // master timeout levels, so it must outwait both.
        RecvStatus r = receiveProtocol(bcast, 3.0, res.recovery);
        COSMIC_ASSERT(r != RecvStatus::Closed,
                      "inbox closed mid-iteration at node "
                          << assign.id);
        if (r == RecvStatus::Timeout) {
            ++res.recovery.broadcastsMissed;
            if (assign.parent >= 0)
                res.suspects.push_back(assign.parent);
            return false;
        }
        if (bcast.seq != seq || bcast.kind != MsgKind::Model) {
            // A delayed broadcast from an earlier round the receiver
            // had already given up on, or a stray non-model frame.
            COSMIC_ASSERT(config_.faultsActive,
                          "broadcast seq " << bcast.seq << " != " << seq
                          << " on node " << assign.id);
            ++res.recovery.staleDropped;
            pool_.release(std::move(bcast.payload));
            continue;
        }
        return true;
    }
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
NodeRuntime::broadcast(const std::vector<int> &to, int from_id,
                       uint64_t seq, uint64_t epoch,
                       const std::vector<double> &model)
{
    for (int dst : to) {
        std::vector<double> copy = pool_.acquire(model.size());
        std::copy(model.begin(), model.end(), copy.begin());
        Message msg{from_id, seq, std::move(copy)};
        msg.kind = MsgKind::Model;
        msg.epoch = epoch;
        transport_.send(dst, std::move(msg));
    }
}

NodeRuntime::Result
NodeRuntime::runRole(const NodeAssignment &assign,
                     const ClusterTopology &topo,
                     const std::vector<double> &model, uint64_t seq,
                     std::vector<double> &new_model)
{
    Result res;
    const int64_t words = translation_.modelWords;
    const int master = topo.masterId();

    auto compute_start = std::chrono::steady_clock::now();
    // Pooled partial-update buffer: filled here, shipped as a
    // message payload (deltas/sigmas) and eventually recycled
    // by whoever consumes it — no steady-state allocation.
    std::vector<double> update = pool_.acquire(words);
    if (config_.mode == TrainingMode::ModelAveraging)
        node_.computeLocalUpdate(model, config_.minibatchPerNode,
                                 update);
    else
        node_.computeGradientSum(model, config_.minibatchPerNode,
                                 update);
    auto compute_end = std::chrono::steady_clock::now();
    res.computeSec =
        std::chrono::duration<double>(compute_end - compute_start)
            .count();

    switch (assign.role) {
      case NodeRole::Delta: {
        // Ship theta_i to the group's Sigma, then wait for the
        // broadcast of the new global model. The received payload
        // goes back to the pool (or becomes the adopted model). If
        // the Sigma died, the broadcast never comes — the bounded
        // wait records the miss and the Director will repair the
        // group once the streak is long enough. Barrier-mode partials
        // stamp epoch = seq (strict freshness, trivially inside any
        // staleness bound).
        sendUpdate(assign.parent, assign.id, seq, seq, 1,
                   std::move(update));
        Message bcast;
        if (awaitBroadcast(assign, seq, bcast, res)) {
            if (config_.adoptBroadcast)
                new_model = std::move(bcast.payload);
            else
                pool_.release(std::move(bcast.payload));
        }
        break;
      }
      case NodeRole::GroupSigma: {
        // First level of the hierarchy: aggregate whichever group
        // partials arrive in time (k-of-n).
        auto members = topo.groupMembers(assign.group);
        AggregationEngine &engine = *engine_;
        engine.begin(words, seq, minEpochFor(seq));
        collectPartials(assign, members, 1.0, res);
        std::vector<double> sum = engine.finish();
        for (int64_t i = 0; i < words; ++i)
            sum[i] += update[i];
        // Contributor weight rides up the hierarchy so the master
        // can rescale Eq. 3 over the survivors.
        pool_.release(std::move(update));
        sendUpdate(master, assign.id, seq, seq,
                   engine.contributors() + 1, std::move(sum));

        // Wait for the master's broadcast, forward pooled copies to
        // members and recycle (or adopt) the received payload.
        Message bcast;
        if (awaitBroadcast(assign, seq, bcast, res)) {
            broadcast(members, assign.id, seq, bcast.epoch,
                      bcast.payload);
            if (config_.adoptBroadcast)
                new_model = std::move(bcast.payload);
            else
                pool_.release(std::move(bcast.payload));
        }
        break;
      }
      case NodeRole::MasterSigma: {
        // The master folds its own group members and the other group
        // Sigmas into a single order-independent round. 2x window:
        // a group Sigma only reports after its own timeout budget.
        auto members = topo.groupMembers(assign.group);
        auto sigmas = topo.nonMasterSigmas();
        std::vector<int> expected = members;
        expected.insert(expected.end(), sigmas.begin(), sigmas.end());
        AggregationEngine &engine = *engine_;
        engine.begin(words, seq, minEpochFor(seq));
        collectPartials(assign, expected, 2.0, res);
        std::vector<double> sum = engine.finish();
        for (int64_t i = 0; i < words; ++i)
            sum[i] += update[i];
        // k-of-n rescaling: the survivors' total weight. With every
        // node healthy this is exactly n and the math is bit-for-bit
        // the no-fault path.
        const int contributors = engine.contributors() + 1;
        pool_.release(std::move(update));
        new_model = masterStep(model, std::move(sum), contributors);
        // Broadcast pooled copies down the hierarchy. Round seq's
        // product *is* the epoch-(seq+1) model (the initial model is
        // epoch 0).
        broadcast(sigmas, assign.id, seq, seq + 1, new_model);
        broadcast(members, assign.id, seq, seq + 1, new_model);
        break;
      }
    }
    // Everything after the gradient compute is aggregation and
    // communication wait — the Fig. 13 breakdown's other half.
    res.aggregationSec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             compute_end)
                             .count();
    return res;
}

NodeRuntime::PipelineResult
NodeRuntime::runPipelined(const NodeAssignment &assign,
                          const ClusterTopology &topo,
                          const std::vector<double> &model0,
                          uint64_t rounds, PipelineSink &sink)
{
    PipelineResult res;
    const int64_t words = translation_.modelWords;
    const int master = topo.masterId();
    const bool isMaster = assign.role == NodeRole::MasterSigma;
    const uint64_t stale_budget =
        static_cast<uint64_t>(config_.maxStaleness);

    // The node's private model snapshot and its epoch (initial model
    // is epoch 0). Unlike the barrier protocol — where in-process
    // nodes share the master's buffer by reference — every pipelined
    // node owns an adopted broadcast copy; the copies are bit-equal
    // (F64 verbatim, Q16 idempotently re-quantized), so the math is
    // unchanged.
    std::vector<double> model = pool_.acquire(words);
    std::copy(model0.begin(), model0.end(), model.begin());
    uint64_t epoch = 0;

    // Partials that arrived ahead of the round this node's loop is on
    // (a fast peer inside the staleness window) — parked until their
    // round's engine is armed.
    std::deque<Message> stash;

    const auto members = topo.groupMembers(assign.group);
    const auto sigmas = topo.nonMasterSigmas();
    std::vector<int> expected;
    if (assign.role != NodeRole::Delta) {
        expected = members;
        if (isMaster)
            expected.insert(expected.end(), sigmas.begin(),
                            sigmas.end());
    }

    // Routes one received message: partial updates park in the stash,
    // a fresher model broadcast is adopted (and, on a GroupSigma,
    // relayed down to the group first — the broadcast tree), an older
    // model is a reordered duplicate and is recycled.
    auto classify = [&](Message &&m) {
        if (m.kind == MsgKind::Update) {
            stash.push_back(std::move(m));
            return;
        }
        if (m.epoch > epoch) {
            if (assign.role == NodeRole::GroupSigma)
                broadcast(members, assign.id, m.seq, m.epoch, m.payload);
            epoch = m.epoch;
            std::swap(model, m.payload);
        } else {
            // In-order channels deliver models with increasing epochs;
            // an older one only exists under delay/duplicate faults.
            COSMIC_ASSERT(config_.faultsActive,
                          "stale model epoch " << m.epoch
                              << " at node " << assign.id);
            ++res.recovery.staleDropped;
        }
        pool_.release(std::move(m.payload));
    };

    for (uint64_t seq = 0; seq < rounds; ++seq) {
        const auto round_start = std::chrono::steady_clock::now();
        // Opportunistic drain: adopt whatever arrived while this node
        // was computing the previous round, park early partials.
        {
            Message m;
            while (transport_.inbox().tryReceive(m))
                classify(std::move(m));
        }
        // Freshness gate: round seq computes from a model no staler
        // than maxStaleness epochs (epoch >= seq - S). With S = 0 the
        // gate blocks for exactly the round-(seq-1) broadcast — the
        // synchronous pipeline, bit-exact with the barrier protocol.
        // The master never blocks here: its own production advanced
        // its epoch to seq at the end of round seq-1.
        bool skipped = false;
        if (epoch + stale_budget < seq) {
            ++res.staleness.freshnessWaits;
            while (epoch + stale_budget < seq) {
                Message m;
                RecvStatus r = receiveProtocol(m, 3.0, res.recovery);
                COSMIC_ASSERT(r != RecvStatus::Closed,
                              "inbox closed mid-pipeline at node "
                                  << assign.id);
                if (r == RecvStatus::Timeout) {
                    // No fresh-enough model in the whole timeout
                    // budget (fault mode): skip the round rather than
                    // compute something the staleness bound would
                    // reject anyway.
                    ++res.recovery.broadcastsMissed;
                    ++res.staleness.roundsSkipped;
                    skipped = true;
                    break;
                }
                classify(std::move(m));
            }
        }
        if (skipped) {
            const double waited =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - round_start)
                    .count();
            sink.onRound(assign.id, seq, 0.0, waited, 0);
            continue;
        }
        if (epoch < seq) {
            ++res.staleness.staleComputes;
            res.staleness.maxEpochLag =
                std::max(res.staleness.maxEpochLag, seq - epoch);
        }
        const uint64_t used_epoch = epoch;
        const auto compute_start = std::chrono::steady_clock::now();
        const int64_t records_before = node_.recordsProcessed();
        std::vector<double> update = pool_.acquire(words);
        if (config_.mode == TrainingMode::ModelAveraging)
            node_.computeLocalUpdate(model, config_.minibatchPerNode,
                                     update);
        else
            node_.computeGradientSum(model, config_.minibatchPerNode,
                                     update);
        const auto compute_end = std::chrono::steady_clock::now();
        const double compute_sec =
            std::chrono::duration<double>(compute_end - compute_start)
                .count();
        const int64_t records =
            node_.recordsProcessed() - records_before;

        switch (assign.role) {
          case NodeRole::Delta:
            // Fire and forget: the next round's gate (not a broadcast
            // wait) is where this node re-synchronizes.
            sendUpdate(assign.parent, assign.id, seq, used_epoch, 1,
                       std::move(update));
            break;
          case NodeRole::GroupSigma:
          case NodeRole::MasterSigma: {
            AggregationEngine &engine = *engine_;
            engine.begin(words, seq, minEpochFor(seq));
            // Feed parked partials. Entries for earlier rounds (only
            // possible in fault mode, after a skipped/abandoned
            // round) are deliberately run through the engine so its
            // reconciliation counts and recycles them.
            for (auto it = stash.begin(); it != stash.end();) {
                if (it->seq <= seq) {
                    engine.onMessage(std::move(*it));
                    it = stash.erase(it);
                } else {
                    ++it;
                }
            }
            size_t done = 0;
            for (int from : expected)
                done += engine.senderComplete(from) ? 1 : 0;
            // 2x window at the master: a group Sigma only reports
            // after its own timeout budget (same tiering as the
            // barrier protocol).
            const double budget = isMaster ? 2.0 : 1.0;
            while (done < expected.size()) {
                Message m;
                RecvStatus r = receiveProtocol(m, budget, res.recovery);
                COSMIC_ASSERT(r != RecvStatus::Closed,
                              "inbox closed mid-pipeline at node "
                                  << assign.id);
                if (r == RecvStatus::Timeout) {
                    for (int from : expected)
                        if (!engine.senderComplete(from))
                            ++res.recovery.partialsMissed;
                    break; // k-of-n: fold whoever made it
                }
                if (m.kind == MsgKind::Model || m.seq > seq) {
                    classify(std::move(m));
                    continue;
                }
                const int from = m.from;
                if (engine.onMessage(std::move(m))) {
                    if (engine.senderComplete(from) &&
                        std::find(expected.begin(), expected.end(),
                                  from) != expected.end())
                        ++done;
                } else {
                    COSMIC_ASSERT(
                        config_.faultsActive,
                        "unexpected partial rejected at node "
                            << assign.id << " from " << from);
                }
            }
            std::vector<double> sum = engine.finish();
            for (int64_t i = 0; i < words; ++i)
                sum[i] += update[i];
            const int contributors = engine.contributors() + 1;
            pool_.release(std::move(update));
            if (!isMaster) {
                // The group's effective epoch is the oldest model any
                // folded-in partial was computed from — the master's
                // staleness gate sees through the hierarchy.
                const uint64_t agg_epoch =
                    std::min(used_epoch, engine.minEpochAccepted());
                sendUpdate(master, assign.id, seq, agg_epoch,
                           contributors, std::move(sum));
                break;
            }
            // Master: produce the round's model exactly as the
            // barrier protocol does (Eq. 3b average or one batched
            // step), quantize at the source in Q16 mode, broadcast
            // epoch seq+1 down the hierarchy, and adopt it.
            std::vector<double> next =
                masterStep(model, std::move(sum), contributors);
            broadcast(sigmas, assign.id, seq, seq + 1, next);
            broadcast(members, assign.id, seq, seq + 1, next);
            pool_.release(std::move(model));
            model = std::move(next);
            epoch = seq + 1;
            std::vector<double> out = pool_.acquire(words);
            std::copy(model.begin(), model.end(), out.begin());
            sink.onModel(seq, std::move(out));
            break;
          }
        }
        // The round's non-compute time: freshness-gate wait, partial
        // collection, fold, and broadcast — the Fig. 13 breakdown's
        // aggregation half, measured against the whole round.
        const double aggregation_sec =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - round_start)
                .count() -
            compute_sec;
        sink.onRound(assign.id, seq, compute_sec, aggregation_sec,
                     records);
    }
    // Recycle everything still in flight for this node: the final
    // broadcast no later round will consume, and parked partials of
    // rounds never reached (fault mode).
    {
        Message m;
        while (transport_.inbox().tryReceive(m))
            pool_.release(std::move(m.payload));
    }
    for (auto &m : stash)
        pool_.release(std::move(m.payload));
    stash.clear();
    pool_.release(std::move(model));
    return res;
}

} // namespace cosmic::sys
