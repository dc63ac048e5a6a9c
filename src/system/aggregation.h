/**
 * @file
 * The Sigma node's aggregation engine (paper Fig. 2).
 *
 * Wiring: the Incoming Network Handler (the caller's receive loop — our
 * epoll analog) hands each received partial update to onMessage(). The
 * update's payload is *moved* into a pooled payload slot — never
 * copied — and a networking-pool thread produces (sender, offset,
 * span-into-slot) reference records into the bounded Circular Buffer;
 * for each produced chunk an aggregation-pool task consumes one chunk
 * and folds the referenced span into the Aggregation Buffer. When the
 * last chunk of a slot is consumed, the slot's vector is recycled
 * through the BufferPool so the sender side can reuse it next round.
 * Networking threads are the producers, aggregation threads the
 * consumers, and the bounded ring lets communication overlap with
 * computation while capping memory — with zero per-chunk and (steady
 * state) zero per-message allocation.
 *
 * Sequence-number reconciliation: each round is armed with the
 * iteration's sequence number, and onMessage() rejects (a) messages
 * from a round other than the current one — stragglers' late partials
 * from an earlier iteration — and (b) duplicates of a partial already
 * folded in — the wire's duplicated deliveries. A duplicate is
 * recognised even when the round advanced before its second copy
 * landed: the engine remembers, per sender, which of the last 64
 * rounds it accepted, so the copy counts as a duplicate, not as
 * stale. A rejected payload is recycled and never touches the sum,
 * making aggregation idempotent under message duplication and reordering
 * (property-tested in test_fault_injection.cpp). The engine no longer
 * needs the sender count up front: finish() completes once every
 * *accepted* word has landed, so a failure-tolerant caller can stop
 * feeding it after a timeout and aggregate whatever k of n partials
 * arrived.
 *
 * Bounded-staleness gating: begin() additionally arms a minimum
 * acceptable model epoch. A partial computed from a model older than
 * `round seq - maxStaleness` is rejected (tooStaleDropped) and its
 * weight is absorbed by the same k-of-n contributor rescaling that
 * covers missing partials. The barrier protocol stamps epoch = seq on
 * every message, so with maxStaleness = 0 the gate is exact freshness
 * and nothing changes on the synchronous path.
 *
 * Chunked streaming: a sender may split its round vector into several
 * (offset, span) chunk messages. Chunks are staged per sender into a
 * pooled round-width buffer (duplicate and overlapping spans are
 * rejected) and the sender only *counts* — contributors, epoch, fold —
 * once its spans tile the full width. A sender whose chunks never
 * complete (a dropped chunk under faults) is discarded wholesale at
 * finish(), so a torn partial can never corrupt the sum. Whole-vector
 * messages (offset 0, span == width) bypass staging and take the
 * original zero-copy path.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "system/buffer_pool.h"
#include "system/channel.h"
#include "system/circular_buffer.h"
#include "system/thread_pool.h"

namespace cosmic::sys {

/** Configuration of one aggregation engine. */
struct AggregationConfig
{
    int networkingThreads = 2;
    int aggregationThreads = 2;
    /** Chunks in flight in the circular buffer. */
    size_t ringCapacity = 16;
    /** Words per chunk the networking threads produce. */
    size_t chunkWords = 1024;
    /**
     * Deterministic fold order: park accepted payloads and fold them
     * at finish() sorted by sender id, instead of streaming chunks
     * through the ring in arrival order. FP addition is not
     * associative, so the streaming path's sum depends on thread
     * scheduling (runs agree only to ~1e-9); this mode makes the sum
     * a pure function of the accepted set — the property the
     * cross-backend bit-exactness tests and `cosmicd --verify` need.
     * Costs the compute/communication overlap; default off.
     */
    bool deterministic = false;
    /**
     * Recycler for consumed payloads and round buffers. Shared with
     * the runtime so buffers circulate sender -> engine -> sender;
     * the engine creates a private pool when left null.
     */
    std::shared_ptr<BufferPool> pool;
};

/** Concurrent sum-aggregator for fixed-width vectors. */
class AggregationEngine
{
  public:
    explicit AggregationEngine(const AggregationConfig &config);
    ~AggregationEngine();

    /**
     * Arms the engine for one round of @p words-word vectors carrying
     * sequence number @p seq. Any number of distinct senders may then
     * arrive via onMessage — the round total is whatever was accepted
     * by the time finish() is called. Partials whose model epoch is
     * below @p min_epoch are rejected (the bounded-staleness gate;
     * the default accepts any epoch, which is the pre-async
     * behavior).
     */
    void begin(int64_t words, uint64_t seq, uint64_t min_epoch = 0);

    /**
     * Dispatches one received partial update — a whole round vector or
     * one (offset, span) chunk of it — into the pipeline. The payload
     * is moved into a pooled slot (whole vectors) or staged into the
     * sender's reassembly buffer (chunks); the caller's vector is
     * consumed either way.
     *
     * @return true when the message was accepted for this round;
     *         false when it was rejected (stale sequence number, an
     *         epoch below the staleness bound, a same-round duplicate
     *         or overlapping span from a sender, or a payload that
     *         does not fit the round width — a malformed wire message
     *         is dropped and logged, never silently resized) — the
     *         payload is recycled and the rejection counted.
     */
    bool onMessage(Message msg);

    /** True once @p from's spans tile the full round width (a
     *  whole-vector message completes immediately). */
    bool senderComplete(int from) const;

    /**
     * Blocks until every accepted word has been aggregated and *moves*
     * the summed vector out, leaving the engine ready for the next
     * begin(). Call only after the last onMessage() of the round has
     * returned. The caller may release the returned buffer back to
     * the engine's pool when done with it.
     */
    std::vector<double> finish();

    /** Senders fully accepted (complete) this round so far. */
    int accepted() const;
    /** Total contributor weight (sum of Message::contributors over
     *  complete senders) accepted this round — the k in k-of-n
     *  rescaling. A sender still missing chunks contributes nothing. */
    int contributors() const;
    /** Smallest model epoch among this round's complete senders;
     *  UINT64_MAX when none completed. A Sigma propagates
     *  min(own epoch, this) up the tree. */
    uint64_t minEpochAccepted() const;

    /** Copies of an already accepted partial rejected, in its own
     *  round or a later one (cumulative). */
    uint64_t duplicatesDropped() const;
    /** Other wrong-round messages rejected (cumulative). */
    uint64_t staleDropped() const;
    /** Wrong-width payloads rejected (cumulative). */
    uint64_t malformedDropped() const;
    /** Partials rejected by the staleness bound (cumulative). */
    uint64_t tooStaleDropped() const;
    /** Complete senders accepted with a lagging epoch (cumulative). */
    uint64_t staleAccepted() const;
    /** Largest (round seq - epoch) lag among accepted senders
     *  (cumulative max). */
    uint64_t maxEpochLag() const;
    /** Chunked senders discarded incomplete at finish (cumulative). */
    uint64_t incompleteDropped() const;

    /** Ring high-water mark (observability). */
    size_t ringHighWater() const { return ring_.highWater(); }

    /** The payload recycler in use (shared or engine-private). */
    const std::shared_ptr<BufferPool> &pool() const { return pool_; }

  private:
    /** One in-flight message payload shared by its chunks. */
    struct PayloadSlot
    {
        std::vector<double> data;
        /** Chunks still unconsumed; the last consumer recycles. */
        std::atomic<int64_t> chunksRemaining{0};
        /** Originating node of the payload currently in the slot. */
        int sender = -1;
        /** The slot's own index in slots_ (fixed at creation). */
        int32_t id = -1;
    };

    /** Per-sender reassembly state for one round. */
    struct SenderState
    {
        int sender = -1;
        /** Smallest epoch over the sender's chunks. */
        uint64_t epoch = 0;
        /** k-of-n weight, taken from the first chunk. */
        int contributors = 0;
        int64_t wordsStaged = 0;
        bool complete = false;
        /** Accepted (offset, span) pairs — overlap rejection. */
        std::vector<std::pair<uint32_t, uint32_t>> spans;
        /** Reassembly buffer; unused by whole-vector senders. */
        std::vector<double> staging;
    };

    /** Per-sender record of accepted rounds: bit k of `window` is
     *  set when the sender's partial for round newestSeq - k
     *  completed (an anti-replay window over the last 64 rounds). */
    struct AcceptedHistory
    {
        int sender = -1;
        uint64_t newestSeq = 0;
        uint64_t window = 0;
    };

    /** Both require roundMutex_. */
    void recordAccepted(int sender, uint64_t seq);
    bool wasAccepted(int sender, uint64_t seq) const;

    void accumulateOneChunk();
    /** Moves a completed sender's full vector into the fold pipeline
     *  (parked in deterministic mode, slot + ring otherwise). */
    void dispatchComplete(int sender, std::vector<double> payload);

    AggregationConfig config_;
    std::shared_ptr<BufferPool> pool_;
    ThreadPool netPool_;
    ThreadPool aggPool_;
    CircularBuffer ring_;

    /** Payload slots (deque: grows to the peak in-flight message
     *  count, addresses stay stable, slots are reused via the
     *  freelist). Guarded by slotsMutex_; slot.data of an *acquired*
     *  slot is read lock-free by aggregation threads, which is safe
     *  because it is only reassigned while the slot is free. */
    std::deque<PayloadSlot> slots_;
    std::vector<int32_t> freeSlots_;
    std::mutex slotsMutex_;

    std::vector<double> aggBuffer_;
    /** Striped locks over aggBuffer_ regions (one per chunk slot). */
    std::vector<std::mutex> stripes_;
    size_t stripeWords_ = 1;

    /** Round state: the armed sequence number, the staleness gate,
     *  per-sender reassembly, and the total contributor weight.
     *  Guarded by roundMutex_ (onMessage may race in tests). */
    mutable std::mutex roundMutex_;
    uint64_t roundSeq_ = 0;
    uint64_t minEpoch_ = 0;
    std::vector<SenderState> senders_;
    int contributors_ = 0;
    uint64_t minEpochRound_ = ~uint64_t{0};
    uint64_t duplicatesDropped_ = 0;
    uint64_t staleDropped_ = 0;
    uint64_t malformedDropped_ = 0;
    uint64_t tooStaleDropped_ = 0;
    uint64_t staleAccepted_ = 0;
    uint64_t maxEpochLag_ = 0;
    uint64_t incompleteDropped_ = 0;
    std::vector<AcceptedHistory> history_;
    /** Deterministic mode: accepted (sender, payload) pairs parked
     *  until finish() folds them in sender-id order. */
    std::vector<std::pair<int, std::vector<double>>> roundPayloads_;

    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    int64_t wordsRemaining_ = 0;
};

} // namespace cosmic::sys
