#include "system/aggregation.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"

namespace cosmic::sys {

AggregationEngine::AggregationEngine(const AggregationConfig &config)
    : config_(config),
      pool_(config.pool ? config.pool : std::make_shared<BufferPool>()),
      netPool_(config.networkingThreads),
      aggPool_(config.aggregationThreads), ring_(config.ringCapacity),
      stripes_(64)
{
    COSMIC_ASSERT(config.chunkWords > 0, "chunk size must be positive");
}

AggregationEngine::~AggregationEngine()
{
    ring_.close();
}

void
AggregationEngine::begin(int64_t words, uint64_t seq,
                         uint64_t min_epoch)
{
    COSMIC_ASSERT(words > 0, "bad aggregation round");
    aggBuffer_ = pool_->acquire(words);
    std::fill(aggBuffer_.begin(), aggBuffer_.end(), 0.0);
    stripeWords_ = std::max<size_t>(
        config_.chunkWords,
        (words + stripes_.size() - 1) / stripes_.size());
    {
        std::lock_guard<std::mutex> lock(roundMutex_);
        roundSeq_ = seq;
        minEpoch_ = min_epoch;
        senders_.clear();
        contributors_ = 0;
        minEpochRound_ = ~uint64_t{0};
    }
    std::lock_guard<std::mutex> lock(doneMutex_);
    wordsRemaining_ = 0; // grows as messages are accepted
}

bool
AggregationEngine::onMessage(Message msg)
{
    const size_t width = aggBuffer_.size();
    const size_t span = msg.payload.size();
    // Payload sizing guard: a message whose (offset, span) does not
    // fit inside the round vector is malformed (or mis-routed).
    // Silently resizing would zero-pad or truncate someone's gradient
    // into the sum — reject it, log it, count it.
    if (span == 0 || static_cast<size_t>(msg.offset) + span > width) {
        std::fprintf(stderr,
                     "[cosmic-agg] dropping malformed partial from "
                     "node %d: offset %u + %zu words, round width "
                     "%zu\n",
                     msg.from, msg.offset, span, width);
        std::lock_guard<std::mutex> lock(roundMutex_);
        ++malformedDropped_;
        pool_->release(std::move(msg.payload));
        return false;
    }
    // Sequence/epoch/duplicate reconciliation: wrong-round messages (a
    // straggler's late partial), partials older than the staleness
    // bound, and same-round duplicate or overlapping spans (the wire's
    // duplicated delivery) are recycled, counted, and never touch the
    // sum — aggregation is idempotent.
    std::vector<double> full;
    const int senderId = msg.from;
    {
        std::lock_guard<std::mutex> lock(roundMutex_);
        if (msg.seq != roundSeq_) {
            // A copy of a partial this engine already took (the wire
            // delivered it twice and the round advanced in between)
            // is a duplicate; anything else from another round is
            // stale.
            if (wasAccepted(msg.from, msg.seq))
                ++duplicatesDropped_;
            else
                ++staleDropped_;
            pool_->release(std::move(msg.payload));
            return false;
        }
        if (msg.epoch < minEpoch_) {
            ++tooStaleDropped_;
            pool_->release(std::move(msg.payload));
            return false;
        }
        SenderState *st = nullptr;
        for (auto &s : senders_)
            if (s.sender == msg.from) {
                st = &s;
                break;
            }
        if (st && st->complete) {
            ++duplicatesDropped_;
            pool_->release(std::move(msg.payload));
            return false;
        }
        if (st) {
            for (const auto &sp : st->spans)
                if (msg.offset < sp.first + sp.second &&
                    sp.first < msg.offset + span) {
                    ++duplicatesDropped_;
                    pool_->release(std::move(msg.payload));
                    return false;
                }
        } else {
            senders_.emplace_back();
            st = &senders_.back();
            st->sender = msg.from;
            st->epoch = msg.epoch;
            st->contributors = msg.contributors;
        }
        st->epoch = std::min(st->epoch, msg.epoch);
        st->spans.emplace_back(msg.offset,
                               static_cast<uint32_t>(span));
        st->wordsStaged += static_cast<int64_t>(span);

        if (msg.offset == 0 && span == width &&
            st->spans.size() == 1) {
            // Whole-vector fast path: no staging copy — the payload
            // itself is the completed vector (the original zero-copy
            // route, untouched by streaming mode).
            full = std::move(msg.payload);
        } else {
            // Chunk: stage into the sender's reassembly buffer. Spans
            // never overlap, and completion requires them to tile the
            // full width, so no zero-fill is needed.
            if (st->staging.empty())
                st->staging = pool_->acquire(width);
            std::copy(msg.payload.begin(), msg.payload.end(),
                      st->staging.begin() + msg.offset);
            pool_->release(std::move(msg.payload));
            if (st->wordsStaged < static_cast<int64_t>(width))
                return true; // accepted, sender not yet complete
            full = std::move(st->staging);
        }
        // The sender completed: only now does it count.
        st->complete = true;
        recordAccepted(msg.from, roundSeq_);
        contributors_ += st->contributors;
        minEpochRound_ = std::min(minEpochRound_, st->epoch);
        if (st->epoch < roundSeq_) {
            ++staleAccepted_;
            maxEpochLag_ =
                std::max(maxEpochLag_, roundSeq_ - st->epoch);
        }
        if (config_.deterministic) {
            // Park the payload; finish() folds in sender-id order so
            // the sum is independent of arrival order and scheduling.
            roundPayloads_.emplace_back(msg.from, std::move(full));
            return true;
        }
    }
    dispatchComplete(senderId, std::move(full));
    return true;
}

void
AggregationEngine::dispatchComplete(int sender,
                                    std::vector<double> payload)
{
    {
        // Claim this round's words before dispatch so finish() (called
        // after the last onMessage returns) sees the full total.
        std::lock_guard<std::mutex> lock(doneMutex_);
        wordsRemaining_ += static_cast<int64_t>(payload.size());
    }
    // Move the payload into a pooled slot — the networking threads
    // will hand out references into it, never copies. Deque growth is
    // serialized by slotsMutex_ and element addresses are stable, so
    // the resolved pointer stays valid lock-free for the slot's
    // acquired lifetime.
    PayloadSlot *slot;
    {
        std::lock_guard<std::mutex> lock(slotsMutex_);
        if (freeSlots_.empty()) {
            slots_.emplace_back();
            slots_.back().id =
                static_cast<int32_t>(slots_.size()) - 1;
            freeSlots_.push_back(slots_.back().id);
        }
        slot = &slots_[freeSlots_.back()];
        freeSlots_.pop_back();
    }
    slot->data = std::move(payload);
    slot->sender = sender;
    const size_t words = slot->data.size();
    const int64_t chunks = static_cast<int64_t>(
        (words + config_.chunkWords - 1) / config_.chunkWords);
    slot->chunksRemaining.store(chunks, std::memory_order_relaxed);

    // Networking pool: produce (sender, offset, span) records into the
    // circular buffer; each produced chunk wakes one aggregation task.
    // The two-pointer capture stays within std::function's inline
    // storage, so dispatching a message allocates nothing.
    netPool_.submit([this, slot] {
        const double *payload = slot->data.data();
        const size_t total = slot->data.size();
        for (size_t off = 0; off < total; off += config_.chunkWords) {
            Chunk chunk;
            chunk.sender = slot->sender;
            chunk.offset = static_cast<int64_t>(off);
            chunk.values = payload + off;
            chunk.length = static_cast<int64_t>(
                std::min(config_.chunkWords, total - off));
            chunk.slot = slot->id;
            ring_.push(chunk);
            aggPool_.submit([this] { accumulateOneChunk(); });
        }
    });
}

void
AggregationEngine::recordAccepted(int sender, uint64_t seq)
{
    auto it = std::find_if(
        history_.begin(), history_.end(),
        [&](const AcceptedHistory &h) { return h.sender == sender; });
    if (it == history_.end()) {
        history_.push_back({sender, seq, 1});
        return;
    }
    if (seq > it->newestSeq) {
        const uint64_t shift = seq - it->newestSeq;
        it->window = shift < 64 ? (it->window << shift) | 1 : 1;
        it->newestSeq = seq;
    } else if (it->newestSeq - seq < 64) {
        it->window |= uint64_t{1} << (it->newestSeq - seq);
    }
}

bool
AggregationEngine::wasAccepted(int sender, uint64_t seq) const
{
    for (const auto &h : history_)
        if (h.sender == sender)
            return seq <= h.newestSeq && h.newestSeq - seq < 64 &&
                   ((h.window >> (h.newestSeq - seq)) & 1) != 0;
    return false;
}

int
AggregationEngine::accepted() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    int complete = 0;
    for (const auto &s : senders_)
        complete += s.complete ? 1 : 0;
    return complete;
}

bool
AggregationEngine::senderComplete(int from) const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    for (const auto &s : senders_)
        if (s.sender == from)
            return s.complete;
    return false;
}

int
AggregationEngine::contributors() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return contributors_;
}

uint64_t
AggregationEngine::minEpochAccepted() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return minEpochRound_;
}

uint64_t
AggregationEngine::duplicatesDropped() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return duplicatesDropped_;
}

uint64_t
AggregationEngine::staleDropped() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return staleDropped_;
}

uint64_t
AggregationEngine::malformedDropped() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return malformedDropped_;
}

uint64_t
AggregationEngine::tooStaleDropped() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return tooStaleDropped_;
}

uint64_t
AggregationEngine::staleAccepted() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return staleAccepted_;
}

uint64_t
AggregationEngine::maxEpochLag() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return maxEpochLag_;
}

uint64_t
AggregationEngine::incompleteDropped() const
{
    std::lock_guard<std::mutex> lock(roundMutex_);
    return incompleteDropped_;
}

void
AggregationEngine::accumulateOneChunk()
{
    Chunk chunk;
    if (!ring_.pop(chunk))
        return;
    const size_t stripe =
        (static_cast<size_t>(chunk.offset) / stripeWords_) %
        stripes_.size();
    {
        std::lock_guard<std::mutex> lock(stripes_[stripe]);
        for (int64_t i = 0; i < chunk.length; ++i)
            aggBuffer_[chunk.offset + i] += chunk.values[i];
    }
    // The fold above is the last read through chunk.values: only after
    // it may this chunk's credit free the slot for reuse.
    PayloadSlot *slot;
    {
        std::lock_guard<std::mutex> lock(slotsMutex_);
        slot = &slots_[chunk.slot];
    }
    if (slot->chunksRemaining.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
        pool_->release(std::move(slot->data));
        std::lock_guard<std::mutex> lock(slotsMutex_);
        freeSlots_.push_back(chunk.slot);
    }
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        wordsRemaining_ -= chunk.length;
        if (wordsRemaining_ <= 0)
            doneCv_.notify_all();
    }
}

std::vector<double>
AggregationEngine::finish()
{
    {
        // Discard senders whose chunks never completed (a dropped
        // chunk under faults): their staging buffers are recycled and
        // they were never counted, so a torn partial cannot leak into
        // the sum. Whole-vector senders are always complete here.
        std::lock_guard<std::mutex> lock(roundMutex_);
        for (auto &s : senders_) {
            if (s.complete)
                continue;
            ++incompleteDropped_;
            if (!s.staging.empty())
                pool_->release(std::move(s.staging));
        }
    }
    if (config_.deterministic) {
        // Fold parked payloads in sender-id order: the sum becomes a
        // pure function of the accepted set. onMessage of this round
        // has returned before finish() is called, so roundPayloads_
        // is quiescent; the lock just pairs with onMessage's writes.
        std::vector<std::pair<int, std::vector<double>>> parked;
        {
            std::lock_guard<std::mutex> lock(roundMutex_);
            parked = std::move(roundPayloads_);
            roundPayloads_.clear();
        }
        std::sort(parked.begin(), parked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (auto &entry : parked) {
            const std::vector<double> &payload = entry.second;
            for (size_t i = 0; i < payload.size(); ++i)
                aggBuffer_[i] += payload[i];
            pool_->release(std::move(entry.second));
        }
        return std::move(aggBuffer_);
    }
    std::unique_lock<std::mutex> lock(doneMutex_);
    doneCv_.wait(lock, [&] { return wordsRemaining_ <= 0; });
    lock.unlock();
    // Both pools are quiescent for this round once every word landed.
    netPool_.waitIdle();
    aggPool_.waitIdle();
    // Move, don't copy: begin() re-acquires from the pool.
    return std::move(aggBuffer_);
}

} // namespace cosmic::sys
