#include "accel/elastic.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.h"
#include "compiler/scheduler.h"
#include "dfg/analysis.h"
#include "dfg/interp.h"

namespace cosmic::accel {

using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

namespace {

/**
 * Open-addressed map from non-negative int64 keys to dense int32
 * indices (linear probing, doubling at half load). The constructor's
 * two lookups — (producer, destination PE) to send entry and
 * (source PE, destination PE) to link — go through it.
 */
class DenseIndex
{
  public:
    /** Index of @p key, or -1. */
    int32_t
    find(int64_t key) const
    {
        if (keys_.empty())
            return -1;
        for (size_t i = hash(key);; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return values_[i];
            if (keys_[i] < 0)
                return -1;
        }
    }

    /** Index of @p key, inserting @p fresh when absent; the flag says
     *  whether it was inserted. */
    std::pair<int32_t, bool>
    insert(int64_t key, int32_t fresh)
    {
        if (2 * (size_ + 1) > keys_.size())
            grow();
        size_t i = hash(key);
        for (; keys_[i] >= 0; i = (i + 1) & mask_)
            if (keys_[i] == key)
                return {values_[i], false};
        keys_[i] = key;
        values_[i] = fresh;
        ++size_;
        return {fresh, true};
    }

  private:
    size_t
    hash(int64_t key) const
    {
        return static_cast<size_t>(
                   (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
                   32) &
               mask_;
    }

    void
    grow()
    {
        std::vector<int64_t> keys = std::move(keys_);
        std::vector<int32_t> values = std::move(values_);
        const size_t capacity = std::max<size_t>(64, 2 * keys.size());
        keys_.assign(capacity, -1);
        values_.assign(capacity, 0);
        mask_ = capacity - 1;
        size_ = 0;
        for (size_t i = 0; i < keys.size(); ++i)
            if (keys[i] >= 0)
                insert(keys[i], values[i]);
    }

    std::vector<int64_t> keys_;
    std::vector<int32_t> values_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace

ElasticSimulator::ElasticSimulator(const dfg::Translation &translation,
                                   const compiler::CompiledKernel &kernel,
                                   ElasticConfig config,
                                   Numeric numeric)
    : ElasticSimulator(translation, kernel, dfg::analyze(translation.dfg),
                       std::move(config), numeric)
{}

ElasticSimulator::ElasticSimulator(const dfg::Translation &translation,
                                   const compiler::CompiledKernel &kernel,
                                   const dfg::DfgAnalysis &analysis,
                                   ElasticConfig config,
                                   Numeric numeric)
    : tr_(translation), kernel_(kernel), config_(std::move(config)),
      numeric_(numeric),
      bus_(compiler::BusKind::Hierarchical, kernel.mapping.columns,
           kernel.mapping.rowsPerThread)
{
    COSMIC_ASSERT(config_.recordsInFlight >= 1,
                  "recordsInFlight must be positive");
    const dfg::Dfg &dfg = tr_.dfg;
    const auto &mapping = kernel_.mapping;
    const int64_t n = dfg.size();
    numPes_ = mapping.numPes;

    remainingInit_.assign(n, 0);
    latency_.assign(n, 0);
    constValue_.assign(n, 0.0);
    peOpBase_.assign(numPes_ + 1, 0);
    crossInBase_.assign(n + 1, 0);
    samePeBase_.assign(n + 1, 0);

    // One pass in id order: classify operand edges and count messages
    // per (producer, destination PE) — one FIFO message serves every
    // consumer edge of that producer on that PE. Links are numbered in
    // the order this scan first crosses them. crossIn_ lists each
    // operation's cross-PE operand edges by send entry.
    DenseIndex entry_of; // producer * numPes + destination PE
    DenseIndex link_of;  // source PE * numPes + destination PE
    auto resident = [&](NodeId o) {
        const OpKind op = dfg.node(o).op;
        return op == OpKind::Const || op == OpKind::Input;
    };
    for (NodeId v = 0; v < n; ++v) {
        crossInBase_[v] = static_cast<int32_t>(crossIn_.size());
        const auto &node = dfg.node(v);
        if (node.op == OpKind::Const) {
            constValue_[v] = roundTo(numeric_, dfg.constValue(v));
            continue;
        }
        if (node.op == OpKind::Input) {
            inputs_.push_back({v, dfg.inputPos(v),
                               node.category == dfg::Category::Data});
            continue;
        }
        ops_.push_back(v);
        latency_[v] = static_cast<int8_t>(
            compiler::Scheduler::opLatency(node.op));
        const int pe = mapping.peOf[v];
        COSMIC_ASSERT(pe >= 0 && pe < numPes_,
                      "operation " << v << " is unmapped");
        ++peOpBase_[pe + 1];
        for (NodeId o : {node.a, node.b, node.c}) {
            if (o == kInvalidNode || resident(o))
                continue;
            ++remainingInit_[v];
            const int src_pe = mapping.peOf[o];
            if (src_pe == pe) {
                ++samePeBase_[o + 1];
                continue;
            }
            const auto [e, fresh] = entry_of.insert(
                static_cast<int64_t>(o) * numPes_ + pe,
                static_cast<int32_t>(sendPlan_.size()));
            if (fresh) {
                SendPlanEntry entry;
                entry.producer = o;
                entry.dstPe = pe;
                const auto [link, new_link] = link_of.insert(
                    static_cast<int64_t>(src_pe) * numPes_ + pe,
                    static_cast<int32_t>(links_.size()));
                if (new_link)
                    links_.push_back(
                        Link{src_pe, pe, config_.defaultCapacity});
                entry.link = link;
                auto r = bus_.route(src_pe, pe);
                COSMIC_ASSERT(r.latency >= 1, "zero-latency route");
                entry.bus = r.bus;
                entry.latency = static_cast<int32_t>(r.latency);
                sendPlan_.push_back(entry);
            }
            ++sendPlan_[e].edgeCount;
            crossIn_.push_back(e);
        }
    }
    crossInBase_[n] = static_cast<int32_t>(crossIn_.size());
    totalOps_ = static_cast<int64_t>(ops_.size());
    for (int pe = 0; pe < numPes_; ++pe)
        peOpBase_[pe + 1] += peOpBase_[pe];

    // Each PE's operations in firing order, which is the issue order:
    // tallest dependence chain first, then lowest id. A ready set is a
    // bitmap over these ranks; its lowest set bit fires next.
    COSMIC_ASSERT(analysis.issueOrder.size() == ops_.size(),
                  "analysis of a different DFG");
    {
        peOrder_.resize(ops_.size());
        rank_.assign(n, 0);
        std::vector<int32_t> cursor(peOpBase_.begin(), peOpBase_.end() - 1);
        for (NodeId v : analysis.issueOrder) {
            const int pe = mapping.peOf[v];
            rank_[v] = cursor[pe] - peOpBase_[pe];
            peOrder_[cursor[pe]++] = v;
        }
        peWordBase_.assign(numPes_ + 1, 0);
        for (int pe = 0; pe < numPes_; ++pe)
            peWordBase_[pe + 1] =
                peWordBase_[pe] + (peOpBase_[pe + 1] - peOpBase_[pe] + 63) / 64;
        initialReady_.assign(peWordBase_[numPes_], 0);
        initialCount_.assign(numPes_, 0);
        for (NodeId v : ops_) {
            if (remainingInit_[v] != 0)
                continue;
            const int pe = mapping.peOf[v];
            initialReady_[peWordBase_[pe] + rank_[v] / 64] |=
                uint64_t{1} << (rank_[v] % 64);
            ++initialCount_[pe];
        }
    }
    for (const auto &[key, capacity] : config_.linkCapacity) {
        const int32_t link = link_of.find(key);
        if (link >= 0)
            links_[link].capacity = capacity;
    }
    for (const Link &link : links_)
        COSMIC_ASSERT(link.capacity >= 0, "negative FIFO capacity");

    // Sort entries producer-major, then by (bus, destination row):
    // entries of one producer that ride the same shared bus into the
    // same row form one broadcast group — the row bus and the tree
    // lanes are broadcast media (paper Sec. 5.1), so the group costs a
    // single bus slot and lands in every destination FIFO at once,
    // exactly like the static scheduler's per-row transfer dedup.
    // Neighbour-link entries (bus -1) stay singleton groups. A counting
    // sort buckets the entries by producer; the row follows from the
    // PE, so (bus, destination PE) orders each producer's few entries.
    const int columns = mapping.columns;
    const size_t num_entries = sendPlan_.size();
    prodGroupBase_.assign(n + 1, 0);
    {
        std::vector<int32_t> &by_producer = prodGroupBase_;
        for (const auto &entry : sendPlan_)
            ++by_producer[entry.producer + 1];
        for (int64_t v = 0; v < n; ++v)
            by_producer[v + 1] += by_producer[v];
        std::vector<int32_t> order(num_entries);
        for (size_t e = 0; e < num_entries; ++e)
            order[by_producer[sendPlan_[e].producer]++] =
                static_cast<int32_t>(e);
        auto before = [&](int32_t a, int32_t b) {
            const auto &x = sendPlan_[a];
            const auto &y = sendPlan_[b];
            return x.bus != y.bus ? x.bus < y.bus : x.dstPe < y.dstPe;
        };
        for (size_t lo = 0; lo < num_entries;) {
            size_t hi = lo + 1;
            while (hi < num_entries &&
                   sendPlan_[order[hi]].producer ==
                       sendPlan_[order[lo]].producer)
                ++hi;
            if (hi - lo > 1)
                std::sort(order.begin() + lo, order.begin() + hi, before);
            lo = hi;
        }
        std::vector<SendPlanEntry> sorted(num_entries);
        std::vector<int32_t> remap(num_entries, 0);
        for (size_t i = 0; i < num_entries; ++i) {
            sorted[i] = sendPlan_[order[i]];
            remap[order[i]] = static_cast<int32_t>(i);
        }
        sendPlan_ = std::move(sorted);
        for (int32_t &e : crossIn_)
            e = remap[e];
    }
    groupBase_.clear();
    std::fill(prodGroupBase_.begin(), prodGroupBase_.end(), 0);
    for (size_t e = 0; e < num_entries; ++e) {
        const auto &entry = sendPlan_[e];
        bool new_group = e == 0 || entry.bus < 0;
        if (!new_group) {
            const auto &prev = sendPlan_[e - 1];
            new_group = prev.producer != entry.producer ||
                        prev.bus != entry.bus || prev.bus < 0 ||
                        prev.dstPe / columns != entry.dstPe / columns;
        }
        if (new_group) {
            groupBase_.push_back(static_cast<int32_t>(e));
            ++prodGroupBase_[entry.producer + 1];
        }
    }
    groupBase_.push_back(static_cast<int32_t>(num_entries));
    for (int64_t v = 0; v < n; ++v)
        prodGroupBase_[v + 1] += prodGroupBase_[v];

    // Consumer CSRs: who to wake when a value lands (same PE) or a
    // message arrives (cross PE), in consumer id order.
    crossBase_.assign(num_entries + 1, 0);
    for (int32_t e : crossIn_)
        ++crossBase_[e + 1];
    for (int64_t v = 0; v < n; ++v)
        samePeBase_[v + 1] += samePeBase_[v];
    for (size_t e = 0; e < num_entries; ++e)
        crossBase_[e + 1] += crossBase_[e];
    samePeConsumers_.assign(samePeBase_[n], kInvalidNode);
    crossConsumers_.assign(crossBase_[num_entries], kInvalidNode);
    {
        std::vector<int32_t> same_cursor(samePeBase_.begin(),
                                         samePeBase_.end() - 1);
        std::vector<int32_t> cross_cursor(crossBase_.begin(),
                                          crossBase_.end() - 1);
        for (NodeId v : ops_) {
            const auto &node = dfg.node(v);
            for (NodeId o : {node.a, node.b, node.c})
                if (o != kInvalidNode && !resident(o) &&
                    mapping.peOf[o] == mapping.peOf[v])
                    samePeConsumers_[same_cursor[o]++] = v;
            for (int32_t i = crossInBase_[v]; i < crossInBase_[v + 1]; ++i)
                crossConsumers_[cross_cursor[crossIn_[i]]++] = v;
        }
    }
}

namespace {

/** A broadcast group waiting to enter its destination FIFO(s). */
struct Send
{
    int64_t record = 0;
    int32_t slot = 0;
    int32_t group = 0;
};

/** FIFO of sends; erasing from the middle shifts only the tail. */
struct SendQueue
{
    std::vector<Send> items;
    size_t head = 0;

    bool empty() const { return head == items.size(); }
    size_t size() const { return items.size() - head; }
    const Send &operator[](size_t i) const { return items[head + i]; }
    void push(const Send &send) { items.push_back(send); }

    void
    erase(size_t i)
    {
        if (i == 0)
            ++head;
        else
            items.erase(items.begin() + static_cast<ptrdiff_t>(head + i));
        if (head == items.size()) {
            items.clear();
            head = 0;
        }
    }
};

/**
 * The events maturing in one cycle. Every event lands 1 to
 * ElasticSimulator's event horizon cycles after the cycle that makes
 * it, so a ring of horizon + 1 buckets replaces a global heap.
 */
struct Bucket
{
    /** (slot, record) pairs: a record's inputs become resident. */
    std::vector<std::pair<int32_t, int64_t>> admits;
    /** slot << 32 | node: an operation's writeback lands on its PE;
     *  `senders` holds the operations with cross-PE consumers, whose
     *  order decides the order their sends join the bus queues. */
    std::vector<uint64_t> finishes;
    std::vector<uint64_t> senders;
    /** slot << 32 | send entry: a message matures into its FIFO. */
    std::vector<uint64_t> arrivals;

    bool
    empty() const
    {
        return admits.empty() && finishes.empty() && senders.empty() &&
               arrivals.empty();
    }
};

/** Bitmap helpers: PE and bus sets visited in index order. */
void
setBit(std::vector<uint64_t> &bitmap, int i)
{
    bitmap[i >> 6] |= uint64_t{1} << (i & 63);
}

void
clearBit(std::vector<uint64_t> &bitmap, int i)
{
    bitmap[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

/** Calls @p fn on every set bit in ascending order; @p fn may clear
 *  bits (each word is walked as it stood when reached). */
template <typename Fn>
void
forEachBit(const std::vector<uint64_t> &bitmap, Fn &&fn)
{
    for (size_t word = 0; word < bitmap.size(); ++word)
        for (uint64_t bits = bitmap[word]; bits != 0; bits &= bits - 1)
            fn(static_cast<int>(word * 64) + std::countr_zero(bits));
}

/** Per-record in-flight state; values and counters live in flat
 *  slot-major arrays. */
struct SlotState
{
    int64_t record = -1; ///< -1 = free.
    int64_t opsDone = 0;
};

} // namespace

ElasticResult
ElasticSimulator::runBatch(std::span<const double> records, int64_t count,
                           std::span<const double> model) const
{
    ReentrancyGuard::Scope in_use(guard_);
    const dfg::Dfg &dfg = tr_.dfg;
    const int64_t n = dfg.size();
    const auto &pe_of = kernel_.mapping.peOf;

    ElasticResult result;
    result.stats.peBusy.assign(numPes_, 0);
    result.gradients.resize(count);
    COSMIC_ASSERT(count >= 0, "negative record count");
    COSMIC_ASSERT(static_cast<int64_t>(records.size()) >=
                      count * tr_.recordWords,
                  "record batch too short");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr_.modelWords,
                  "model too short");
    if (count == 0)
        return result;

    const int window =
        static_cast<int>(std::min<int64_t>(config_.recordsInFlight,
                                           count));

    int64_t max_latency = 0;
    for (const auto &entry : sendPlan_)
        max_latency = std::max<int64_t>(max_latency, entry.latency);
    const int64_t cycle_bound =
        config_.maxCycles > 0
            ? config_.maxCycles
            : 1024 + count *
                         (totalOps_ +
                          static_cast<int64_t>(sendPlan_.size())) *
                         (max_latency + 4);

    const int64_t num_sends = static_cast<int64_t>(sendPlan_.size());
    std::vector<SlotState> slots(window);
    std::vector<double> values(window * n, 0.0);
    std::vector<int32_t> remaining(window * n, 0);
    std::vector<int32_t> msg_refs(window * num_sends, 0);

    // Ready operations per (PE, slot): a bitmap over the PE's firing
    // order, laid out slot-major like the admission template
    // initialReady_; `first_word` bounds its first non-zero word from
    // below. A PE serves its oldest in-flight record first
    // (draining frees slots and FIFO credits); `age` lists the busy
    // slots oldest record first.
    const size_t pe_slots = static_cast<size_t>(numPes_) * window;
    const int32_t slot_words = peWordBase_[numPes_];
    std::vector<uint64_t> ready(static_cast<size_t>(window) * slot_words);
    std::vector<int32_t> ready_count(pe_slots, 0);
    std::vector<int32_t> first_word(pe_slots, 0);
    std::vector<int32_t> pe_ready(numPes_, 0);
    // Bitmaps of the PEs with a ready operation and of the non-empty
    // bus queues: the per-cycle phases visit only those, in index order.
    std::vector<uint64_t> ready_pes((numPes_ + 63) / 64, 0);
    std::vector<int32_t> age;
    age.reserve(window);
    auto ready_words = [&](int pe, int32_t slot) {
        return ready.data() + slot * slot_words + peWordBase_[pe];
    };

    // Every event matures 1..horizon cycles after the cycle making it:
    // a message after its route latency, a writeback after one or two
    // cycles, a refill admission after one.
    const int64_t horizon = std::max<int64_t>(max_latency, 2);
    const int64_t ring_size = static_cast<int64_t>(
        std::bit_ceil(static_cast<uint64_t>(horizon + 1)));
    std::vector<Bucket> ring(ring_size);
    auto bucket_at = [&](int64_t time) -> Bucket & {
        return ring[time & (ring_size - 1)];
    };
    int64_t pending_events = 0;

    const int num_buses = bus_.busCount();
    std::vector<SendQueue> bus_sends(num_buses);
    std::vector<uint64_t> busy_buses((num_buses + 63) / 64, 0);
    SendQueue neighbor_sends;
    std::vector<int32_t> occupancy(links_.size(), 0);
    std::vector<int32_t> peak(links_.size(), 0);
    std::vector<int64_t> traffic(links_.size(), 0);
    std::vector<char> blocked(numPes_, 0);
    std::vector<int32_t> blocked_pes;

    int64_t next_record = 0;
    int64_t records_done = 0;
    int64_t t = 0;

    auto fail = [&](const std::string &reason) {
        if (!result.ok)
            return;
        result.ok = false;
        std::ostringstream oss;
        oss << reason << " at cycle " << t << ": ";
        int64_t outstanding = 0;
        int64_t active = 0;
        for (const auto &slot : slots) {
            if (slot.record < 0)
                continue;
            ++active;
            outstanding += totalOps_ - slot.opsDone;
        }
        oss << outstanding << " op(s) outstanding across " << active
            << " in-flight record(s)";
        for (int32_t s = 0; s < window; ++s) {
            if (slots[s].record < 0)
                continue;
            const int32_t *rem = &remaining[s * n];
            for (NodeId v : ops_) {
                if (rem[v] > 0) {
                    oss << "; op " << v << " (record " << slots[s].record
                        << ") on PE " << pe_of[v] << " still waits for "
                        << rem[v] << " operand(s)";
                    break;
                }
            }
            break;
        }
        // First blocked transfer: the group member whose FIFO is full.
        auto describe = [&](const Send &send) {
            for (int32_t e = groupBase_[send.group];
                 e < groupBase_[send.group + 1]; ++e) {
                const auto &entry = sendPlan_[e];
                const Link &link = links_[entry.link];
                if (occupancy[entry.link] < link.capacity)
                    continue;
                oss << "; blocked transfer of op " << entry.producer
                    << " (record " << send.record << ") from PE "
                    << link.srcPe << " to PE " << link.dstPe
                    << " (FIFO capacity " << link.capacity
                    << ", occupancy " << occupancy[entry.link] << ")";
                return true;
            }
            return false;
        };
        bool found = false;
        for (size_t i = 0; !found && i < neighbor_sends.size(); ++i)
            found = describe(neighbor_sends[i]);
        for (int b = 0; !found && b < num_buses; ++b)
            for (size_t i = 0; !found && i < bus_sends[b].size(); ++i)
                found = describe(bus_sends[b][i]);
        result.violation = oss.str();
    };

    auto push_ready = [&](int32_t slot, NodeId v) {
        const int pe = pe_of[v];
        const int32_t rank = rank_[v];
        ready_words(pe, slot)[rank / 64] |= uint64_t{1} << (rank % 64);
        const size_t i = pe * window + slot;
        first_word[i] = std::min(first_word[i], rank / 64);
        ++ready_count[i];
        if (pe_ready[pe]++ == 0)
            setBit(ready_pes, pe);
    };

    // Wakes @p consumer in @p slot once one operand is satisfied.
    auto satisfy = [&](int32_t slot, NodeId consumer) {
        if (--remaining[slot * n + consumer] == 0)
            push_ready(slot, consumer);
    };

    auto complete_record = [&](int32_t slot_idx) {
        SlotState &slot = slots[slot_idx];
        const auto &grads = dfg.gradientNodes();
        const double *value = &values[slot_idx * n];
        auto &out = result.gradients[slot.record];
        out.assign(grads.size(), 0.0);
        for (size_t g = 0; g < grads.size(); ++g)
            out[g] = value[grads[g]];
        slot.record = -1;
        age.erase(std::find(age.begin(), age.end(), slot_idx));
        ++records_done;
    };

    auto admit = [&](int32_t slot_idx, int64_t record_idx) {
        SlotState &slot = slots[slot_idx];
        COSMIC_ASSERT(slot.record < 0, "admitting into a busy slot");
        slot.record = record_idx;
        slot.opsDone = 0;
        auto older = std::find_if(age.begin(), age.end(), [&](int32_t s) {
            return slots[s].record > record_idx;
        });
        age.insert(older, slot_idx);
        double *value = &values[slot_idx * n];
        std::copy(constValue_.begin(), constValue_.end(), value);
        std::copy(remainingInit_.begin(), remainingInit_.end(),
                  remaining.begin() + slot_idx * n);
        int32_t *refs = msg_refs.data() + slot_idx * num_sends;
        for (int64_t e = 0; e < num_sends; ++e)
            refs[e] = sendPlan_[e].edgeCount;
        auto record = records.subspan(record_idx * tr_.recordWords,
                                      tr_.recordWords);
        for (const InputSource &input : inputs_)
            value[input.node] = roundTo(
                numeric_, input.data ? record[input.pos] : model[input.pos]);
        std::copy(initialReady_.begin(), initialReady_.end(),
                  ready.begin() + slot_idx * slot_words);
        for (int pe = 0; pe < numPes_; ++pe) {
            first_word[pe * window + slot_idx] = 0;
            const int32_t count = initialCount_[pe];
            ready_count[pe * window + slot_idx] = count;
            if (count == 0)
                continue;
            if (pe_ready[pe] == 0)
                setBit(ready_pes, pe);
            pe_ready[pe] += count;
        }
        if (totalOps_ == 0)
            complete_record(slot_idx);
    };

    // Issues @p pe's best ready operation at cycle t: the oldest
    // record's tallest one.
    auto fire = [&](int pe) {
        int32_t slot_idx = 0;
        for (int32_t s : age) {
            if (ready_count[pe * window + s] > 0) {
                slot_idx = s;
                break;
            }
        }
        const size_t i = pe * window + slot_idx;
        uint64_t *words = ready_words(pe, slot_idx);
        int32_t &w = first_word[i];
        while (words[w] == 0)
            ++w;
        const NodeId v =
            peOrder_[peOpBase_[pe] + w * 64 + std::countr_zero(words[w])];
        words[w] &= words[w] - 1;
        --ready_count[i];
        if (--pe_ready[pe] == 0)
            clearBit(ready_pes, pe);

        SlotState &slot = slots[slot_idx];
        double *value = &values[slot_idx * n];
        const auto &node = dfg.node(v);
        const double a = node.a != kInvalidNode ? value[node.a] : 0.0;
        const double b = node.b != kInvalidNode ? value[node.b] : 0.0;
        const double c = node.c != kInvalidNode ? value[node.c] : 0.0;
        value[v] = roundTo(numeric_, dfg::evaluateOp(node.op, a, b, c));

        // Firing consumes this op's inbound messages: the last consumer
        // of a message releases its FIFO credit (visible to next
        // cycle's injection phase).
        int32_t *refs = msg_refs.data() + slot_idx * num_sends;
        for (int32_t i = crossInBase_[v]; i < crossInBase_[v + 1]; ++i)
            if (--refs[crossIn_[i]] == 0)
                --occupancy[sendPlan_[crossIn_[i]].link];

        const int64_t finish = t + latency_[v];
        Bucket &lands = bucket_at(finish);
        (prodGroupBase_[v] < prodGroupBase_[v + 1] ? lands.senders
                                                   : lands.finishes)
            .push_back(static_cast<uint64_t>(slot_idx) << 32 |
                       static_cast<uint32_t>(v));
        ++pending_events;
        ++result.stats.fires;
        ++result.stats.peBusy[pe];
        result.stats.cycles = std::max(result.stats.cycles, finish);

        if (++slot.opsDone == totalOps_) {
            complete_record(slot_idx);
            if (next_record < count) {
                bucket_at(t + 1).admits.emplace_back(slot_idx,
                                                     next_record++);
                ++pending_events;
            }
        }
    };

    for (int s = 0; s < window; ++s)
        bucket_at(0).admits.emplace_back(s, next_record++);
    pending_events += window;

    while (records_done < count) {
        if (t > cycle_bound) {
            fail("elastic progress bound exceeded");
            return result;
        }
        bool progressed = false;

        // Phase 1: mature every event due this cycle, in (kind, slot,
        // payload) order. Admissions come first, so a writeback left
        // over from a slot's previous record meets the new one (such
        // leftovers have no consumers: consumers cannot fire without
        // it). Only the order of writebacks matters beyond that — it
        // is the order their sends join the bus queues — so they are
        // sorted; arrivals only wake consumers, in any order.
        Bucket &due = bucket_at(t);
        if (!due.empty()) {
            progressed = true;
            pending_events -= static_cast<int64_t>(
                due.admits.size() + due.finishes.size() +
                due.senders.size() +
                due.arrivals.size());
            std::sort(due.admits.begin(), due.admits.end());
            for (const auto &[slot, record] : due.admits)
                admit(slot, record);
            due.admits.clear();
            auto writeback = [&](int32_t slot, NodeId v) {
                for (int32_t i = samePeBase_[v]; i < samePeBase_[v + 1];
                     ++i)
                    satisfy(slot, samePeConsumers_[i]);
            };
            for (uint64_t event : due.finishes) {
                const int32_t slot = static_cast<int32_t>(event >> 32);
                if (slots[slot].record >= 0)
                    writeback(slot,
                              static_cast<NodeId>(event & 0xFFFFFFFFu));
            }
            due.finishes.clear();
            std::sort(due.senders.begin(), due.senders.end());
            for (uint64_t event : due.senders) {
                const int32_t slot = static_cast<int32_t>(event >> 32);
                const NodeId v = static_cast<NodeId>(event & 0xFFFFFFFFu);
                if (slots[slot].record < 0)
                    continue;
                writeback(slot, v);
                for (int32_t g = prodGroupBase_[v];
                     g < prodGroupBase_[v + 1]; ++g) {
                    const auto &entry = sendPlan_[groupBase_[g]];
                    Send send{slots[slot].record, slot, g};
                    if (entry.bus < 0) {
                        neighbor_sends.push(send);
                    } else {
                        bus_sends[entry.bus].push(send);
                        setBit(busy_buses, entry.bus);
                    }
                }
            }
            due.senders.clear();
            for (uint64_t event : due.arrivals) {
                const int32_t slot = static_cast<int32_t>(event >> 32);
                const int32_t e = static_cast<int32_t>(event & 0xFFFFFFFFu);
                for (int32_t i = crossBase_[e]; i < crossBase_[e + 1];
                     ++i)
                    satisfy(slot, crossConsumers_[i]);
            }
            due.arrivals.clear();
        }

        // Phase 2: inject matured values into destination FIFOs.
        // Neighbour links are contention-free; each shared bus
        // arbitrates one broadcast group per cycle (a group lands in
        // every destination-row FIFO at once). A group skipped because
        // any of its FIFOs is full backpressures its producer PE.
        for (int32_t pe : blocked_pes)
            blocked[pe] = 0;
        blocked_pes.clear();
        auto injectable = [&](int32_t group) {
            for (int32_t e = groupBase_[group]; e < groupBase_[group + 1];
                 ++e)
                if (occupancy[sendPlan_[e].link] >=
                    links_[sendPlan_[e].link].capacity)
                    return false;
            return true;
        };
        auto inject = [&](const Send &send) {
            for (int32_t e = groupBase_[send.group];
                 e < groupBase_[send.group + 1]; ++e) {
                const auto &entry = sendPlan_[e];
                ++occupancy[entry.link];
                peak[entry.link] =
                    std::max(peak[entry.link], occupancy[entry.link]);
                ++traffic[entry.link];
                ++result.stats.messages;
                bucket_at(t + entry.latency)
                    .arrivals.push_back(
                        static_cast<uint64_t>(send.slot) << 32 |
                        static_cast<uint32_t>(e));
                ++pending_events;
            }
            progressed = true;
        };
        auto block_producer = [&](int32_t group) {
            const int pe = links_[sendPlan_[groupBase_[group]].link].srcPe;
            if (!blocked[pe]) {
                blocked[pe] = 1;
                blocked_pes.push_back(pe);
            }
        };
        if (!neighbor_sends.empty()) {
            // Stable in-place compaction: injected sends leave, blocked
            // ones keep their order.
            auto &items = neighbor_sends.items;
            size_t kept = neighbor_sends.head;
            for (size_t i = neighbor_sends.head; i < items.size(); ++i) {
                if (injectable(items[i].group)) {
                    inject(items[i]);
                } else {
                    block_producer(items[i].group);
                    items[kept++] = items[i];
                }
            }
            items.resize(kept);
            if (neighbor_sends.head == kept) {
                items.clear();
                neighbor_sends.head = 0;
            }
        }
        forEachBit(busy_buses, [&](int b) {
            auto &queue = bus_sends[b];
            for (size_t i = 0; i < queue.size(); ++i) {
                if (injectable(queue[i].group)) {
                    inject(queue[i]);
                    queue.erase(i);
                    break;
                }
                block_producer(queue[i].group);
            }
            if (queue.empty())
                clearBit(busy_buses, b);
        });

        // Phase 3: each unblocked PE fires its best ready operation.
        forEachBit(ready_pes, [&](int pe) {
            if (blocked[pe]) {
                ++result.stats.stallCycles;
                return;
            }
            fire(pe);
            progressed = true;
        });

        if (progressed) {
            ++t;
            continue;
        }
        if (pending_events > 0) {
            // Nothing can happen until the next event matures.
            do
                ++t;
            while (bucket_at(t).empty());
            continue;
        }
        // No fireable op, no message in flight, records outstanding:
        // the configuration deadlocked.
        fail("elastic deadlock");
        return result;
    }

    result.stats.links.resize(links_.size());
    for (size_t l = 0; l < links_.size(); ++l) {
        auto &stats = result.stats.links[l];
        stats.srcPe = links_[l].srcPe;
        stats.dstPe = links_[l].dstPe;
        stats.capacity = links_[l].capacity;
        stats.peakOccupancy = peak[l];
        stats.traffic = traffic[l];
    }
    if (result.stats.cycles > 0)
        result.stats.utilization =
            static_cast<double>(result.stats.fires) /
            (static_cast<double>(numPes_) * result.stats.cycles);
    return result;
}

SimulationResult
ElasticSimulator::run(std::span<const double> record,
                      std::span<const double> model) const
{
    ElasticResult batch = runBatch(record, 1, model);
    SimulationResult result;
    result.ok = batch.ok;
    result.violation = batch.violation;
    if (!batch.gradients.empty())
        result.gradient = std::move(batch.gradients.front());
    result.cycles = batch.stats.cycles;
    result.messages = batch.stats.messages;
    return result;
}

} // namespace cosmic::accel
