#include "accel/elastic.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <sstream>
#include <tuple>

#include "common/error.h"
#include "compiler/scheduler.h"
#include "dfg/analysis.h"
#include "dfg/interp.h"

namespace cosmic::accel {

using dfg::kInvalidNode;
using dfg::NodeId;
using dfg::OpKind;

int32_t
ElasticSimulator::linkIndexFor(int src_pe, int dst_pe)
{
    const int64_t key =
        static_cast<int64_t>(src_pe) * numPes_ + dst_pe;
    auto it = linkIndex_.find(key);
    if (it != linkIndex_.end())
        return it->second;
    Link link;
    link.srcPe = src_pe;
    link.dstPe = dst_pe;
    auto cap = config_.linkCapacity.find(key);
    link.capacity = cap != config_.linkCapacity.end()
                        ? cap->second
                        : config_.defaultCapacity;
    COSMIC_ASSERT(link.capacity >= 0, "negative FIFO capacity");
    const int32_t idx = static_cast<int32_t>(links_.size());
    links_.push_back(link);
    linkIndex_.emplace(key, idx);
    return idx;
}

ElasticSimulator::ElasticSimulator(const dfg::Translation &translation,
                                   const compiler::CompiledKernel &kernel,
                                   ElasticConfig config,
                                   Numeric numeric)
    : ElasticSimulator(translation, kernel, nullptr, std::move(config),
                       numeric)
{}

ElasticSimulator::ElasticSimulator(const dfg::Translation &translation,
                                   const compiler::CompiledKernel &kernel,
                                   const dfg::DfgAnalysis &analysis,
                                   ElasticConfig config,
                                   Numeric numeric)
    : ElasticSimulator(translation, kernel, &analysis.height,
                       std::move(config), numeric)
{}

ElasticSimulator::ElasticSimulator(const dfg::Translation &translation,
                                   const compiler::CompiledKernel &kernel,
                                   const std::vector<int32_t> *height,
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

    if (height == nullptr) {
        ownHeight_ = dfg::computeHeights(dfg);
        height = &ownHeight_;
    }
    height_ = *height;
    routes_.assign(3 * n, OperandRoute{});
    remainingInit_.assign(n, 0);
    constValue_.assign(n, 0.0);

    for (NodeId v = 0; v < n; ++v) {
        const auto &node = dfg.node(v);
        if (node.op == OpKind::Const) {
            constValue_[v] = roundTo(numeric_, dfg.constValue(v));
            continue;
        }
        if (node.op == OpKind::Input) {
            inputs_.push_back(v);
            continue;
        }
        ops_.push_back(v);
        const int pe = mapping.peOf[v];
        COSMIC_ASSERT(pe >= 0 && pe < numPes_,
                      "operation " << v << " is unmapped");
    }
    totalOps_ = static_cast<int64_t>(ops_.size());

    // First pass: classify operand edges and count messages per
    // (producer, destination PE) — one FIFO message serves every
    // consumer edge of that producer on that PE.
    std::unordered_map<int64_t, int32_t> entry_of; // producer*numPes+dst
    for (NodeId v : ops_) {
        const auto &node = dfg.node(v);
        const int pe = mapping.peOf[v];
        const NodeId ids[3] = {node.a, node.b, node.c};
        for (int k = 0; k < 3; ++k) {
            OperandRoute &route = routes_[3 * v + k];
            if (ids[k] == kInvalidNode)
                continue;
            const NodeId o = ids[k];
            route.src = o;
            const auto &src_node = dfg.node(o);
            if (src_node.op == OpKind::Const ||
                src_node.op == OpKind::Input) {
                route.kind = OperandKind::Resident;
                continue;
            }
            ++remainingInit_[v];
            if (mapping.peOf[o] == pe) {
                route.kind = OperandKind::SamePe;
                continue;
            }
            route.kind = OperandKind::CrossPe;
            const int64_t key =
                static_cast<int64_t>(o) * numPes_ + pe;
            auto it = entry_of.find(key);
            if (it == entry_of.end()) {
                SendPlanEntry entry;
                entry.producer = o;
                entry.dstPe = pe;
                entry.link = linkIndexFor(mapping.peOf[o], pe);
                auto r = bus_.route(mapping.peOf[o], pe);
                entry.bus = r.bus;
                entry.latency = static_cast<int32_t>(r.latency);
                it = entry_of
                         .emplace(key, static_cast<int32_t>(
                                           sendPlan_.size()))
                         .first;
                sendPlan_.push_back(entry);
            }
            ++sendPlan_[it->second].edgeCount;
            route.sendEntry = it->second;
        }
    }

    // Sort entries producer-major, then by (bus, destination row):
    // entries of one producer that ride the same shared bus into the
    // same row form one broadcast group — the row bus and the tree
    // lanes are broadcast media (paper Sec. 5.1), so the group costs a
    // single bus slot and lands in every destination FIFO at once,
    // exactly like the static scheduler's per-row transfer dedup.
    // Neighbour-link entries (bus -1) stay singleton groups.
    const int columns = mapping.columns;
    {
        std::vector<int32_t> order(sendPlan_.size());
        for (size_t e = 0; e < sendPlan_.size(); ++e)
            order[e] = static_cast<int32_t>(e);
        auto group_key = [&](const SendPlanEntry &entry) {
            return std::make_tuple(entry.producer, entry.bus,
                                   entry.dstPe / columns, entry.dstPe);
        };
        std::sort(order.begin(), order.end(),
                  [&](int32_t a, int32_t b) {
                      return group_key(sendPlan_[a]) <
                             group_key(sendPlan_[b]);
                  });
        std::vector<SendPlanEntry> sorted(sendPlan_.size());
        std::vector<int32_t> remap(sendPlan_.size(), 0);
        for (size_t i = 0; i < order.size(); ++i) {
            sorted[i] = sendPlan_[order[i]];
            remap[order[i]] = static_cast<int32_t>(i);
        }
        sendPlan_ = std::move(sorted);
        for (auto &route : routes_)
            if (route.sendEntry >= 0)
                route.sendEntry = remap[route.sendEntry];
    }
    groupBase_.clear();
    for (size_t e = 0; e < sendPlan_.size(); ++e) {
        const auto &entry = sendPlan_[e];
        bool new_group = e == 0 || entry.bus < 0;
        if (!new_group) {
            const auto &prev = sendPlan_[e - 1];
            new_group = prev.producer != entry.producer ||
                        prev.bus != entry.bus || prev.bus < 0 ||
                        prev.dstPe / columns != entry.dstPe / columns;
        }
        if (new_group)
            groupBase_.push_back(static_cast<int32_t>(e));
    }
    const int32_t num_groups = static_cast<int32_t>(groupBase_.size());
    groupBase_.push_back(static_cast<int32_t>(sendPlan_.size()));
    prodGroupBase_.assign(n + 1, 0);
    for (int32_t g = 0; g < num_groups; ++g)
        ++prodGroupBase_[sendPlan_[groupBase_[g]].producer + 1];
    for (int64_t v = 0; v < n; ++v)
        prodGroupBase_[v + 1] += prodGroupBase_[v];

    // Consumer CSRs: who to wake when a value lands (same PE) or a
    // message arrives (cross PE).
    samePeBase_.assign(n + 1, 0);
    crossBase_.assign(sendPlan_.size() + 1, 0);
    for (NodeId v : ops_) {
        for (int k = 0; k < 3; ++k) {
            const OperandRoute &route = routes_[3 * v + k];
            if (route.kind == OperandKind::SamePe)
                ++samePeBase_[route.src + 1];
            else if (route.kind == OperandKind::CrossPe)
                ++crossBase_[route.sendEntry + 1];
        }
    }
    for (int64_t v = 0; v < n; ++v)
        samePeBase_[v + 1] += samePeBase_[v];
    for (size_t e = 0; e < sendPlan_.size(); ++e)
        crossBase_[e + 1] += crossBase_[e];
    samePeConsumers_.assign(samePeBase_[n], kInvalidNode);
    crossConsumers_.assign(crossBase_[sendPlan_.size()], kInvalidNode);
    {
        std::vector<int32_t> same_cursor(samePeBase_.begin(),
                                         samePeBase_.end() - 1);
        std::vector<int32_t> cross_cursor(crossBase_.begin(),
                                          crossBase_.end() - 1);
        for (NodeId v : ops_) {
            for (int k = 0; k < 3; ++k) {
                const OperandRoute &route = routes_[3 * v + k];
                if (route.kind == OperandKind::SamePe)
                    samePeConsumers_[same_cursor[route.src]++] = v;
                else if (route.kind == OperandKind::CrossPe)
                    crossConsumers_[cross_cursor[route.sendEntry]++] =
                        v;
            }
        }
    }
}

namespace {

/** Discrete events driving the elastic clock. */
enum class EventKind : int8_t
{
    Admit = 0,  ///< A record's inputs become resident in a slot.
    Finish = 1, ///< An operation's writeback lands on its own PE.
    Arrive = 2, ///< A message matures into a destination FIFO.
};

struct Event
{
    int64_t time = 0;
    EventKind kind = EventKind::Admit;
    int32_t slot = 0;
    /** Node (Finish), send entry (Arrive) or record index (Admit). */
    int64_t payload = 0;

    bool
    operator>(const Event &o) const
    {
        if (time != o.time)
            return time > o.time;
        if (kind != o.kind)
            return kind > o.kind;
        if (slot != o.slot)
            return slot > o.slot;
        return payload > o.payload;
    }
};

/** A ready operation queued at its PE. */
struct Ready
{
    int64_t record = 0;
    int32_t height = 0;
    NodeId node = kInvalidNode;
    int32_t slot = 0;

    bool
    operator<(const Ready &o) const
    {
        // Max-heap: oldest record first (drain frees slots and FIFO
        // credits), then tallest dependence chain, then lowest id.
        if (record != o.record)
            return record > o.record;
        if (height != o.height)
            return height < o.height;
        return node > o.node;
    }
};

/** A broadcast group waiting to enter its destination FIFO(s). */
struct Send
{
    int64_t record = 0;
    int32_t slot = 0;
    int32_t group = 0;
};

/** Per-record in-flight state. */
struct SlotState
{
    int64_t record = -1; ///< -1 = free.
    std::vector<double> value;
    std::vector<int32_t> remaining;
    std::vector<int32_t> msgRefs;
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

    std::vector<SlotState> slots(window);
    for (auto &slot : slots) {
        slot.value.assign(n, 0.0);
        slot.remaining.assign(n, 0);
        slot.msgRefs.assign(sendPlan_.size(), 0);
    }

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;
    std::vector<std::priority_queue<Ready>> ready(numPes_);
    const int num_buses = bus_.busCount();
    std::vector<std::deque<Send>> bus_sends(num_buses);
    std::deque<Send> neighbor_sends;
    std::vector<int32_t> occupancy(links_.size(), 0);
    std::vector<int32_t> peak(links_.size(), 0);
    std::vector<int64_t> traffic(links_.size(), 0);
    std::vector<char> blocked(numPes_, 0);

    int64_t next_record = 0;
    int64_t records_done = 0;
    int64_t pending_sends = 0;
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
        for (const auto &slot : slots) {
            if (slot.record < 0)
                continue;
            for (NodeId v : ops_) {
                if (slot.remaining[v] > 0) {
                    oss << "; op " << v << " (record " << slot.record
                        << ") on PE " << kernel_.mapping.peOf[v]
                        << " still waits for " << slot.remaining[v]
                        << " operand(s)";
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
        for (const Send &send : neighbor_sends) {
            if (describe(send)) {
                found = true;
                break;
            }
        }
        for (int b = 0; !found && b < num_buses; ++b) {
            for (const Send &send : bus_sends[b]) {
                if (describe(send)) {
                    found = true;
                    break;
                }
            }
        }
        result.violation = oss.str();
    };

    // Wakes @p consumer in @p slot once one operand is satisfied.
    auto satisfy = [&](SlotState &slot, int32_t slot_idx,
                       NodeId consumer) {
        if (--slot.remaining[consumer] == 0) {
            const int pe = kernel_.mapping.peOf[consumer];
            ready[pe].push(Ready{slot.record, height_[consumer],
                                 consumer, slot_idx});
        }
    };

    auto complete_record = [&](SlotState &slot) {
        const auto &grads = dfg.gradientNodes();
        auto &out = result.gradients[slot.record];
        out.assign(grads.size(), 0.0);
        for (size_t g = 0; g < grads.size(); ++g)
            out[g] = slot.value[grads[g]];
        slot.record = -1;
        ++records_done;
    };

    auto admit = [&](int32_t slot_idx, int64_t record_idx) {
        SlotState &slot = slots[slot_idx];
        COSMIC_ASSERT(slot.record < 0, "admitting into a busy slot");
        slot.record = record_idx;
        slot.opsDone = 0;
        slot.value = constValue_;
        std::copy(remainingInit_.begin(), remainingInit_.end(),
                  slot.remaining.begin());
        for (size_t e = 0; e < sendPlan_.size(); ++e)
            slot.msgRefs[e] = sendPlan_[e].edgeCount;
        auto record = records.subspan(record_idx * tr_.recordWords,
                                      tr_.recordWords);
        for (NodeId v : inputs_) {
            double value = dfg.node(v).category == dfg::Category::Data
                               ? record[dfg.inputPos(v)]
                               : model[dfg.inputPos(v)];
            slot.value[v] = roundTo(numeric_, value);
        }
        for (NodeId v : ops_) {
            if (remainingInit_[v] == 0) {
                const int pe = kernel_.mapping.peOf[v];
                ready[pe].push(
                    Ready{record_idx, height_[v], v, slot_idx});
            }
        }
        if (totalOps_ == 0)
            complete_record(slot);
    };

    for (int s = 0; s < window; ++s)
        events.push(Event{0, EventKind::Admit, s, next_record++});

    while (records_done < count) {
        if (t > cycle_bound) {
            fail("elastic progress bound exceeded");
            return result;
        }
        bool progressed = false;

        // Phase 1: mature every event due this cycle.
        while (!events.empty() && events.top().time <= t) {
            Event event = events.top();
            events.pop();
            progressed = true;
            SlotState &slot = slots[event.slot];
            switch (event.kind) {
              case EventKind::Admit:
                admit(event.slot, event.payload);
                break;
              case EventKind::Finish: {
                // Stale events for a recycled slot are harmless: a
                // finished op with consumers was always processed
                // before its record completed (consumers cannot fire
                // without it), so leftovers have none.
                if (slot.record < 0)
                    break;
                const NodeId v = static_cast<NodeId>(event.payload);
                for (int32_t i = samePeBase_[v]; i < samePeBase_[v + 1];
                     ++i)
                    satisfy(slot, event.slot, samePeConsumers_[i]);
                for (int32_t g = prodGroupBase_[v];
                     g < prodGroupBase_[v + 1]; ++g) {
                    const auto &entry = sendPlan_[groupBase_[g]];
                    Send send{slot.record, event.slot, g};
                    if (entry.bus < 0)
                        neighbor_sends.push_back(send);
                    else
                        bus_sends[entry.bus].push_back(send);
                    ++pending_sends;
                }
                break;
              }
              case EventKind::Arrive: {
                const int32_t e = static_cast<int32_t>(event.payload);
                for (int32_t i = crossBase_[e]; i < crossBase_[e + 1];
                     ++i)
                    satisfy(slot, event.slot, crossConsumers_[i]);
                break;
              }
            }
        }

        // Phase 2: inject matured values into destination FIFOs.
        // Neighbour links are contention-free; each shared bus
        // arbitrates one broadcast group per cycle (a group lands in
        // every destination-row FIFO at once). A group skipped because
        // any of its FIFOs is full backpressures its producer PE.
        std::fill(blocked.begin(), blocked.end(), 0);
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
                events.push(Event{t + entry.latency, EventKind::Arrive,
                                  send.slot, e});
            }
            --pending_sends;
            progressed = true;
        };
        auto block_producer = [&](int32_t group) {
            blocked[links_[sendPlan_[groupBase_[group]].link].srcPe] = 1;
        };
        for (size_t i = 0; i < neighbor_sends.size();) {
            const Send &send = neighbor_sends[i];
            if (injectable(send.group)) {
                inject(send);
                neighbor_sends.erase(neighbor_sends.begin() + i);
            } else {
                block_producer(send.group);
                ++i;
            }
        }
        for (int b = 0; b < num_buses; ++b) {
            auto &queue = bus_sends[b];
            for (size_t i = 0; i < queue.size(); ++i) {
                if (injectable(queue[i].group)) {
                    inject(queue[i]);
                    queue.erase(queue.begin() + i);
                    break;
                }
                block_producer(queue[i].group);
            }
        }

        // Phase 3: each unblocked PE fires its best ready operation.
        for (int pe = 0; pe < numPes_; ++pe) {
            if (ready[pe].empty())
                continue;
            if (blocked[pe]) {
                ++result.stats.stallCycles;
                continue;
            }
            Ready top = ready[pe].top();
            ready[pe].pop();
            progressed = true;
            SlotState &slot = slots[top.slot];
            const NodeId v = top.node;
            const auto &node = dfg.node(v);
            const double a =
                node.a != kInvalidNode ? slot.value[node.a] : 0.0;
            const double b =
                node.b != kInvalidNode ? slot.value[node.b] : 0.0;
            const double c =
                node.c != kInvalidNode ? slot.value[node.c] : 0.0;
            slot.value[v] =
                roundTo(numeric_, dfg::evaluateOp(node.op, a, b, c));

            // Firing consumes this op's inbound messages: the last
            // consumer of a message releases its FIFO credit (visible
            // to next cycle's injection phase).
            for (int k = 0; k < 3; ++k) {
                const OperandRoute &route = routes_[3 * v + k];
                if (route.kind != OperandKind::CrossPe)
                    continue;
                if (--slot.msgRefs[route.sendEntry] == 0)
                    --occupancy[sendPlan_[route.sendEntry].link];
            }

            const int64_t finish =
                t + compiler::Scheduler::opLatency(node.op);
            events.push(Event{finish, EventKind::Finish, top.slot, v});
            ++result.stats.fires;
            ++result.stats.peBusy[pe];
            result.stats.cycles = std::max(result.stats.cycles, finish);

            if (++slot.opsDone == totalOps_) {
                complete_record(slot);
                if (next_record < count)
                    events.push(Event{t + 1, EventKind::Admit,
                                      top.slot, next_record++});
            }
        }

        if (progressed) {
            ++t;
            continue;
        }
        if (!events.empty()) {
            // Nothing can happen until the next event matures.
            t = events.top().time;
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
