/**
 * @file
 * Elastic (latency-insensitive) execution of a compiled kernel.
 *
 * The static CycleSimulator replays the scheduler's issue cycles, so
 * every bubble the list scheduler left is paid on every record. The
 * ElasticSimulator reuses the *mapping* from the same CompiledKernel
 * but replaces the static issue order with ready/valid dataflow firing
 * in the spirit of Dynamatic-style elastic circuits:
 *
 *  - every PE issues (at most one per cycle) any mapped operation whose
 *    operands have physically arrived, tallest-dependence-chain first;
 *  - values crossing PEs travel through finite inter-PE FIFOs at the
 *    interconnect's route latency, arbitrating one injection per shared
 *    bus per cycle; a FIFO slot is held from injection until the last
 *    consumer on the destination PE has fired (credit-based flow
 *    control);
 *  - a *full* FIFO backpressures its producer: a PE with a computed
 *    value it cannot inject stalls instead of issuing new work;
 *  - several records may be in flight at once (the data buffers are
 *    double-buffered, so the next record's inputs are resident while
 *    the current one drains) — this is where elastic execution recovers
 *    the PE bubbles the static schedule cannot.
 *
 * Firing order never changes a value (each node is a pure function of
 * its operands), so elastic gradients are bit-identical to the static
 * simulator and the golden interpreter, in both exact-double and
 * quantized (Q16.16) modes. A configuration that cannot make progress
 * (e.g. a zero-capacity FIFO on a live edge) is reported as a
 * structured deadlock violation rather than a hang.
 *
 * The planner probes one kernel per row count, so the cost per firing
 * is what its elastic exploration costs. Every event matures at most a
 * route's latency after it is made (14 cycles across 48 rows; a
 * writeback takes one or two cycles, a refill admission one), so
 * runBatch keeps a ring of time buckets in place of a global heap. A
 * bucket drains admissions first, then writebacks, those that send
 * across PEs in (slot, node) order, since that order decides bus-queue
 * order and so the timing, and then arrivals, which only wake
 * consumers. A PE's ready operations are a bitmap over its operations
 * ranked in firing order, so firing takes the lowest set bit.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "accel/plan.h"
#include "accel/simulator.h"
#include "compiler/interconnect.h"
#include "compiler/kernel.h"
#include "dfg/analysis.h"
#include "dfg/translator.h"

namespace cosmic::accel {

/** Elastic execution knobs. */
struct ElasticConfig
{
    /** FIFO slots (4-byte values) per inter-PE link lacking an explicit
     *  override. 0 is legal and deliberately deadlocks any live link —
     *  the deadlock-detection tests use it. Any uniform capacity can
     *  deadlock on reconvergent fanout (a full FIFO of messages whose
     *  consumers each wait on one more message); the buffer-placement
     *  optimizer (buffer_opt.h) produces deadlock-free capacities by
     *  construction, which is the supported way to run real kernels. */
    int defaultCapacity = 16;

    /** Per-link capacity overrides as (srcPe * numPes + dstPe,
     *  capacity) pairs (the buffer-placement optimizer fills this in);
     *  a link listed twice takes its last capacity, and links the
     *  kernel does not use are ignored. */
    std::vector<std::pair<int64_t, int32_t>> linkCapacity;

    /**
     * Training records concurrently in flight. The default matches the
     * plan's double-buffered data stream: record r+1 is resident while
     * record r drains.
     */
    int recordsInFlight = 2;

    /** Hard cycle bound (0 = generous automatic bound). Exceeding it
     *  is reported as a violation, never a hang. */
    int64_t maxCycles = 0;
};

/** One inter-PE FIFO: its shape and what the run observed of it. */
struct ElasticLinkStats
{
    int srcPe = 0;
    int dstPe = 0;
    /** Configured capacity in values. */
    int32_t capacity = 0;
    /** Highest simultaneous occupancy the run reached. */
    int32_t peakOccupancy = 0;
    /** Messages the link carried. */
    int64_t traffic = 0;
};

/** Occupancy/throughput counters of one elastic run. */
struct ElasticStats
{
    /** Cycle of the last writeback across all records. */
    int64_t cycles = 0;
    /** Cross-PE messages injected. */
    int64_t messages = 0;
    /** Operations issued (all records). */
    int64_t fires = 0;
    /** PE-cycles lost to backpressure (a blocked outbound FIFO). */
    int64_t stallCycles = 0;
    /** Issue slots used per PE (all records). */
    std::vector<int64_t> peBusy;
    /** Per-link capacity/peak/traffic, for the buffer optimizer. */
    std::vector<ElasticLinkStats> links;
    /** fires / (numPes * cycles): the PE-array occupancy. */
    double utilization = 0.0;
};

/** Result of streaming a batch of records through the elastic array. */
struct ElasticResult
{
    bool ok = true;
    /** Structured deadlock / progress-bound diagnostic. */
    std::string violation;
    /** Per-record gradients, in record order. */
    std::vector<std::vector<double>> gradients;
    ElasticStats stats;
};

/**
 * Executes a compiled kernel with ready/valid dataflow firing.
 *
 * Instances are not thread-safe (per-call scratch is guarded by the
 * same debug-build reentrancy tripwire as CycleSimulator). The
 * simulator only reads the kernel's mapping — the static schedule's
 * issue cycles are ignored.
 */
class ElasticSimulator
{
  public:
    /**
     * @param numeric Number format of every buffered value, exactly as
     *        in the Interpreter and the CycleSimulator.
     */
    ElasticSimulator(const dfg::Translation &translation,
                     const compiler::CompiledKernel &kernel,
                     ElasticConfig config = {},
                     Numeric numeric = Numeric::F64);

    /**
     * Same, with the translation's shared analyses (dfg::analyze of its
     * DFG) instead of computing them; the simulator keeps no reference
     * to @p analysis.
     */
    ElasticSimulator(const dfg::Translation &translation,
                     const compiler::CompiledKernel &kernel,
                     const dfg::DfgAnalysis &analysis,
                     ElasticConfig config = {},
                     Numeric numeric = Numeric::F64);

    ElasticSimulator(const ElasticSimulator &) = delete;
    ElasticSimulator &operator=(const ElasticSimulator &) = delete;

    /**
     * Runs one record (window of one); mirrors CycleSimulator::run so
     * the two are drop-in comparable.
     */
    SimulationResult run(std::span<const double> record,
                         std::span<const double> model) const;

    /**
     * Streams @p count records (concatenated, recordWords apart)
     * through the array with up to config.recordsInFlight overlapping.
     */
    ElasticResult runBatch(std::span<const double> records, int64_t count,
                           std::span<const double> model) const;

    /** Links that carry traffic under this kernel's mapping. */
    int64_t linkCount() const { return static_cast<int64_t>(links_.size()); }

    /** Executable operations per record. */
    int64_t opCount() const { return totalOps_; }

    const ElasticConfig &config() const { return config_; }

  private:
    /** One (producer node -> destination PE) message template. */
    struct SendPlanEntry
    {
        dfg::NodeId producer = dfg::kInvalidNode;
        int32_t dstPe = 0;
        int32_t link = 0;
        /** Contended bus id, or -1 for a free neighbour link. */
        int32_t bus = -1;
        int32_t latency = 0;
        /** Consumer operand edges served on dstPe (FIFO-slot refcount). */
        int32_t edgeCount = 0;
    };

    struct Link
    {
        int srcPe = 0;
        int dstPe = 0;
        int32_t capacity = 0;
    };

    const dfg::Translation &tr_;
    const compiler::CompiledKernel &kernel_;
    ElasticConfig config_;
    Numeric numeric_;
    compiler::InterconnectModel bus_;
    int numPes_ = 0;
    int64_t totalOps_ = 0;

    /** Operation nodes in id order. */
    std::vector<dfg::NodeId> ops_;
    /** Operations per PE as prefix offsets (numPes_ + 1 entries) into
     *  peOrder_. */
    std::vector<int32_t> peOpBase_;
    /** Each PE's operations in firing order: tallest dependence chain
     *  first, then lowest id. */
    std::vector<dfg::NodeId> peOrder_;
    /** Per node: the operation's position in its PE's peOrder_ list. */
    std::vector<int32_t> rank_;
    /** Ready sets are bitmaps over peOrder_ ranks, one per (PE, record
     *  in flight); a PE's bitmap has peWordBase_[pe + 1] -
     *  peWordBase_[pe] words. */
    std::vector<int32_t> peWordBase_;
    /** Each PE's ready bitmap at admission (the operations with no
     *  operand to wait for), and its population. */
    std::vector<uint64_t> initialReady_;
    std::vector<int32_t> initialCount_;
    /** Where an input node's value comes from at admission. */
    struct InputSource
    {
        dfg::NodeId node = dfg::kInvalidNode;
        int64_t pos = 0;
        /** Record word (DATA) or model word (MODEL). */
        bool data = false;
    };
    /** Input nodes (constants are folded into the admission preload). */
    std::vector<InputSource> inputs_;
    /** Cross-PE operand edges per operation, as send entries (CSR,
     *  crossInBase_ has n + 1 entries; an operand read twice counts
     *  twice). */
    std::vector<int32_t> crossIn_;
    std::vector<int32_t> crossInBase_;
    /** Pipeline latency per operation (Scheduler::opLatency). */
    std::vector<int8_t> latency_;
    /** Non-resident operand count per node (ready-counter template). */
    std::vector<int32_t> remainingInit_;
    /** Flat send plan, grouped producer-major, broadcast-group-minor. */
    std::vector<SendPlanEntry> sendPlan_;
    /**
     * Broadcast groups: entries of one group share a producer and a
     * destination row on one shared bus (the row bus and tree lanes are
     * broadcast media, so the group costs a single bus slot and lands
     * in every destination FIFO at once); neighbour-link entries form
     * singleton groups. groupBase_[g]..groupBase_[g+1] indexes
     * sendPlan_; a group's bus is its first entry's.
     */
    std::vector<int32_t> groupBase_;
    /** Producer -> broadcast-group range [prodGroupBase_[v],
     *  prodGroupBase_[v+1]). */
    std::vector<int32_t> prodGroupBase_;
    /** Links with traffic, dense; capacity resolved from config. */
    std::vector<Link> links_;
    /** Same-PE consumers per producer (CSR; duplicates = edges). */
    std::vector<dfg::NodeId> samePeConsumers_;
    std::vector<int32_t> samePeBase_;
    /** Consumer ops per send-plan entry (CSR; duplicates = edges). */
    std::vector<dfg::NodeId> crossConsumers_;
    std::vector<int32_t> crossBase_;
    /** Constant preload (rounded to the numeric format). */
    std::vector<double> constValue_;

    /** Trips on concurrent run()/runBatch() calls in debug builds. */
    ReentrancyGuard guard_;
};

} // namespace cosmic::accel
