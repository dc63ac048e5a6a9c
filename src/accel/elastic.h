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
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
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

    /** Per-link capacity overrides, keyed srcPe * numPes + dstPe
     *  (the buffer-placement optimizer fills this in). */
    std::unordered_map<int64_t, int32_t> linkCapacity;

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
     * Same, firing by the heights of @p analysis (dfg::analyze of the
     * translation's DFG) instead of computing them; like the
     * translation and the kernel, @p analysis must outlive the
     * simulator.
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
    /** How one operand reaches its consumer (precomputed per edge). */
    enum class OperandKind : int8_t
    {
        Absent,
        Resident,
        SamePe,
        CrossPe,
    };

    /** One precomputed operand edge of an operation. */
    struct OperandRoute
    {
        OperandKind kind = OperandKind::Absent;
        /** Producer node (SamePe / CrossPe). */
        dfg::NodeId src = dfg::kInvalidNode;
        /** Global send-plan entry delivering this operand (CrossPe). */
        int32_t sendEntry = -1;
    };

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

    ElasticSimulator(const dfg::Translation &translation,
                     const compiler::CompiledKernel &kernel,
                     const std::vector<int32_t> *height,
                     ElasticConfig config, Numeric numeric);

    int32_t linkIndexFor(int src_pe, int dst_pe);

    const dfg::Translation &tr_;
    const compiler::CompiledKernel &kernel_;
    ElasticConfig config_;
    Numeric numeric_;
    compiler::InterconnectModel bus_;
    int numPes_ = 0;
    int64_t totalOps_ = 0;

    /** Operation nodes in id order. */
    std::vector<dfg::NodeId> ops_;
    /** Input nodes (constants are folded into the admission preload). */
    std::vector<dfg::NodeId> inputs_;
    /** Per-node operand routes (3 per node, ops only). */
    std::vector<OperandRoute> routes_;
    /** Non-resident operand count per node (ready-counter template). */
    std::vector<int32_t> remainingInit_;
    /** Heights computed here when the caller shares none. */
    std::vector<int32_t> ownHeight_;
    /** Longest dependence chain per node (firing priority). */
    std::span<const int32_t> height_;
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
    std::unordered_map<int64_t, int32_t> linkIndex_;
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
