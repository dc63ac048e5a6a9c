/**
 * @file
 * Functional cycle simulation of one worker thread's PE array.
 *
 * The replayer (replay.h) checks the schedule's timing; this simulator
 * additionally moves *values*: every PE owns a register file for its
 * interim results, operands produced on other PEs travel as messages
 * that arrive `route.latency` cycles after their transfer starts, and
 * an operation may only consume values that have physically arrived.
 * The simulated gradient must match the golden interpreter bit-for-bit
 * modulo floating-point association — this is the end-to-end witness
 * that the compiler's mapping + schedule + interconnect actually
 * compute the right thing, not just on time.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "accel/fixed_point.h"
#include "accel/plan.h"
#include "common/error.h"
#include "compiler/interconnect.h"
#include "compiler/kernel.h"
#include "dfg/translator.h"

namespace cosmic::accel {

/**
 * Debug-build tripwire against concurrent use of a single-owner object.
 *
 * The simulators reuse per-instance scratch buffers, so their run
 * methods are `const` but not thread-safe. Entering a Scope while
 * another Scope is alive on the same guard means two threads share one
 * instance's scratch — that used to corrupt results silently; now it
 * fails loudly. Release (NDEBUG) builds compile the check away.
 */
class ReentrancyGuard
{
#ifndef NDEBUG
  public:
    class Scope
    {
      public:
        explicit Scope(const ReentrancyGuard &guard) : guard_(guard)
        {
            COSMIC_ASSERT(!guard_.inUse_.exchange(true),
                          "concurrent use of a non-thread-safe "
                          "simulator instance (one instance per thread)");
        }
        ~Scope() { guard_.inUse_.store(false); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        const ReentrancyGuard &guard_;
    };

  private:
    mutable std::atomic<bool> inUse_{false};
#else
  public:
    class Scope
    {
      public:
        explicit Scope(const ReentrancyGuard &) {}
    };
#endif
};

/** Result of simulating one training record. */
struct SimulationResult
{
    bool ok = true;
    /** First data-flow violation found (value consumed pre-arrival). */
    std::string violation;
    /** The gradient the simulated hardware produced. */
    std::vector<double> gradient;
    /** Cycle of the last writeback. */
    int64_t cycles = 0;
    /** Values that crossed PEs (message count). */
    int64_t messages = 0;
};

/**
 * Executes a compiled kernel on one record, with value movement.
 *
 * Instances are not thread-safe: run() reuses per-instance scratch
 * buffers (the replay/validation path calls it once per record, and
 * the per-call allocations used to dominate it).
 */
class CycleSimulator
{
  public:
    /**
     * @param numeric Number format of every buffered value (constants,
     *        inputs and operation results), exactly as in the
     *        Interpreter.
     */
    CycleSimulator(const dfg::Translation &translation,
                   const compiler::CompiledKernel &kernel,
                   Numeric numeric = Numeric::F64);

    /**
     * Runs one record through the array.
     *
     * @param record The training record (the memory interface is
     *        assumed to have streamed it into the data buffers).
     * @param model The flattened model (resident in model buffers).
     */
    SimulationResult run(std::span<const double> record,
                         std::span<const double> model) const;

  private:
    /** How one operand reaches its consumer (precomputed per edge). */
    enum class OperandKind : int8_t
    {
        /** Absent operand (kInvalidNode). */
        Absent,
        /** Constant or input: resident from cycle 0, no transfer. */
        Resident,
        /** Produced on the consumer's own PE. */
        SamePe,
        /** Produced on another PE; crosses the interconnect. */
        CrossPe,
    };

    /** One precomputed operand edge of an operation. */
    struct OperandRoute
    {
        OperandKind kind = OperandKind::Absent;
        /** Route latency for CrossPe edges (one bus.route lookup at
         *  construction, not one per record). */
        int64_t latency = 0;
    };

    const dfg::Translation &tr_;
    const compiler::CompiledKernel &kernel_;
    Numeric numeric_;
    /** Interconnect timing model, built once per simulator. */
    compiler::InterconnectModel bus_;
    /** Operations in issue order (precomputed). */
    std::vector<dfg::NodeId> order_;
    /** Per-operation operand routes, parallel to order_. */
    std::vector<std::array<OperandRoute, 3>> routes_;
    /** Input nodes (precomputed; constants are preloaded in value_). */
    std::vector<dfg::NodeId> inputs_;
    /** Reusable per-record scratch: value/finish/produced per node. */
    mutable std::vector<double> value_;
    mutable std::vector<int64_t> finish_;
    mutable std::vector<char> produced_;
    /** Trips on concurrent run() calls in debug builds. */
    ReentrancyGuard guard_;
};

} // namespace cosmic::accel
