/**
 * @file
 * Static analyses over the dataflow graph.
 *
 * These feed the Planner (storage footprint for the thread-count bound,
 * critical path for quick feasibility checks) and the Compiler (heights
 * for longest-dependence-chain scheduling priority). None of them
 * depends on the accelerator shape, so the Planner computes them once
 * per DFG (analyze()) and shares the result across design points.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/graph.h"

namespace cosmic::dfg {

/** Successor adjacency in compressed sparse row form. */
struct SuccessorCsr
{
    std::vector<int64_t> offsets;
    std::vector<NodeId> targets;

    /** Successors of node @p id as a begin/end pair into targets. */
    std::pair<const NodeId *, const NodeId *>
    successors(NodeId id) const
    {
        return {targets.data() + offsets[id],
                targets.data() + offsets[id + 1]};
    }
};

/** Builds the successor CSR (one linear pass; ids are topological). */
SuccessorCsr buildSuccessors(const Dfg &dfg);

/**
 * Height of each node: the number of operations on the longest
 * dependence chain from the node to any sink (inclusive of the node
 * itself when it is an operation). Scheduling priority uses this.
 */
std::vector<int32_t> computeHeights(const Dfg &dfg);

/** Length (in operations) of the longest dependence chain in the DFG. */
int64_t criticalPathLength(const Dfg &dfg);

/**
 * High-water mark of simultaneously-live interim values, assuming
 * execution in node-id order. Gradient outputs die on production: each
 * worker thread folds them straight into its local model copy
 * (parallelized SGD, Eq. 3a), so they need no long-lived buffer. This
 * sizes the PE interim buffers: the paper's DFG.storage() term
 * (Sec. 4.4).
 */
int64_t maxLiveInterim(const Dfg &dfg);

/**
 * Per-thread storage footprint in words: a double-buffered training
 * record in the data buffers (the prefetch overlap needs two), the full
 * model in the model buffers, and the interim high-water mark in the
 * interim buffers.
 */
int64_t storageWords(const Dfg &dfg, int64_t record_words,
                     int64_t model_words);

/**
 * Bits of DfgAnalysis::traits. The low two bits hold the node's
 * Category; the flags say whether the node is a constant, an input or a
 * nonlinear operation, and whether more than one operand edge reads it.
 */
namespace trait {
inline constexpr uint8_t kCategoryMask = 0x3;
inline constexpr uint8_t kConst = 1 << 2;
inline constexpr uint8_t kInput = 1 << 3;
inline constexpr uint8_t kNonlinear = 1 << 4;
inline constexpr uint8_t kShared = 1 << 5;
} // namespace trait

/** The Category held in a DfgAnalysis::traits byte. */
inline Category
traitCategory(uint8_t traits)
{
    return static_cast<Category>(traits & trait::kCategoryMask);
}

/**
 * The shape-independent analyses every design point of one DFG needs:
 * the scheduler's issue order and broadcast-slot layout, the mapper's
 * and scheduler's per-operand facts, the kernel's operation count and
 * critical path and the interim-buffer high-water mark.
 */
struct DfgAnalysis
{
    /**
     * Operations in list-scheduling order: height (computeHeights)
     * descending, then id ascending. Every operand of an operation is
     * strictly taller than the operation, so this is also a topological
     * order. The elastic simulator fires each PE's ready operations in
     * this order too.
     */
    std::vector<NodeId> issueOrder;
    /**
     * The operands of issueOrder[i] at [3 * i, 3 * i + 3), in operand
     * order, with kInvalidNode for an absent or constant operand. The
     * scheduler streams these in issue order instead of reading each
     * operation's node, which issue order visits out of id order.
     */
    std::vector<NodeId> issueOperands;
    /**
     * Consumer-edge offsets (n + 1 entries): node v's consumer edges
     * are [fanoutBase[v], fanoutBase[v + 1]); an operation reading v
     * twice counts twice. 32-bit: analyze asserts the edges fit.
     */
    std::vector<int32_t> fanoutBase;
    /**
     * One byte of trait:: bits per node. The mapper and the scheduler
     * read an operand's facts once per edge, in no useful order; a byte
     * per node stays in cache where the 16-byte Node array does not.
     */
    std::vector<uint8_t> traits;
    /** criticalPathLength(). */
    int64_t criticalPath = 0;
    /** Dfg::operationCount(). */
    int64_t operationCount = 0;
    /** maxLiveInterim(). */
    int64_t maxLiveInterim = 0;
};

/** Computes every DfgAnalysis field in a few linear passes. */
DfgAnalysis analyze(const Dfg &dfg);

} // namespace cosmic::dfg
