/**
 * @file
 * DFG optimization passes.
 *
 * Each pass rewrites a Translation's graph in place (rebuild + swap)
 * and preserves the two invariants every downstream consumer relies
 * on: node ids stay a topological order (operands precede consumers),
 * and the per-record gradient values are **bit-exact** against the
 * un-optimized graph — in plain double arithmetic *and* under the
 * Q16.16 fixed-point quantizer (accel::quantizeToFixed). The record
 * stream, flattened model, and flattened gradient layouts are ABI and
 * are never touched; passes only reshape the computation between the
 * inputs and the gradient outputs.
 *
 * The bit-exactness contract is what lets the pipeline enable the
 * passes by default: the interpreter, the tape's SGD sweep and its
 * batch call all train identical trajectories whether or not
 * the graph was optimized (pinned by tests/test_pipeline.cpp on all
 * ten Table-1 workloads).
 *
 * - foldConstants: evaluates operations whose operands are all
 *   compile-time constants, and resolves Selects with a constant
 *   condition to the taken operand. A fold is *skipped* whenever the
 *   pre-computed value would diverge from runtime evaluation under
 *   the quantizer (e.g. Q(0.1)*Q(0.1) != Q(0.01)); the guard makes
 *   the pass safe for both datapaths from a single shared graph.
 * - eliminateCommonSubexpressions: merges operation nodes with
 *   identical (op, operands) after remapping — the deep-tree
 *   generalization of the graph builder's leaf-only value numbering.
 * - eliminateDeadNodes: removes every node with no path to a gradient
 *   output (unused interim statements, inputs nothing consumes,
 *   orphaned constants).
 */
#pragma once

#include <cstdint>

#include "dfg/translator.h"

namespace cosmic::dfg {

/** Node/edge deltas of one pass run (for PipelineReport). */
struct PassOutcome
{
    int64_t nodesBefore = 0;
    int64_t nodesAfter = 0;
    int64_t edgesBefore = 0;
    int64_t edgesAfter = 0;

    bool
    changed() const
    {
        return nodesAfter != nodesBefore || edgesAfter != edgesBefore;
    }
};

/** Operand references over all nodes (the report's edge count). */
int64_t edgeCount(const Dfg &dfg);

PassOutcome foldConstants(Translation &translation);
PassOutcome eliminateCommonSubexpressions(Translation &translation);
PassOutcome eliminateDeadNodes(Translation &translation);

} // namespace cosmic::dfg
