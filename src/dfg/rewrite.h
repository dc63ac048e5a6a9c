/**
 * @file
 * Pattern-based DFG rewrite framework.
 *
 * A registry of declarative rewrite patterns: each pattern matches a
 * root operation (with its already-rewritten operands) and either
 * returns a replacement node or declines. The engine runs every
 * enabled pattern over the graph in sweeps until a sweep produces no
 * new rewrites (a fixpoint) or the sweep budget is exhausted, and
 * reports per-pattern hit counters that the compile pipeline surfaces
 * through `PipelineReport` and `cosmicc --dump-passes`.
 *
 * The contract is bit-exactness: a rewrite is only legal if no
 * trained trajectory can observe it — in plain double arithmetic *and*
 * under the Q16.16 quantizer (accel::quantizeToFixed), on the
 * interpreter and the tape. Two shared ingredients enforce that:
 *
 *  - `quantizerSafeFold` / `quantizerSafeConstant`: the constant-fold
 *    guard. A folded value is rejected if it is NaN or -0.0 (both
 *    interact badly with the builder's by-value constant dedup), or if
 *    loading Q(folded) would diverge from the runtime's staged
 *    Q(op(Q(a), Q(b), Q(c))).
 *  - `ValueFacts`: a conservative forward dataflow analysis (per-node
 *    {notNaN, finite, nonNegative, notNegZero}) that algebraic
 *    patterns consult before firing. x+0 -> x is only bitwise-safe
 *    when x can never be -0.0 (else -0 + 0 = +0 flips the sign bit);
 *    x*0 -> 0 additionally needs x finite and non-NaN (inf*0 and
 *    NaN*0 are NaN); -(-x) -> x is safe in doubles but saturates
 *    asymmetrically in Q16.16 at the most negative fixed value, so it
 *    requires a non-negativity proof.
 *
 * Registered patterns (registry order — the order they are offered
 * each node):
 *
 *   pow-expand      pow(x, k) for constant k in {0, 1, 2} -> 1 / x /
 *                   x*x. k >= 3 is guard-rejected: the expansion
 *                   would insert intermediate quantizations
 *                   (Q(Q(x*x)*x) != Q(x*x*x)).
 *   fold-constants  constant folding under the quantizer guard,
 *                   including Select-on-constant-condition with the
 *                   quantized-truthiness guard.
 *   mul-one         x*1 -> x and 1*x -> x (unconditional: exact in
 *                   both datapaths for every input, including NaN,
 *                   infinities and -0).
 *   add-zero        x+0 -> x / 0+x -> x under a notNegZero proof for
 *                   x (a -0.0 zero constant needs no proof — x + -0
 *                   == x bitwise for all x, and quantized slots never
 *                   hold -0).
 *   mul-zero        x*0 -> 0 when x is provably finite, non-NaN,
 *                   non-negative and never -0 (comparison results,
 *                   nonlinear-unit outputs over proven inputs, safe
 *                   constants).
 *   double-neg      -(-x) -> x under a non-negativity proof for x
 *                   (blocks the Q16.16 INT32_MIN saturation hazard).
 *   cse             value numbering in an open-addressed table
 *                   (ValueNumberTable): the first occurrence of
 *                   (op, operands) becomes the canonical node, later
 *                   duplicates remap to it.
 *   dead-node-elim  cleanup fixpoint: after every sweep, nodes with
 *                   no path to a gradient output are swept (the graph
 *                   is rebuilt only when one is dead); its hit counter
 *                   is the number of nodes removed.
 *
 * A sweep reads the source graph in place until a pattern first
 * fires, and rebuilds from that node on; a sweep that claims nothing
 * copies nothing and leaves the graph untouched.
 *
 * The compile pipeline runs the framework as its optimize stage. The
 * per-pass booleans of compiler::CompileOptions gate their same-named
 * patterns, the enabled pattern set folds into the BuildCache content
 * hash, and COSMIC_REWRITE_PATTERNS (comma-separated names, strictly
 * parsed) overrides it per process.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dfg/translator.h"

namespace cosmic::dfg {

/** Exact bit equality (distinguishes +0/-0; NaN equals itself). */
bool bitEqualDouble(double x, double y);

/**
 * True when @p v may be materialized as a Const node: not NaN (the
 * builder's by-value dedup never matches a NaN key) and not -0.0
 * (-0.0 == 0.0 would silently canonicalize the sign bit).
 */
bool quantizerSafeConstant(double v);

/**
 * The shared constant-fold guard: folding op(va, vb, vc) to @p folded
 * is legal iff the folded constant is quantizer-safe and loading
 * Q(folded) is bit-identical to the quantized datapath's staged
 * runtime evaluation Q(op(Q(va), Q(vb), Q(vc))).
 */
bool quantizerSafeFold(OpKind op, double va, double vb, double vc,
                       double folded);

/**
 * Conservative per-node value facts ("true" means proven for every
 * reachable execution in *both* datapaths; "false" means unknown).
 * Computed forward over the graph: inputs prove nothing, constants
 * prove what their value shows, operations combine operand facts.
 */
struct ValueFacts
{
    /** Never NaN. */
    bool notNaN = false;
    /** Always a finite real (never NaN, never +-inf). */
    bool finite = false;
    /** Sign bit clear whenever the value is not NaN. */
    bool nonNegative = false;
    /** Never exactly -0.0. */
    bool notNegZero = false;
};

/**
 * Open-addressed value-number table, the `cse` pattern's state: one
 * flat NodeId array with linear probing, kept at most half full. An
 * entry is found by hashing its node's (op, a, b, c) and comparing
 * every field of each probed node, so a hash collision can never merge
 * distinct expressions.
 */
class ValueNumberTable
{
  public:
    /** Slot count for up to @p nodes entries: the smallest power of
     *  two that is at least twice @p nodes. */
    static size_t capacityFor(int64_t nodes);

    /** Probe hash of (op, a, b, c); probing starts at
     *  hash & (capacity - 1) and walks forward, wrapping at the end. */
    static uint64_t hash(OpKind op, NodeId a, NodeId b, NodeId c);

    /** Empties the table and sizes it for up to @p nodes entries,
     *  reusing the allocation when it is already large enough. */
    void reset(int64_t nodes);

    /** The entry whose node in @p g is exactly (op, a, b, c), or
     *  kInvalidNode. */
    NodeId find(const Dfg &g, OpKind op, NodeId a, NodeId b,
                NodeId c) const;

    /** Adds node @p id of @p g; at most the @p nodes given to the
     *  last reset() may be added. */
    void insert(const Dfg &g, NodeId id);

  private:
    std::vector<NodeId> slots_;
    size_t mask_ = 0;
    size_t entries_ = 0;
};

/** Node/edge deltas of a rewrite run (for PipelineReport). */
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

/** Rewrite-engine knobs. */
struct RewriteOptions
{
    /**
     * Enabled pattern names (registry order is applied regardless of
     * list order); empty means every registered pattern. Unknown
     * names are a configuration error.
     */
    std::vector<std::string> patterns;
    /**
     * Sweep budget: the fixpoint loop stops after this many sweeps
     * even if the last sweep still produced rewrites (reported via
     * RewriteOutcome::budgetExhausted). The final sweep of a
     * converged run is the one that proves quiescence.
     */
    int maxSweeps = 8;
};

/** One pattern's hit counter for a rewriteFixpoint run. */
struct PatternStats
{
    std::string name;
    int64_t hits = 0;
};

/** What one rewriteFixpoint run did. */
struct RewriteOutcome
{
    /** Aggregate node/edge deltas across all sweeps. */
    PassOutcome shape;
    /** Sweeps executed (the last one of a converged run is a no-op). */
    int sweeps = 0;
    /** True when maxSweeps stopped a still-rewriting run. */
    bool budgetExhausted = false;
    /** Per-pattern hits, enabled patterns only, registry order. */
    std::vector<PatternStats> patterns;

    int64_t totalHits() const;
};

/** All registered pattern names, registry order. */
const std::vector<std::string> &registeredPatternNames();

/**
 * Parses a comma-separated pattern list ("cse,dead-node-elim") into
 * the canonical enabled set (registry order, deduplicated). An empty
 * spec selects every registered pattern; an unknown name throws a
 * CosmicError — a misspelled COSMIC_REWRITE_PATTERNS must abort, not
 * silently disable an optimization.
 */
std::vector<std::string> resolvePatternList(const std::string &spec);

/**
 * Runs the enabled patterns over @p source to fixpoint (bounded by
 * the sweep budget) without modifying it, and reports what ran into
 * @p outcome. Returns the rewritten graph, or nothing when no sweep
 * changed the graph: @p source is then the result, and the run copied
 * nothing. Node ids stay a topological order and gradient outputs stay
 * marked.
 */
std::optional<Dfg> rewriteGraph(const Dfg &source,
                                const RewriteOptions &options,
                                RewriteOutcome &outcome);

/**
 * rewriteGraph over @p translation's graph, in place. The
 * record/model/gradient layouts are untouched.
 */
RewriteOutcome rewriteFixpoint(Translation &translation,
                               const RewriteOptions &options = {});

} // namespace cosmic::dfg
