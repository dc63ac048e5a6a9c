/**
 * @file
 * Translator: lowers a validated DSL program to a dataflow graph.
 *
 * This is the first half of the compilation layer (paper Sec. 4.2,
 * Fig. 4b): statements are expanded over their iterator ranges, each
 * tensor element becomes a scalar value, and reductions become balanced
 * operator trees (which the tree bus later accelerates).
 *
 * The translation also fixes the memory layouts the rest of the stack
 * relies on:
 *  - the *record stream*: all model_input tensors in declaration order
 *    followed by all model_output tensors — the order in which the
 *    memory interface delivers a training record;
 *  - the *flattened model vector* and *flattened gradient vector*: model
 *    / gradient tensors in declaration order, row-major within a tensor.
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/graph.h"
#include "dsl/program.h"

namespace cosmic::dfg {

/** Identity and layout of one DSL tensor after translation. */
struct TensorInfo
{
    std::string name;
    dsl::VarClass cls = dsl::VarClass::Interim;
    std::vector<int64_t> dims;
    /** Base offset within the tensor's class-wide flattened layout. */
    int64_t baseOffset = 0;

    int64_t
    elementCount() const
    {
        int64_t n = 1;
        for (int64_t d : dims)
            n *= d;
        return n;
    }
};

/** A translated program: the DFG plus layout metadata. */
struct Translation
{
    Dfg dfg;
    std::vector<TensorInfo> tensors;
    /** Words streamed from memory per training record. */
    int64_t recordWords = 0;
    /** Words in the flattened model vector. */
    int64_t modelWords = 0;
    /** Words in the flattened gradient vector. */
    int64_t gradientWords = 0;
    dsl::Aggregator aggregator = dsl::Aggregator::Average;
    int64_t minibatch = 0;

    /** Looks up a tensor by name; throws if absent. */
    const TensorInfo &tensor(const std::string &name) const;

    /** This translation's layout metadata around another graph (a
     *  rewrite of this one). */
    Translation withGraph(Dfg graph) const;
};

/** Walks the program statements and builds the Translation. */
class Translator
{
  public:
    static Translation translate(const dsl::Program &program);

  private:
    Translator(const dsl::Program &program, Translation &out);

    void layoutTensors();
    void runStatements();

    /** Resolves one subscript under the active iterator bindings. */
    int64_t resolveIndex(const dsl::IndexExpr &idx, int line) const;

    /** Row-major linearization of resolved subscripts. */
    int64_t linearize(const TensorInfo &info,
                      const std::vector<dsl::IndexExpr> &indices,
                      int line) const;

    /** Returns the node currently defining the tensor element. */
    NodeId readElement(int32_t tensor_idx, int64_t elem, int line);

    NodeId evalExpr(const dsl::Expr &expr, int line);
    NodeId evalReduce(const dsl::ReduceExpr &expr, int line);

    /** Builds a balanced binary combine tree over the given values. */
    NodeId buildTree(OpKind op, std::vector<NodeId> values);

    const dsl::Program &program_;
    Translation &out_;
    /** tensor index by name. */
    std::unordered_map<std::string, int32_t> tensorIndex_;
    /** Current defining node per tensor element (lazily sized). */
    std::vector<std::vector<NodeId>> defs_;
    /** Active iterator bindings during statement expansion. */
    std::unordered_map<std::string, int64_t> bindings_;
};

} // namespace cosmic::dfg
