/**
 * @file
 * Data/operation mapping onto the PE array of one worker thread.
 *
 * CoSMIC's key compilation idea (paper Sec. 6, Algorithm 1) is to map
 * *data before operations*: training-data elements are pinned to the PE
 * fed by the memory-interface column that delivers them (no marshaling),
 * then operations are mapped to the PEs that already hold their
 * operands, and model parameters are placed next to the operations that
 * consume them. This minimizes inter-PE communication.
 *
 * The OperationFirst strategy reproduces TABLA's conventional approach:
 * operations are assigned level-by-level round-robin across PEs to
 * minimize latency, ignoring where the data lives. It exists as the
 * head-to-head baseline for Fig. 17 and the mapping ablation.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "accel/plan.h"
#include "dfg/analysis.h"
#include "dfg/graph.h"

namespace cosmic::compiler {

/** Which mapping algorithm to run. */
enum class MappingStrategy
{
    /** CoSMIC Algorithm 1: minimum-communication, data-first. */
    DataFirst,
    /** TABLA-style: latency-oriented, operation-first. */
    OperationFirst,
};

/** Result of mapping one thread's DFG onto its PE sub-array. */
struct Mapping
{
    /** PE index per node; -1 for compile-time constants. */
    std::vector<int32_t> peOf;
    /** PEs available to the thread (rowsPerThread x columns). */
    int numPes = 0;
    int columns = 0;
    int rowsPerThread = 0;

    int rowOf(int pe) const { return pe / columns; }
    int colOf(int pe) const { return pe % columns; }
};

/** The producer-consumer edges between mapped values: every operand
 *  edge of an operation whose producer is not a constant. */
struct EdgeCounts
{
    /** Edges whose producer and consumer sit on different PEs. */
    int64_t crossPe = 0;
    int64_t total = 0;
};

/** Counts @p mapping's edges over @p dfg (the DFG it maps): one walk
 *  over every operand edge, run only when asked. */
EdgeCounts countEdges(const dfg::Dfg &dfg, const Mapping &mapping);

/** Maps a DFG per the selected strategy. */
class Mapper
{
  public:
    /**
     * @param dfg The per-record gradient DFG.
     * @param plan Shape of the accelerator; only the per-thread
     *        sub-array matters here (all threads share one mapping,
     *        offset by the Thread Index Table at runtime).
     * @param analysis dfg::analyze of @p dfg; the walks read each
     *        node's category and fanout from its traits.
     */
    static Mapping map(const dfg::Dfg &dfg,
                       const accel::AcceleratorPlan &plan,
                       MappingStrategy strategy,
                       const dfg::DfgAnalysis &analysis);

    /** Same, computing the analyses for this one call. */
    static Mapping map(const dfg::Dfg &dfg,
                       const accel::AcceleratorPlan &plan,
                       MappingStrategy strategy);

  private:
    static Mapping mapDataFirst(const dfg::Dfg &dfg,
                                const accel::AcceleratorPlan &plan,
                                const dfg::DfgAnalysis &analysis);
    static Mapping mapOperationFirst(const dfg::Dfg &dfg,
                                     const accel::AcceleratorPlan &plan);
};

} // namespace cosmic::compiler
