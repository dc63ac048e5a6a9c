/**
 * @file
 * The kernel compiler: maps, schedules, and programs one accelerator.
 *
 * One CompiledKernel bundles everything the circuit layer would need to
 * emit Verilog: the data/operation map, the static cycle schedule, and
 * the memory-interface program. Because every worker thread runs the
 * same gradient rule on different data, the Compiler generates the map
 * and schedule once and reuses it across threads (paper Sec. 6).
 */
#pragma once

#include <string>

#include "accel/plan.h"
#include "compiler/interconnect.h"
#include "compiler/mapper.h"
#include "compiler/memory_schedule.h"
#include "compiler/scheduler.h"
#include "dfg/tape.h"
#include "dfg/translator.h"

namespace cosmic::compiler {

/** Compilation knobs (the defaults are the CoSMIC design point). */
struct CompileOptions
{
    MappingStrategy strategy = MappingStrategy::DataFirst;
    BusKind bus = BusKind::Hierarchical;

    /**
     * Sweep budget for the rewrite fixpoint engine: the DFG
     * optimizations the compile pipeline's rewrite stage
     * (dfg/rewrite.h) runs between translation and planning. 0 skips
     * the stage, leaving the translator's graph as it is. Every
     * pattern is required to keep trained trajectories bit-exact
     * against the unoptimized graph in both plain-double and Q16.16
     * modes.
     */
    int rewriteMaxSweeps = 8;

    /**
     * Comma-separated enabled-pattern list for the rewrite engine
     * (empty = all registered patterns, e.g. "fold-constants",
     * "cse", "dead-node-elim"); unknown names are a configuration
     * error. The COSMIC_REWRITE_PATTERNS environment variable, when
     * set, overrides this field.
     */
    std::string rewritePatterns;

    /**
     * Skip narrow-thread design points for very large DFGs during
     * planning (they cannot win and dominate exploration time); the
     * design-space-exploration figure disables this to chart the
     * whole space.
     */
    bool pruneSmallRows = true;

    /**
     * Force the planner to a single explicit (threads, rowsPerThread)
     * design point instead of exploring — used by sensitivity sweeps
     * (both must be > 0 to take effect).
     */
    int forceThreads = 0;
    int forceRowsPerThread = 0;

    /** Read by nothing; see dfg::TapeBackend. */
    dfg::TapeBackend tapeBackend = dfg::TapeBackend::Interp;

    /**
     * Explore elastic (dataflow-fired) execution in the planner's
     * design-space exploration: on top of every static design point,
     * evaluate the same mapping with ready/valid firing and optimized
     * inter-PE FIFOs (accel/elastic.h, accel/buffer_opt.h), charging
     * the FIFO bytes against the platform's BRAM budget. The
     * COSMIC_ELASTIC environment variable ("0"/"1"), when set,
     * overrides this field.
     */
    bool elasticMode = false;

    /**
     * Per-thread byte budget for the elastic inter-PE FIFOs
     * (0 = whatever BRAM the platform has left after the plan's
     * data/model/interim buffers, split across threads).
     */
    int64_t elasticBufferBudgetBytes = 0;

    /** Convenience: same options with all DFG optimization toggled. */
    CompileOptions
    withDfgPasses(bool enabled) const
    {
        CompileOptions o = *this;
        o.rewriteMaxSweeps = enabled ? CompileOptions{}.rewriteMaxSweeps : 0;
        return o;
    }
};

/**
 * Strict parser behind the COSMIC_ELASTIC knob (exposed for tests):
 * "0" and "1" are the only recognized values; anything else — including
 * a set-but-empty variable — is a configuration error, never a silent
 * default.
 */
bool parseElasticEnv(const char *env);

/** options.elasticMode after the COSMIC_ELASTIC override (a *set*
 *  variable overrides even an explicit field value). */
bool effectiveElasticMode(const CompileOptions &options);

/** The fully compiled accelerator program for one plan. */
struct CompiledKernel
{
    Mapping mapping;
    ScheduleResult schedule;
    MemorySchedule memory;

    /** Compute cycles one thread spends per training record. */
    int64_t computeCyclesPerRecord = 0;
    /** Words streamed from memory per training record. */
    int64_t streamWordsPerRecord = 0;
    /** Executable operations per record. */
    int64_t opCount = 0;
    /** Longest dependence chain in the DFG. */
    int64_t criticalPath = 0;
};

/** Front door of the compilation layer. */
class KernelCompiler
{
  public:
    /**
     * Compiles @p plan reusing the shape-independent analyses of the
     * translation's DFG (dfg::analyze), as the Planner does for every
     * design point it explores.
     */
    static CompiledKernel compile(const dfg::Translation &translation,
                                  const accel::AcceleratorPlan &plan,
                                  const CompileOptions &options,
                                  const dfg::DfgAnalysis &analysis);

    /** Same, computing the analyses for this one call. */
    static CompiledKernel compile(const dfg::Translation &translation,
                                  const accel::AcceleratorPlan &plan,
                                  const CompileOptions &options = {});
};

} // namespace cosmic::compiler
