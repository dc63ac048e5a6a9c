#include "compiler/kernel.h"

#include "common/error.h"
#include "dfg/analysis.h"

namespace cosmic::compiler {

CompiledKernel
KernelCompiler::compile(const dfg::Translation &tr,
                        const accel::AcceleratorPlan &plan,
                        const CompileOptions &options)
{
    return compile(tr, plan, options, dfg::analyze(tr.dfg));
}

CompiledKernel
KernelCompiler::compile(const dfg::Translation &tr,
                        const accel::AcceleratorPlan &plan,
                        const CompileOptions &options,
                        const dfg::DfgAnalysis &analysis)
{
    CompiledKernel kernel;
    kernel.mapping = Mapper::map(tr.dfg, plan, options.strategy, analysis);
    InterconnectModel interconnect(options.bus, plan.columns,
                                   plan.rowsPerThread);
    kernel.schedule = Scheduler::schedule(tr.dfg, kernel.mapping,
                                          interconnect, analysis);
    kernel.memory = MemoryScheduleBuilder::build(tr, plan);

    kernel.computeCyclesPerRecord = kernel.schedule.makespan;
    kernel.streamWordsPerRecord = tr.recordWords;
    kernel.opCount = analysis.operationCount;
    kernel.criticalPath = analysis.criticalPath;
    return kernel;
}

} // namespace cosmic::compiler
