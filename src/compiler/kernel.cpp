#include "compiler/kernel.h"

#include <cstdlib>

#include "common/error.h"
#include "dfg/analysis.h"

namespace cosmic::compiler {

bool
parseElasticEnv(const char *env)
{
    if (env == nullptr || *env == '\0')
        COSMIC_FATAL("COSMIC_ELASTIC is set but empty: expected 0 "
                     "(static schedule) or 1 (elastic DSE)");
    if (env[0] == '0' && env[1] == '\0')
        return false;
    if (env[0] == '1' && env[1] == '\0')
        return true;
    COSMIC_FATAL("COSMIC_ELASTIC='"
                 << env
                 << "' is not a recognized value: expected 0 (static "
                    "schedule) or 1 (elastic DSE)");
}

bool
effectiveElasticMode(const CompileOptions &options)
{
    if (const char *env = std::getenv("COSMIC_ELASTIC"))
        return parseElasticEnv(env);
    return options.elasticMode;
}

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
