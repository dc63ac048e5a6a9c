/**
 * @file
 * cosmicc — the CoSMIC command-line compiler driver.
 *
 * Compiles a DSL program (from a file, or a named Table 1 benchmark)
 * through the full stack for a chosen platform and reports the
 * generated design; optionally emits the Verilog skeletons, a PE's
 * control-ROM image / microcode listing, and the Planner's explored
 * design space.
 *
 * Usage:
 *   cosmicc [options] (<program.cosmic> | --benchmark <name>)
 *     --platform vu9p|pasic-f|pasic-g   target chip (default vu9p)
 *     --benchmark <name>                compile a suite benchmark
 *     --scale <s>                       divide large dims by s
 *     --dse                             print the explored space
 *     --elastic                         also explore elastic points
 *     --emit-verilog                    print the generated modules
 *     --emit-microcode <pe>             print one PE's microcode
 *     --emit-rom <pe>                   print one PE's $readmemh image
 *     --dump-passes                     print the pipeline pass report
 *     --dump-ir=<stage>                 print the DFG as Graphviz at a
 *                                       stage boundary (translate,
 *                                       optimize, map)
 */
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "accel/replay.h"
#include "circuit/constructor.h"
#include "common/error.h"
#include "compiler/pipeline.h"
#include "dfg/dot.h"
#include "ml/workloads.h"

using namespace cosmic;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cosmicc [options] (<program.cosmic> | --benchmark "
        "<name>)\n"
        "  --platform vu9p|pasic-f|pasic-g   target chip\n"
        "  --benchmark <name>                compile a Table 1 "
        "benchmark\n"
        "  --scale <s>                       divide large dims by s\n"
        "  --dse                             print the explored "
        "design space\n"
        "  --elastic                         also explore elastic "
        "(dataflow-fired) design points\n"
        "  --emit-verilog                    print generated modules\n"
        "  --emit-microcode <pe>             print one PE's microcode\n"
        "  --emit-rom <pe>                   print one PE's ROM image\n"
        "  --emit-dot                        print the DFG as Graphviz\n"
        "  --dump-passes                     print the pipeline pass "
        "report\n"
        "  --dump-ir=<stage>                 print the DFG as Graphviz "
        "at a stage boundary (translate, optimize, map)\n");
}

accel::PlatformSpec
platformByName(const std::string &name)
{
    if (name == "vu9p")
        return accel::PlatformSpec::ultrascalePlus();
    if (name == "pasic-f")
        return accel::PlatformSpec::pasicF();
    if (name == "pasic-g")
        return accel::PlatformSpec::pasicG();
    COSMIC_FATAL("unknown platform '" << name
                 << "' (expected vu9p, pasic-f, or pasic-g)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string platform_name = "vu9p";
    std::string benchmark;
    std::string source_path;
    double scale = 1.0;
    bool dse = false;
    bool elastic = false;
    bool emit_verilog = false;
    bool emit_dot = false;
    bool dump_passes = false;
    std::string dump_ir;
    int microcode_pe = -1;
    int rom_pe = -1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--platform") {
            platform_name = next();
        } else if (arg == "--benchmark") {
            benchmark = next();
        } else if (arg == "--scale") {
            scale = std::stod(next());
        } else if (arg == "--dse") {
            dse = true;
        } else if (arg == "--elastic") {
            elastic = true;
        } else if (arg == "--emit-verilog") {
            emit_verilog = true;
        } else if (arg == "--emit-microcode") {
            microcode_pe = std::stoi(next());
        } else if (arg == "--emit-rom") {
            rom_pe = std::stoi(next());
        } else if (arg == "--emit-dot") {
            emit_dot = true;
        } else if (arg == "--dump-passes") {
            dump_passes = true;
        } else if (arg.rfind("--dump-ir=", 0) == 0) {
            dump_ir = arg.substr(10);
        } else if (arg == "--dump-ir") {
            dump_ir = next();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            source_path = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (benchmark.empty() == source_path.empty()) {
        usage();
        return 2;
    }

    try {
        std::string source;
        if (!benchmark.empty()) {
            source = ml::Workload::byName(benchmark).dslSource(scale);
        } else {
            std::ifstream in(source_path);
            if (!in)
                COSMIC_FATAL("cannot open '" << source_path << "'");
            std::ostringstream buf;
            buf << in.rdbuf();
            source = buf.str();
        }

        auto platform = platformByName(platform_name);
        compiler::CompileOptions options;
        options.elasticMode = elastic;
        compile::Pipeline pipeline(source, platform, options);
        auto built = pipeline.finish();
        const auto &plan = built.planResult.plan;
        const auto &kernel = built.planResult.kernel;

        std::printf("== cosmicc: %s ==\n", platform.name.c_str());
        std::printf("DFG            %lld operations, critical path "
                    "%lld\n",
                    static_cast<long long>(kernel.opCount),
                    static_cast<long long>(kernel.criticalPath));
        std::printf("plan           T%d x R%d x C%d (t_max %lld, %zu "
                    "points explored)\n",
                    plan.threads, plan.rowsPerThread, plan.columns,
                    static_cast<long long>(
                        built.planResult.maxThreadsBound),
                    built.planResult.explored.size());
        std::printf("schedule       %lld cycles/record, %lld "
                    "transfers (%lld neighbour / %lld row / %lld "
                    "tree)\n",
                    static_cast<long long>(
                        kernel.computeCyclesPerRecord),
                    static_cast<long long>(
                        kernel.schedule.totalTransfers()),
                    static_cast<long long>(
                        kernel.schedule.neighborTransfers),
                    static_cast<long long>(
                        kernel.schedule.rowBusTransfers),
                    static_cast<long long>(
                        kernel.schedule.treeBusTransfers));

        accel::PerfEstimator perf(built.translation, kernel, plan);
        std::printf("throughput     %.0f records/s (%s-bound)\n",
                    perf.recordsPerSecond(),
                    perf.memoryBound() ? "memory" : "compute");

        auto usage_report = plan.resourceUsage();
        std::printf("resources      %lld DSP (%.1f%%), %lld KB BRAM "
                    "(%.1f%%), %lld LUT (%.1f%%)\n",
                    static_cast<long long>(usage_report.dspSlices),
                    100.0 * usage_report.dspUtil,
                    static_cast<long long>(
                        usage_report.bramBytes / 1024),
                    100.0 * usage_report.bramUtil,
                    static_cast<long long>(usage_report.luts),
                    100.0 * usage_report.lutUtil);

        auto replay = accel::ScheduleReplayer::replay(built.translation,
                                                      kernel);
        std::printf("replay         %s; PE utilization avg %.1f%% / "
                    "peak %.1f%%\n",
                    replay.valid ? "schedule valid"
                                 : replay.violation.c_str(),
                    100.0 * replay.avgPeUtilization,
                    100.0 * replay.peakPeUtilization);

        if (built.planResult.elasticPlacement) {
            const auto &placement = *built.planResult.elasticPlacement;
            std::printf("elastic        chosen: %zu FIFO links, %lld "
                        "buffer bytes/thread (budget %lld), %lld "
                        "cycles/record\n",
                        placement.links.size(),
                        static_cast<long long>(
                            placement.bufferBytesPerThread),
                        static_cast<long long>(
                            placement.budgetBytesPerThread),
                        static_cast<long long>(
                            placement.cyclesPerRecord));
        }

        if (dse) {
            std::printf("\nDesign space:\n");
            for (size_t p = 0; p < built.planResult.explored.size();
                 ++p) {
                const auto &point = built.planResult.explored[p];
                char detail[64] = "";
                if (point.elastic)
                    std::snprintf(detail, sizeof(detail),
                                  "  elastic %lld B",
                                  static_cast<long long>(
                                      point.bufferBytes));
                std::printf("  T%-3d x R%-3d  %12.0f records/s%s%s\n",
                            point.threads, point.rowsPerThread,
                            point.recordsPerSecond, detail,
                            p == built.planResult.chosenIndex
                                ? "  <= chosen" : "");
            }
        }

        if (emit_dot) {
            dfg::DotOptions dot_options;
            dot_options.maxNodes = 1 << 20;
            auto mapping = built.planResult.kernel.mapping.peOf;
            dot_options.peOf = &mapping;
            std::cout << "\n" << dfg::toDot(built.translation,
                                            dot_options);
        }

        if (dump_passes) {
            // Run the remaining stages so the report covers the whole
            // pipeline, then print the per-pass table.
            pipeline.mapped();
            pipeline.tape();
            std::cout << "\n" << pipeline.report().table();
            const auto cache = compile::BuildCache::instance().stats();
            std::printf("\nbuild-cache    hits=%lld misses=%lld "
                        "entries=%lld\n",
                        static_cast<long long>(cache.hits),
                        static_cast<long long>(cache.misses),
                        static_cast<long long>(cache.entries));
        }

        if (!dump_ir.empty()) {
            compile::Stage stage;
            if (!compile::stageFromName(dump_ir, stage))
                COSMIC_FATAL("unknown stage '"
                             << dump_ir
                             << "' (expected translate, optimize, "
                                "or map)");
            dfg::DotOptions dot_options;
            dot_options.maxNodes = 1 << 20;
            std::vector<int> pe_of;
            if (stage == compile::Stage::Map) {
                pe_of = pipeline.mapped().mapping.peOf;
                dot_options.peOf = &pe_of;
            }
            std::cout << "\n"
                      << dfg::toDot(pipeline.translationAt(stage),
                                    dot_options);
        }

        if (emit_verilog || microcode_pe >= 0 || rom_pe >= 0) {
            auto design = circuit::Constructor::generate(
                built.translation, plan, kernel);
            if (emit_verilog) {
                std::cout << "\n" << design.topModule << "\n"
                          << design.peModule << "\n"
                          << design.memoryInterfaceModule;
            }
            if (microcode_pe >= 0) {
                std::printf("\n// microcode for PE %d\n", microcode_pe);
                std::cout << design.microcodeListing(microcode_pe);
            }
            if (rom_pe >= 0) {
                std::printf("\n// $readmemh image for PE %d\n", rom_pe);
                std::cout << design.romImageHex(rom_pe);
            }
        }
        return 0;
    } catch (const CosmicError &e) {
        std::fprintf(stderr, "cosmicc: error: %s\n", e.what());
        return 1;
    }
}
