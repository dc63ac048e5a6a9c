/**
 * @file
 * Regenerates paper Table 1 (the benchmark suite and its datasets) and
 * Table 2 (the evaluated platforms), augmented with the translated
 * DFG's size and critical path for each benchmark.
 */
#include <algorithm>
#include <iostream>

#include "common/table.h"
#include "compiler/pipeline.h"
#include "dfg/analysis.h"
#include "ml/workloads.h"
#include "accel/platform.h"

using namespace cosmic;

namespace {

std::string
thousands(int64_t v)
{
    const std::string digits = std::to_string(v);
    std::string s;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (i > 0 && (digits.size() - i) % 3 == 0)
            s += ',';
        s += digits[i];
    }
    return s;
}

} // namespace

int
main()
{
    TablePrinter table(
        "Table 1: Benchmarks, algorithms, application domains, datasets");
    table.setHeader({"Name", "Algorithm", "Domain", "# Features",
                     "Model Topology", "Model (KB)", "LoC",
                     "# Input Vectors", "Data (GB)", "DFG ops",
                     "Critical Path", "DSL LoC (ours)"});

    for (const auto &w : ml::Workload::suite()) {
        std::string dsl = w.dslSource();
        auto tr = compile::translateSource(dsl);
        int dsl_lines = static_cast<int>(
            std::count(dsl.begin(), dsl.end(), '\n'));
        table.addRow({w.name, ml::algorithmName(w.algorithm), w.domain,
                      thousands(w.d1), w.topology,
                      thousands(w.modelKB),
                      std::to_string(w.linesOfCode),
                      thousands(w.numVectors),
                      TablePrinter::num(w.dataGB, 1),
                      thousands(tr.dfg.operationCount()),
                      thousands(dfg::criticalPathLength(tr.dfg)),
                      std::to_string(dsl_lines)});
    }
    table.print(std::cout);

    TablePrinter platforms("Table 2: CPU, GPU, FPGA, and P-ASICs");
    platforms.setHeader({"Platform", "Compute", "Frequency",
                         "Memory BW (GB/s)", "On-chip (KB)", "TDP (W)"});
    accel::HostSpec host;
    platforms.addRow({"Xeon E3-1275 v5", "4 cores", "3.6 GHz",
                      TablePrinter::num(
                          host.cpuMemBandwidthBytesPerSec / 1e9, 1),
                      "-", TablePrinter::num(host.cpuTdpWatts, 0)});
    platforms.addRow({"Tesla K40c", "2880 cores", "875 MHz",
                      TablePrinter::num(
                          host.gpuMemBandwidthBytesPerSec / 1e9, 0),
                      "-", TablePrinter::num(host.gpuTdpWatts, 0)});
    for (const auto &p : {accel::PlatformSpec::ultrascalePlus(),
                          accel::PlatformSpec::pasicF(),
                          accel::PlatformSpec::pasicG()}) {
        platforms.addRow(
            {p.name, thousands(p.maxPes()) + " PEs",
             TablePrinter::num(p.frequencyHz / 1e6, 0) + " MHz",
             TablePrinter::num(p.memBandwidthBytesPerSec / 1e9, 1),
             thousands(p.bramBytes / 1024),
             TablePrinter::num(p.tdpWatts, 0)});
    }
    platforms.print(std::cout);
    return 0;
}
