/**
 * @file
 * Regenerates paper Figure 13: fraction of 3-FPGA-CoSMIC runtime spent
 * computing (vs communicating/aggregating) as the mini-batch size
 * grows from 500 to 100,000.
 *
 * Paper reference: computation is 12% of the runtime at b=500 and 95%
 * at b=100,000 on average.
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/stats.h"
#include "common/table.h"
#include "system/cluster_runtime.h"

using namespace cosmic;

namespace {

/**
 * The same breakdown, measured instead of modeled: the functional
 * runtime's per-iteration perf counters (TrainingReport) on scaled-down
 * workloads. The absolute times are host-CPU artifacts, but the trend —
 * compute fraction grows with the mini-batch — must match Fig. 13.
 */
void
measuredBreakdown()
{
    const std::vector<int64_t> batches = {16, 64, 256};
    TablePrinter table("Measured (functional runtime, scale 1/64, "
                       "3 nodes): compute fraction of iteration (%)");
    std::vector<std::string> header = {"Benchmark"};
    for (int64_t b : batches)
        header.push_back("b=" + std::to_string(b));
    header.push_back("rec/s (b=256)");
    table.setHeader(header);

    for (const auto &w : ml::Workload::suite()) {
        std::vector<std::string> row = {w.name};
        double rps = 0.0;
        for (int64_t b : batches) {
            auto report = bench::trainMeasured(
                w.name, 64.0, bench::smallCluster(3, b, 256, 1), 1);
            std::vector<double> compute, throughput;
            for (size_t i = 0; i < report.iterationStats.size(); ++i) {
                const sys::IterationStats &it = report.iterationStats[i];
                compute.push_back(it.maxComputeSec);
                throughput.push_back(it.records /
                                     report.iterationSeconds[i]);
            }
            double iter = mean(report.iterationSeconds);
            row.push_back(
                TablePrinter::num(100.0 * mean(compute) / iter, 1));
            rps = mean(throughput);
        }
        row.push_back(TablePrinter::num(rps, 0));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}

/**
 * Per-iteration compute vs aggregation-wait breakdown from the
 * TrainingReport perf counters — the measured analogue of Fig. 13's
 * split, now resolved per iteration instead of per run. Shown for the
 * barrier protocol and the pipelined (overlapIterations) loop side by
 * side: overlap should shrink the visible aggregation share because
 * nodes compute iteration k+1 while round k reduces.
 */
void
perIterationBreakdown()
{
    for (bool overlap : {false, true}) {
        sys::ClusterConfig cfg = bench::smallCluster(4, 64, 256, 1);
        cfg.overlapIterations = overlap;
        auto report = bench::trainMeasured("stock", 64.0, cfg, 2);

        TablePrinter table(
            std::string("Per-iteration breakdown (stock, 4 nodes, ") +
            (overlap ? "pipelined" : "barrier") +
            "): compute vs aggregation wait");
        table.setHeader({"Iter", "compute (ms)", "agg wait (ms)",
                         "agg share (%)"});
        for (size_t i = 0; i < report.iterationStats.size(); ++i) {
            const double c = report.iterationStats[i].sumComputeSec;
            const double a = report.iterationStats[i].sumAggregationSec;
            const double total = c + a;
            table.addRow({std::to_string(i),
                          TablePrinter::num(c * 1e3, 3),
                          TablePrinter::num(a * 1e3, 3),
                          TablePrinter::num(
                              total > 0.0 ? 100.0 * a / total : 0.0,
                              1)});
        }
        table.print(std::cout);
    }
}

} // namespace

int
main()
{
    const int nodes = 3;
    const std::vector<int64_t> batches = {500, 2000, 10000, 40000,
                                          100000};
    auto suite = bench::buildSuite(accel::PlatformSpec::ultrascalePlus());

    TablePrinter table("Figure 13: computation fraction of "
                       "3-FPGA-CoSMIC runtime vs mini-batch size (%)");
    std::vector<std::string> header = {"Benchmark"};
    for (int64_t b : batches)
        header.push_back("b=" + std::to_string(b));
    table.setHeader(header);

    std::vector<std::vector<double>> cols(batches.size());
    for (const auto &s : suite) {
        const auto &w = ml::Workload::byName(s.workload);
        std::vector<std::string> row = {s.workload};
        for (size_t i = 0; i < batches.size(); ++i) {
            auto it = bench::cosmicEstimate(s, nodes, batches[i],
                                            w.numVectors)
                          .iteration;
            double fraction = it.computeSec / it.totalSec();
            cols[i].push_back(fraction);
            row.push_back(TablePrinter::num(100.0 * fraction, 1));
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg = {"average"};
    for (const auto &col : cols)
        avg.push_back(TablePrinter::num(100.0 * mean(col), 1));
    table.addRow(std::move(avg));
    table.print(std::cout);

    std::cout << "\nPaper reference: 12% at b=500, 95% at b=100,000.\n\n";

    measuredBreakdown();
    std::cout << "\n";
    perIterationBreakdown();
    return 0;
}
