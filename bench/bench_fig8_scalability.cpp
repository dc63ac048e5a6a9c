/**
 * @file
 * Regenerates paper Figure 8: scalability of CoSMIC and Spark, each
 * normalized to its own 4-node configuration.
 *
 * Paper reference: CoSMIC 1.8x / 2.7x at 8 / 16 nodes; Spark 1.3x /
 * 1.8x. The improvement gap is largest for the benchmarks with a high
 * communication-to-computation ratio (stock, texture, tumor, cancer1,
 * face, cancer2).
 */
#include <iostream>
#include <numeric>
#include <sstream>
#include <vector>

#include "bench_support.h"
#include "common/stats.h"
#include "common/table.h"
#include "system/cluster_runtime.h"

using namespace cosmic;

namespace {

/** One measured scale-out run (real ClusterRuntime, not the
 *  analytical estimator) on the selected fabric. */
struct NetSeriesPoint
{
    int nodes;
    const char *backend;
    double iterSec;
    double bytesPerIter;
    double serializeSec;
    double deserializeSec;
    uint64_t wakeups;
};

NetSeriesPoint
measureBackend(int nodes, net::TransportKind kind)
{
    sys::ClusterConfig cfg = bench::smallCluster(nodes, 32, 64);
    cfg.transport.kind = kind;
    auto report = bench::trainMeasured("stock", 64.0, cfg, 1);
    NetSeriesPoint p;
    p.nodes = nodes;
    p.backend =
        kind == net::TransportKind::Tcp ? "tcp-loopback" : "inprocess";
    const double iters =
        std::max<size_t>(1, report.iterationSeconds.size());
    p.iterSec = std::accumulate(report.iterationSeconds.begin(),
                                report.iterationSeconds.end(), 0.0) /
                iters;
    p.bytesPerIter = double(report.net.bytesSent) / iters;
    p.serializeSec = report.net.serializeSec;
    p.deserializeSec = report.net.deserializeSec;
    p.wakeups = report.net.wakeups;
    return p;
}

/** One measured pipelining run: barrier vs overlap, sync vs async. */
struct OverlapSeriesPoint
{
    int nodes;
    const char *backend;
    const char *mode; // "barrier" | "overlap-sync" | "overlap-async"
    double itersPerSec;
    double speedupVsBarrier; // filled once the barrier point is known
};

OverlapSeriesPoint
measureOverlap(int nodes, net::TransportKind kind, bool overlap,
               int max_staleness)
{
    sys::ClusterConfig cfg = bench::smallCluster(
        nodes, 32, 64, nodes >= 8 ? nodes / 4 : 0);
    cfg.transport.kind = kind;
    cfg.overlapIterations = overlap;
    cfg.maxStaleness = max_staleness;
    if (max_staleness > 0)
        cfg.aggregation.deterministic = false;
    // One untimed epoch first, so the timed run does not pay the
    // runtime's start-up (the node pool's workers, the first launch).
    auto runtime = bench::makeRuntime("stock", 64.0, cfg);
    runtime->train(1);
    auto report = runtime->train(4);
    OverlapSeriesPoint p;
    p.nodes = nodes;
    p.backend =
        kind == net::TransportKind::Tcp ? "tcp-loopback" : "inprocess";
    p.mode = !overlap && max_staleness == 0 ? "barrier"
             : max_staleness == 0          ? "overlap-sync"
                                           : "overlap-async";
    const double total =
        std::accumulate(report.iterationSeconds.begin(),
                        report.iterationSeconds.end(), 0.0);
    p.itersPerSec =
        total > 0.0 ? double(report.iterations) / total : 0.0;
    p.speedupVsBarrier = 1.0;
    return p;
}

} // namespace

int
main()
{
    auto suite = bench::buildSuite(accel::PlatformSpec::ultrascalePlus());

    TablePrinter table("Figure 8: Scalability (normalized to each "
                       "system's own 4-node configuration)");
    table.setHeader({"Benchmark", "CoSMIC 8-node", "CoSMIC 16-node",
                     "Spark 8-node", "Spark 16-node"});

    std::vector<double> c8s, c16s, s8s, s16s;
    for (const auto &s : suite) {
        const auto &w = ml::Workload::byName(s.workload);
        auto cosmic_epoch = [&](int nodes) {
            return bench::cosmicEstimate(s, nodes,
                                         bench::kDefaultMinibatch,
                                         w.numVectors)
                .epochSeconds;
        };
        auto spark_epoch = [&](int nodes) {
            return bench::sparkEstimate(s, nodes,
                                        bench::kDefaultMinibatch,
                                        w.numVectors)
                .epochSeconds;
        };
        double c4 = cosmic_epoch(4);
        double s4 = spark_epoch(4);
        double c8 = c4 / cosmic_epoch(8);
        double c16 = c4 / cosmic_epoch(16);
        double s8 = s4 / spark_epoch(8);
        double s16 = s4 / spark_epoch(16);
        c8s.push_back(c8);
        c16s.push_back(c16);
        s8s.push_back(s8);
        s16s.push_back(s16);
        table.addRow({s.workload, TablePrinter::num(c8, 2),
                      TablePrinter::num(c16, 2),
                      TablePrinter::num(s8, 2),
                      TablePrinter::num(s16, 2)});
    }
    table.addRow({"geomean", TablePrinter::num(geomean(c8s), 2),
                  TablePrinter::num(geomean(c16s), 2),
                  TablePrinter::num(geomean(s8s), 2),
                  TablePrinter::num(geomean(s16s), 2)});
    table.print(std::cout);

    std::cout << "\nPaper reference: CoSMIC 1.8x / 2.7x; Spark 1.3x / "
              << "1.8x at 8 / 16 nodes.\n";

    // Measured series: the real runtime over the in-process fabric vs
    // TCP loopback (every message crosses the wire protocol and the
    // poll() event loop). The last line is the machine-readable BENCH_net
    // summary CI keeps as an artifact.
    TablePrinter net_table(
        "TCP-loopback series (measured, stock @ scale 64)");
    net_table.setHeader({"Nodes", "Backend", "iter (ms)", "wire B/iter",
                         "serialize (ms)", "loop wakeups"});
    std::vector<NetSeriesPoint> series;
    for (int nodes : {4, 8}) {
        series.push_back(
            measureBackend(nodes, net::TransportKind::InProcess));
        series.push_back(
            measureBackend(nodes, net::TransportKind::Tcp));
    }
    for (const auto &p : series)
        net_table.addRow({std::to_string(p.nodes), p.backend,
                          TablePrinter::num(p.iterSec * 1e3, 3),
                          TablePrinter::num(p.bytesPerIter, 0),
                          TablePrinter::num(p.serializeSec * 1e3, 3),
                          std::to_string(p.wakeups)});
    net_table.print(std::cout);

    std::ostringstream json;
    json << "{\"bench\":\"net\",\"workload\":\"stock\",\"series\":[";
    bool first = true;
    for (const auto &p : series) {
        json << (first ? "" : ",") << "{\"nodes\":" << p.nodes
             << ",\"backend\":\"" << p.backend
             << "\",\"iter_sec\":" << p.iterSec
             << ",\"bytes_per_iter\":" << p.bytesPerIter
             << ",\"serialize_sec\":" << p.serializeSec
             << ",\"deserialize_sec\":" << p.deserializeSec
             << ",\"wakeups\":" << p.wakeups << "}";
        first = false;
    }
    json << "]}";
    std::cout << json.str() << "\n";

    // Pipelined-iteration series: barrier vs compute/aggregation
    // overlap (sync, bit-exact) vs bounded-staleness async
    // (maxStaleness = 2), on both fabrics. Overlap removes the
    // per-iteration dispatch barrier, so iterations/sec should grow —
    // most visibly on TCP at 16 nodes, where the aggregation wait is
    // largest. The last line is the machine-readable BENCH_overlap
    // summary CI keeps as an artifact.
    TablePrinter overlap_table(
        "Pipelined iterations (measured, stock @ scale 64): "
        "iterations/sec vs the barrier protocol");
    overlap_table.setHeader({"Nodes", "Backend", "Mode", "iters/sec",
                             "vs barrier"});
    std::vector<OverlapSeriesPoint> opoints;
    for (net::TransportKind kind :
         {net::TransportKind::InProcess, net::TransportKind::Tcp}) {
        for (int nodes : {4, 8, 16}) {
            OverlapSeriesPoint barrier =
                measureOverlap(nodes, kind, false, 0);
            OverlapSeriesPoint sync =
                measureOverlap(nodes, kind, true, 0);
            OverlapSeriesPoint async =
                measureOverlap(nodes, kind, true, 2);
            sync.speedupVsBarrier =
                barrier.itersPerSec > 0.0
                    ? sync.itersPerSec / barrier.itersPerSec
                    : 0.0;
            async.speedupVsBarrier =
                barrier.itersPerSec > 0.0
                    ? async.itersPerSec / barrier.itersPerSec
                    : 0.0;
            opoints.push_back(barrier);
            opoints.push_back(sync);
            opoints.push_back(async);
        }
    }
    for (const auto &p : opoints)
        overlap_table.addRow(
            {std::to_string(p.nodes), p.backend, p.mode,
             TablePrinter::num(p.itersPerSec, 1),
             TablePrinter::num(p.speedupVsBarrier, 2) + "x"});
    overlap_table.print(std::cout);

    std::ostringstream ojson;
    ojson << "{\"bench\":\"overlap\",\"workload\":\"stock\","
          << "\"series\":[";
    first = true;
    for (const auto &p : opoints) {
        ojson << (first ? "" : ",") << "{\"nodes\":" << p.nodes
              << ",\"backend\":\"" << p.backend << "\",\"mode\":\""
              << p.mode << "\",\"iters_per_sec\":" << p.itersPerSec
              << ",\"speedup_vs_barrier\":" << p.speedupVsBarrier
              << "}";
        first = false;
    }
    ojson << "]}";
    std::cout << ojson.str() << "\n";
    return 0;
}
