/**
 * @file
 * Self-tests of the benchmark's own machinery: the percentile rule,
 * metric-name validation, span reconciliation, the block medians
 * behind the end-to-end metrics, and that compile
 * counts repeat exactly across passes. Exit status 0 when every check
 * holds; each failure is printed.
 */
#include <cmath>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok)
        ++failures;
}

bool
throws(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

std::vector<double>
ramp(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

void
percentileRule()
{
    check(samplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
    check(samplesBeyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
    check(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
    check(throws([] { percentile(ramp(999), 0.99); }),
          "p99 of 999 samples is refused");
    check(percentile(ramp(200), 0.95) == 190.0, "p95 of 1..200 is 190");
    check(throws([] { percentile(ramp(199), 0.95); }),
          "p95 of 199 samples is refused");
    check(percentile(ramp(100), 0.90) == 90.0, "p90 of 1..100 is 90");
    check(throws([] { percentile(ramp(99), 0.90); }),
          "p90 of 99 samples is refused");
    check(throws([] { percentile(ramp(100), 1.0); }),
          "p100 is refused");
    check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
          "median of odd and even samples");
    check(throws([] { median({}); }), "median of nothing is refused");
}

void
metricNames()
{
    for (const char *good :
         {"setup_s", "dfg.nodes_in", "net.bytes_per_iter", "host.cores_busy",
          "p50_ms", "a-b.c_d", "9lives"})
        check(validMetricName(good), std::string("accepts ") + good);
    for (const char *bad :
         {"", "has space", "semi;colon", "quote\"", "_lead", ".lead",
          "slash/name", "t\xc3\xa9"})
        check(!validMetricName(bad),
              std::string("rejects '") + bad + "'");
    check(!validMetricName(std::string(65, 'a')), "rejects 65 characters");
    Result r;
    r.add("setup_s", 1.0, "s");
    check(throws([&] { r.add("setup_s", 2.0, "s"); }),
          "refuses a repeated metric");
    check(throws([&] { r.add("bad name", 2.0, "s"); }),
          "refuses an invalid metric name");
}

Span
span(const char *name, int64_t start, int64_t end, int parent)
{
    return Span{name, start, end, parent, 0, 0};
}

void
reconciliation()
{
    // root [0,100] > a [10,40] > a1 [20,30]; b [50,90].
    const std::vector<Span> nested = {
        span("root", 0, 100'000'000, -1), span("a", 10'000'000, 40'000'000, 0),
        span("a1", 20'000'000, 30'000'000, 1),
        span("b", 50'000'000, 90'000'000, 0)};
    const TraceSummary s = summarize(nested);
    check(std::abs(s.unattributedMs - 30.0) < 1e-9,
          "root self time is the uncovered 30 ms");
    check(std::abs(s.totalMs.at("a") - 30.0) < 1e-9,
          "layer totals are span durations");
    check(s.maxReconcileErrorMs < 1e-9, "nested spans reconcile exactly");

    std::vector<Span> overlap = nested;
    overlap[3].startNs = 35'000'000; // b overlaps a by 5 ms
    check(std::abs(summarize(overlap).maxReconcileErrorMs - 5.0) < 1e-9,
          "overlapping siblings show as a 5 ms excess");

    std::vector<Span> escape = nested;
    escape[2].endNs = 45'000'000; // a1 outlives its parent by 5 ms
    check(summarize(escape).maxReconcileErrorMs > 4.999,
          "a child outliving its parent shows as an excess");
}

void
blockRate()
{
    check(std::abs(medianBlockRate({1, 2, 4, 5}, 1.0, 2) - 5.0 / 6.0) <
              1e-12,
          "block rate is the median of per-block rates");
    check(medianBlockRate({1, 2, 3, 10, 11}, 3.0, 5) == 3.0,
          "one slow block does not move the median block rate");
    check(throws([] { medianBlockRate({}, 1.0, 4); }),
          "block rate of no work is refused");
}

void
blockPercentile()
{
    // Ten blocks of 1..100; a slow spell triples three of them.
    std::vector<double> samples;
    for (int b = 0; b < 10; ++b)
        for (int i = 1; i <= 100; ++i)
            samples.push_back(b < 3 ? 3.0 * i : i);
    size_t blocks = 0;
    check(medianBlockPercentile(samples, 0.90, 16, &blocks) == 90.0 &&
              blocks == 10,
          "p90 over ten 100-sample blocks is 90 (16 asked, 10 allowed)");
    check(medianBlockPercentile(samples, 0.5, 10) == 50.5,
          "three slow blocks do not move the median block p50");
    check(medianBlockPercentile(ramp(200), 0.95, 4, &blocks) == 190.0 &&
              blocks == 1,
          "too few samples for two blocks fall back to one");
    check(throws([] { medianBlockPercentile(ramp(99), 0.90, 4); }),
          "one block without 10 beyond its p90 is refused");
}

void
compileCountsRepeat()
{
    const Result r = compileCountsSelfTest(7, 2);
    for (const auto &e : r.errors)
        std::cout << "        " << e << "\n";
    check(r.correct && r.failed == 0 && r.attempted == 32,
          "compile counts repeat across two passes");
    check(r.value("dfg.nodes_in") > r.value("dfg.nodes_out") &&
              r.value("dfg.rewrite_hits") > 0 &&
              r.value("planner.points_explored") > 0 &&
              r.value("dfg.tape_instrs") > 0,
          "compile counts are populated");
}

} // namespace

int
main()
{
    std::cout << "percentile rule\n";
    percentileRule();
    std::cout << "metric names\n";
    metricNames();
    std::cout << "span reconciliation\n";
    reconciliation();
    std::cout << "block rate\n";
    blockRate();
    std::cout << "block percentile\n";
    blockPercentile();
    std::cout << "compile counts\n";
    compileCountsRepeat();
    std::cout << (failures ? "FAILED: " : "all passed: ") << failures
              << " failure(s)\n";
    return failures ? 1 : 0;
}
