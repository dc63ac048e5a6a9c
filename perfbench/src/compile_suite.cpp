/**
 * @file
 * `compile-suite`: uncached compile::Pipeline builds, parse to tape,
 * of all ten Table 1 programs at scale 16 on the VU9P with default
 * CompileOptions, then the six small programs again with elasticMode
 * on. The seed permutes the program order of every pass. This is the
 * only workload that runs the planner, the mapper, the elastic
 * simulator and the buffer optimizer.
 */
#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>

#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "host.h"
#include "ml/dataset.h"
#include "ml/reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace cosmic;

constexpr double kScale = 16.0;
/** The slowest compiles of a pass; wall.tail_ms follows them. */
const std::vector<std::string> kLargePrograms = {"movielens", "netflix"};
/** Passes (10 static + 6 elastic compiles each) per 10 s of nominal
 *  run length, and at least 10, so the per-pass medians behind every
 *  timing rest on ten passes. */
constexpr double kPassesPerTenSeconds = 6.5;
constexpr int64_t kMinPasses = 10;
/** Optimized DFG vs ml::Reference gradient tolerance (relative to
 *  max(1, |reference|)), over this many generated records. */
constexpr double kGradientTolerance = 1e-9;
constexpr int64_t kGradientRecords = 3;

/** Exact counts one compile reports; they must repeat every pass. */
struct Counts
{
    int64_t nodesIn = 0;
    int64_t nodesOut = 0;
    int64_t rewriteHits = 0;
    int64_t pointsExplored = 0;
    int64_t tapeInstrs = 0;

    bool operator==(const Counts &) const = default;

    Counts &
    operator+=(const Counts &o)
    {
        nodesIn += o.nodesIn;
        nodesOut += o.nodesOut;
        rewriteHits += o.rewriteHits;
        pointsExplored += o.pointsExplored;
        tapeInstrs += o.tapeInstrs;
        return *this;
    }
};

struct CompileRecord
{
    std::string program;
    bool elastic = false;
    double seconds = 0.0;
    Counts counts;
};

/** One uncached build, one span around each lazy Pipeline accessor. */
CompileRecord
compileOne(const std::string &program, bool elastic, Tracer &tracer,
           uint64_t runId)
{
    CompileRecord rec{program, elastic, 0.0, {}};
    const std::string source =
        ml::Workload::byName(program).dslSource(kScale);
    compiler::CompileOptions options;
    options.elasticMode = elastic;
    const auto start = Clock::now();
    {
        Tracer::Scope whole(tracer,
                            elastic ? "compile.elastic" : "compile.static",
                            runId);
        compile::Pipeline p(source, accel::PlatformSpec::ultrascalePlus(),
                            options);
        {
            Tracer::Scope s(tracer, "dsl.parse", runId);
            p.parsed();
        }
        {
            Tracer::Scope s(tracer, "dfg.translate", runId);
            rec.counts.nodesIn = p.translated().dfg.size();
        }
        {
            Tracer::Scope s(tracer, "dfg.rewrite", runId);
            rec.counts.nodesOut = p.optimized().dfg.size();
        }
        {
            Tracer::Scope s(tracer,
                            elastic ? "planner.plan_elastic"
                                    : "planner.plan",
                            runId);
            rec.counts.pointsExplored =
                static_cast<int64_t>(p.planned().explored.size());
        }
        {
            Tracer::Scope s(tracer, "compiler.map", runId);
            p.mapped();
        }
        {
            Tracer::Scope s(tracer, "dfg.tape", runId);
            rec.counts.tapeInstrs =
                static_cast<int64_t>(p.tape().instructions().size());
        }
        for (const auto &hit : p.report().patternHits)
            rec.counts.rewriteHits += hit.hits;
    }
    rec.seconds = secondsSince(start);
    return rec;
}

struct SuiteRun
{
    std::vector<CompileRecord> compiles;
    /** Wall and process CPU seconds of each pass's static leg (the
     *  ten-program build). */
    std::vector<double> staticLegSec;
    std::vector<double> staticLegCpuSec;
    /** Wall and process CPU seconds into the run at which each pass
     *  finished. */
    std::vector<double> passEnds;
    std::vector<double> passCpu;
    double wallSec = 0.0;
    double cpuSec = 0.0;
};

/** Program order of one leg: the seed's permutation for that pass. */
std::vector<std::string>
legOrder(std::vector<std::string> programs, uint64_t seed, int64_t pass,
         bool elastic)
{
    std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(pass) * 2 +
                        (elastic ? 1 : 0));
    std::shuffle(programs.begin(), programs.end(), rng);
    return programs;
}

SuiteRun
runSuite(uint64_t seed, int64_t passes, Tracer &tracer)
{
    std::vector<std::string> all;
    for (const auto &w : ml::Workload::suite())
        all.push_back(w.name);

    SuiteRun run;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    Tracer::Scope root(tracer, "compile-suite");
    uint64_t runId = 0;
    for (int64_t pass = 0; pass < passes; ++pass) {
        const double legCpu = processCpuSeconds();
        const auto legStart = Clock::now();
        for (const auto &program : legOrder(all, seed, pass, false))
            run.compiles.push_back(
                compileOne(program, false, tracer, runId++));
        run.staticLegSec.push_back(secondsSince(legStart));
        run.staticLegCpuSec.push_back(processCpuSeconds() - legCpu);
        for (const auto &program :
             legOrder(kSmallPrograms, seed, pass, true))
            run.compiles.push_back(
                compileOne(program, true, tracer, runId++));
        run.passEnds.push_back(secondsSince(start));
        run.passCpu.push_back(processCpuSeconds() - cpu0);
    }
    run.wallSec = secondsSince(start);
    run.cpuSec = processCpuSeconds() - cpu0;
    return run;
}

/** Counts must repeat exactly for every (program, mode) across passes;
 *  returns how many compiles disagreed with the first one seen. */
int64_t
checkCounts(Result &result, const std::vector<CompileRecord> &compiles)
{
    std::vector<const CompileRecord *> first;
    int64_t mismatched = 0;
    for (const auto &c : compiles) {
        const auto it =
            std::find_if(first.begin(), first.end(), [&](auto *f) {
                return f->program == c.program && f->elastic == c.elastic;
            });
        if (it == first.end()) {
            first.push_back(&c);
        } else if (!((*it)->counts == c.counts)) {
            ++mismatched;
            result.fail("compile counts of " + c.program +
                        (c.elastic ? " (elastic)" : "") +
                        " changed between passes");
        }
    }
    return mismatched;
}

/** Each program's optimized DFG, run unquantized, against the
 *  hand-written ml::Reference gradient. */
int64_t
checkGradients(Result &result, uint64_t seed)
{
    int64_t bad = 0;
    for (const auto &w : ml::Workload::suite()) {
        compile::Pipeline p(w.dslSource(kScale));
        const dfg::Translation &tr = p.optimized();
        const dfg::Interpreter interp(tr);
        const ml::Reference reference(w, kScale);
        Rng rng(seed);
        const ml::Dataset data =
            ml::DatasetGenerator::generate(w, kScale, kGradientRecords, rng);
        const std::vector<double> model =
            ml::DatasetGenerator::initialModel(w, kScale, rng);
        std::vector<double> got, want;
        double worst = 0.0;
        for (int64_t r = 0; r < data.count; ++r) {
            interp.run(data.record(r), model, got);
            reference.gradient(data.record(r), model, want);
            if (got.size() != want.size()) {
                worst = INFINITY;
                break;
            }
            for (size_t i = 0; i < got.size(); ++i)
                worst = std::max(worst, std::abs(got[i] - want[i]) /
                                            std::max(1.0,
                                                     std::abs(want[i])));
        }
        if (!(worst <= kGradientTolerance)) {
            ++bad;
            std::ostringstream what;
            what << w.name << ": optimized DFG gradient differs from "
                 << "ml::Reference by " << worst;
            result.fail(what.str());
        }
    }
    return bad;
}

/** One pass's summed compile counts. */
void
addCountMetrics(Result &result, const std::vector<CompileRecord> &compiles,
                int64_t passes)
{
    Counts pass;
    for (size_t i = 0; i < compiles.size() / passes; ++i)
        pass += compiles[i].counts;
    result.add("dfg.nodes_in", static_cast<double>(pass.nodesIn), "count");
    result.add("dfg.nodes_out", static_cast<double>(pass.nodesOut),
               "count");
    result.add("dfg.rewrite_hits", static_cast<double>(pass.rewriteHits),
               "count");
    result.add("planner.points_explored",
               static_cast<double>(pass.pointsExplored), "count");
    result.add("dfg.tape_instrs", static_cast<double>(pass.tapeInstrs),
               "count");
}

} // namespace

Result
runCompileSuite(const RunOptions &opts)
{
    const int64_t passes =
        workUnits(kPassesPerTenSeconds, opts.seconds, kMinPasses);
    Result result;
    Tracer untraced(false);
    const SuiteRun run = runSuite(opts.seed, passes, untraced);
    // Read before the gradient check, whose allocations would count.
    const double peakRss = peakRssMb();

    const double compilesPerPass = static_cast<double>(run.compiles.size()) /
                                   static_cast<double>(passes);
    if (!opts.trace) {
        result.attempted = static_cast<int64_t>(run.compiles.size());
        result.failed = checkCounts(result, run.compiles) +
                        checkGradients(result, opts.seed);
        result.add("setup_s", median(run.staticLegCpuSec), "s");
        result.add("cpu_ms_per_unit",
                   1e3 / medianBlockRate(run.passCpu, compilesPerPass,
                                         run.passCpu.size()),
                   "ms");
        result.add("peak_rss_mb", peakRss, "MB");
        result.noteSamples("setup_s", 0.5, run.staticLegCpuSec.size(),
                           "static passes");
        result.noteSamples("cpu_ms_per_unit", 0.5, run.passCpu.size(),
                           "passes (per compile)");
        return result;
    }

    // The wall-clock figures of the untraced run. Per pass: the median
    // compile and the mean large-program compile; each figure is the
    // median over passes.
    const size_t perPass = run.compiles.size() / passes;
    std::vector<double> passP50, passLarge;
    for (int64_t pass = 0; pass < passes; ++pass) {
        std::vector<double> sec, large;
        for (size_t i = pass * perPass; i < (pass + 1) * perPass; ++i) {
            const CompileRecord &c = run.compiles[i];
            sec.push_back(c.seconds);
            if (!c.elastic && std::count(kLargePrograms.begin(),
                                         kLargePrograms.end(), c.program))
                large.push_back(c.seconds);
        }
        passP50.push_back(median(sec));
        passLarge.push_back(std::accumulate(large.begin(), large.end(), 0.0) /
                            static_cast<double>(large.size()));
    }
    result.add("wall.setup_s", median(run.staticLegSec), "s");
    result.add("wall.rate_per_s",
               medianBlockRate(run.passEnds, compilesPerPass,
                               run.passEnds.size()),
               "1/s");
    result.add("wall.p50_ms", 1e3 * median(passP50), "ms");
    result.add("wall.tail_ms", 1e3 * median(passLarge), "ms");
    result.noteSamples("wall.p50_ms", 0.5, passes, "passes' median compiles");
    result.noteSamples("wall.tail_ms", 0.5, passes,
                       "passes' mean movielens/netflix compiles");

    Tracer tracer(true);
    const SuiteRun traced = runSuite(opts.seed, passes, tracer);
    // The traced build must produce the same DFGs, plans and tapes.
    std::vector<CompileRecord> both = run.compiles;
    both.insert(both.end(), traced.compiles.begin(), traced.compiles.end());
    result.attempted = static_cast<int64_t>(both.size());
    result.failed =
        checkCounts(result, both) + checkGradients(result, opts.seed);

    const TraceSummary sum = summarize(tracer.spans());
    const double passShare = 1.0 / static_cast<double>(passes);
    for (const char *layer :
         {"dsl.parse", "dfg.translate", "dfg.rewrite", "planner.plan",
          "planner.plan_elastic", "compiler.map", "dfg.tape"})
        result.add(std::string(layer) + "_ms",
                   sum.totalMs.at(layer) * passShare, "ms");
    addCountMetrics(result, traced.compiles, passes);
    addTraceMetrics(result, tracer, traced.wallSec, run.wallSec,
                    run.cpuSec / run.wallSec, opts.traceOut);
    return result;
}

Result
compileCountsSelfTest(uint64_t seed, int64_t passes)
{
    Tracer untraced(false);
    const SuiteRun run = runSuite(seed, passes, untraced);
    Result result;
    result.attempted = static_cast<int64_t>(run.compiles.size());
    result.failed = checkCounts(result, run.compiles);
    addCountMetrics(result, run.compiles, passes);
    return result;
}

} // namespace perfbench
