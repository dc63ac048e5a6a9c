#include "compiler/pipeline.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "dsl/parser.h"

namespace cosmic::compile {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
    out += '|';
}

void
appendInt(std::string &out, int64_t v)
{
    out += std::to_string(v);
    out += '|';
}

/**
 * The enabled rewrite-pattern set the optimize stage will run (and
 * the build keys must record): COSMIC_REWRITE_PATTERNS overrides the
 * option field and the spec is resolved strictly (unknown names
 * throw). Empty when the sweep budget is 0 — then the optimize stage
 * runs no patterns.
 */
std::vector<std::string>
effectiveRewritePatterns(const compiler::CompileOptions &o)
{
    if (o.rewriteMaxSweeps <= 0)
        return {};
    const char *env = std::getenv("COSMIC_REWRITE_PATTERNS");
    return dfg::resolvePatternList(env ? env : o.rewritePatterns);
}

/** Rewrite options only — all that affects the frontend artifact. */
std::string
frontendOptionsKey(const compiler::CompileOptions &o)
{
    std::string key;
    appendInt(key, o.rewriteMaxSweeps);
    // The *effective* pattern set (after the env override) enters the
    // key, so changing COSMIC_REWRITE_PATTERNS is an honest cache miss,
    // never a stale hit on a differently-optimized artifact.
    for (const auto &name : effectiveRewritePatterns(o)) {
        key += name;
        key += '|';
    }
    return key;
}

std::string
fullOptionsKey(const compiler::CompileOptions &o)
{
    std::string key = frontendOptionsKey(o);
    appendInt(key, static_cast<int64_t>(o.strategy));
    appendInt(key, static_cast<int64_t>(o.bus));
    appendInt(key, o.pruneSmallRows);
    appendInt(key, o.forceThreads);
    appendInt(key, o.forceRowsPerThread);
    // The *effective* elastic mode (after the COSMIC_ELASTIC override)
    // enters the key: elastic exploration changes the chosen design
    // point, so flipping the env var must be an honest cache miss.
    appendInt(key, effectiveElasticMode(o));
    appendInt(key, o.elasticBufferBudgetBytes);
    return key;
}

std::string
platformKey(const accel::PlatformSpec &p)
{
    std::string key = p.name;
    key += '|';
    appendInt(key, static_cast<int64_t>(p.kind));
    appendDouble(key, p.frequencyHz);
    appendInt(key, p.columns);
    appendInt(key, p.maxRows);
    appendDouble(key, p.memBandwidthBytesPerSec);
    appendInt(key, p.bramBytes);
    appendDouble(key, p.tdpWatts);
    appendDouble(key, p.pcieBandwidthBytesPerSec);
    appendInt(key, p.dspSlices);
    appendInt(key, p.luts);
    appendInt(key, p.flipFlops);
    appendDouble(key, p.dspPerPe);
    appendDouble(key, p.lutPerPe);
    appendDouble(key, p.ffPerPe);
    appendDouble(key, p.lutBase);
    appendDouble(key, p.ffBase);
    return key;
}

std::string
frontendKey(const std::string &source,
            const compiler::CompileOptions &options)
{
    return "frontend|" + frontendOptionsKey(options) + source;
}

std::string
buildKey(const std::string &source, const accel::PlatformSpec &platform,
         const compiler::CompileOptions &options)
{
    return "build|" + fullOptionsKey(options) + platformKey(platform) +
           '|' + source;
}

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Parse:
        return "parse";
      case Stage::Translate:
        return "translate";
      case Stage::Optimize:
        return "optimize";
      case Stage::Plan:
        return "plan";
      case Stage::Map:
        return "map";
      case Stage::Tape:
        return "tape";
    }
    return "?";
}

bool
stageFromName(const std::string &name, Stage &out)
{
    for (Stage s : {Stage::Parse, Stage::Translate, Stage::Optimize,
                    Stage::Plan, Stage::Map, Stage::Tape}) {
        if (name == stageName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

double
PipelineReport::totalSeconds() const
{
    double total = 0.0;
    for (const auto &p : passes)
        total += p.seconds;
    return total;
}

const PassStats *
PipelineReport::pass(const std::string &name) const
{
    for (const auto &p : passes)
        if (p.name == name)
            return &p;
    return nullptr;
}

int64_t
PipelineReport::dfgPassCount() const
{
    int64_t n = 0;
    for (const auto &p : passes)
        if (p.name == "rewrite")
            ++n;
    return n;
}

std::string
PipelineReport::table() const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-16s %12s %22s %22s\n", "pass",
                  "time", "nodes", "edges");
    out += line;
    for (const auto &p : passes) {
        char nodes[32], edges[32];
        if (p.nodesBefore == p.nodesAfter &&
            p.edgesBefore == p.edgesAfter) {
            std::snprintf(nodes, sizeof nodes, "%lld",
                          static_cast<long long>(p.nodesAfter));
            std::snprintf(edges, sizeof edges, "%lld",
                          static_cast<long long>(p.edgesAfter));
        } else {
            std::snprintf(nodes, sizeof nodes, "%lld -> %lld",
                          static_cast<long long>(p.nodesBefore),
                          static_cast<long long>(p.nodesAfter));
            std::snprintf(edges, sizeof edges, "%lld -> %lld",
                          static_cast<long long>(p.edgesBefore),
                          static_cast<long long>(p.edgesAfter));
        }
        std::snprintf(line, sizeof line, "%-16s %9.3f ms %22s %22s\n",
                      p.name.c_str(), p.seconds * 1e3, nodes, edges);
        out += line;
        if (p.name == "rewrite" && !patternHits.empty()) {
            std::snprintf(line, sizeof line,
                          "  %-14s %d sweep%s%s\n", "fixpoint",
                          rewriteSweeps, rewriteSweeps == 1 ? "" : "s",
                          rewriteBudgetExhausted
                              ? " (budget exhausted)" : "");
            out += line;
            for (const auto &hit : patternHits) {
                std::snprintf(line, sizeof line, "  %-14s %9lld hit%s\n",
                              hit.name.c_str(),
                              static_cast<long long>(hit.hits),
                              hit.hits == 1 ? "" : "s");
                out += line;
            }
        }
    }
    std::snprintf(line, sizeof line, "%-16s %9.3f ms\n", "total",
                  totalSeconds() * 1e3);
    out += line;
    return out;
}

Pipeline::Pipeline(std::string source, compiler::CompileOptions options)
    : source_(std::move(source)), options_(options)
{
    report_.contentHash = fnv1a(frontendKey(source_, options_));
}

Pipeline::Pipeline(std::string source, accel::PlatformSpec platform,
                   compiler::CompileOptions options)
    : source_(std::move(source)), platform_(std::move(platform)),
      options_(options)
{
    report_.contentHash =
        fnv1a(buildKey(source_, *platform_, options_));
}

const ParsedProgram &
Pipeline::parsed()
{
    if (!parsed_) {
        auto start = std::chrono::steady_clock::now();
        ParsedProgram p;
        p.source = source_;
        p.program = dsl::Parser::parse(source_);
        parsed_.emplace(std::move(p));
        report_.passes.push_back(
            {"parse", secondsSince(start), 0, 0, 0, 0});
    }
    return *parsed_;
}

const dfg::Translation &
Pipeline::translated()
{
    if (!raw_) {
        const auto &p = parsed();
        auto start = std::chrono::steady_clock::now();
        raw_.emplace(dfg::Translator::translate(p.program));
        PassStats s{"translate", secondsSince(start), 0, 0, 0, 0};
        s.nodesBefore = s.nodesAfter = raw_->dfg.size();
        s.edgesBefore = s.edgesAfter = dfg::edgeCount(raw_->dfg);
        report_.passes.push_back(std::move(s));
    }
    return *raw_;
}

const dfg::Translation &
Pipeline::optimized()
{
    if (!optimizeRan_) {
        const dfg::Translation &raw = translated();
        std::vector<std::string> patterns =
            effectiveRewritePatterns(options_);
        if (!patterns.empty()) {
            dfg::RewriteOptions rewrite_options;
            rewrite_options.patterns = std::move(patterns);
            rewrite_options.maxSweeps = options_.rewriteMaxSweeps;
            auto start = std::chrono::steady_clock::now();
            dfg::RewriteOutcome o;
            // A rewrite that changes nothing leaves the raw artifact
            // as the optimized one: no copy of the translation.
            if (std::optional<dfg::Dfg> g =
                    dfg::rewriteGraph(raw.dfg, rewrite_options, o))
                optimized_.emplace(raw.withGraph(std::move(*g)));
            report_.passes.push_back(
                {"rewrite", secondsSince(start), o.shape.nodesBefore,
                 o.shape.nodesAfter, o.shape.edgesBefore,
                 o.shape.edgesAfter});
            report_.patternHits = std::move(o.patterns);
            report_.rewriteSweeps = o.sweeps;
            report_.rewriteBudgetExhausted = o.budgetExhausted;
        }
        optimizeRan_ = true;
    }
    return optimized_ ? *optimized_ : *raw_;
}

const planner::PlanResult &
Pipeline::planned()
{
    if (!planned_) {
        COSMIC_ASSERT(platform_.has_value(),
                      "plan stage needs a platform");
        const auto &tr = optimized();
        auto start = std::chrono::steady_clock::now();
        planned_.emplace(
            planner::Planner::plan(tr, *platform_, options_));
        PassStats s{"plan", secondsSince(start), 0, 0, 0, 0};
        s.nodesBefore = s.nodesAfter = tr.dfg.size();
        s.edgesBefore = s.edgesAfter = dfg::edgeCount(tr.dfg);
        report_.passes.push_back(std::move(s));
    }
    return *planned_;
}

const compiler::CompiledKernel &
Pipeline::mapped()
{
    const auto &plan_result = planned();
    if (!mapped_) {
        // The planner compiled the chosen design point while exploring
        // (memory schedule included), so this stage only hands that
        // kernel out; it stays in the report as its own stage.
        const auto &tr = optimized();
        PassStats s{"map", 0.0, 0, 0, 0, 0};
        s.nodesBefore = s.nodesAfter = tr.dfg.size();
        s.edgesBefore = s.edgesAfter = dfg::edgeCount(tr.dfg);
        report_.passes.push_back(std::move(s));
        mapped_ = true;
    }
    return plan_result.kernel;
}

const dfg::Tape &
Pipeline::tape()
{
    if (!tape_) {
        const auto &tr = optimized();
        auto start = std::chrono::steady_clock::now();
        tape_.emplace(tr, accel::quantizeToFixed);
        PassStats s{"tape", secondsSince(start), 0, 0, 0, 0};
        s.nodesBefore = tr.dfg.size();
        s.nodesAfter = tape_->instructionCount();
        s.edgesBefore = s.edgesAfter = dfg::edgeCount(tr.dfg);
        report_.passes.push_back(std::move(s));
    }
    return *tape_;
}

core::BuildResult
Pipeline::finish()
{
    core::BuildResult result;
    result.planResult = planned();
    result.translation = optimized();
    result.flopsPerRecord = static_cast<double>(
        result.translation.dfg.operationCount() +
        result.translation.gradientWords);
    result.bytesPerRecord = 4.0 * result.translation.recordWords;
    result.modelBytes = 4 * result.translation.modelWords;
    return result;
}

dfg::Translation
Pipeline::takeOptimized()
{
    optimized();
    return std::move(optimized_ ? *optimized_ : *raw_);
}

const dfg::Translation &
Pipeline::translationAt(Stage stage)
{
    switch (stage) {
      case Stage::Parse:
        break;
      case Stage::Translate:
        return translated();
      case Stage::Optimize:
      case Stage::Plan:
      case Stage::Map:
      case Stage::Tape:
        return optimized();
    }
    COSMIC_FATAL("no DFG exists at stage " << stageName(stage));
}

BuildCache &
BuildCache::instance()
{
    static BuildCache cache;
    return cache;
}

bool
BuildCache::enabled()
{
    static const bool on = [] {
        const char *env = std::getenv("COSMIC_BUILD_CACHE");
        return !(env && std::string(env) == "0");
    }();
    return on;
}

std::shared_ptr<const FrontendArtifact>
BuildCache::getFrontend(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frontend_.find(key);
    if (it == frontend_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return it->second;
}

std::shared_ptr<const FrontendArtifact>
BuildCache::putFrontend(const std::string &key,
                        std::shared_ptr<const FrontendArtifact> artifact)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = frontend_.emplace(key, std::move(artifact));
    return it->second;
}

std::shared_ptr<const BuildArtifact>
BuildCache::getBuild(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = builds_.find(key);
    if (it == builds_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return it->second;
}

std::shared_ptr<const BuildArtifact>
BuildCache::putBuild(const std::string &key,
                     std::shared_ptr<const BuildArtifact> artifact)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = builds_.emplace(key, std::move(artifact));
    return it->second;
}

BuildCacheStats
BuildCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    BuildCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = static_cast<int64_t>(frontend_.size() + builds_.size());
    return s;
}

void
BuildCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    frontend_.clear();
    builds_.clear();
    hits_ = 0;
    misses_ = 0;
}

std::shared_ptr<const FrontendArtifact>
translateCached(const std::string &source,
                const compiler::CompileOptions &options)
{
    const std::string key = frontendKey(source, options);
    auto &cache = BuildCache::instance();
    if (BuildCache::enabled()) {
        if (auto hit = cache.getFrontend(key))
            return hit;
    }
    Pipeline pipeline(source, options);
    pipeline.optimized();
    auto artifact = std::make_shared<FrontendArtifact>();
    artifact->report = pipeline.report();
    artifact->translation = pipeline.takeOptimized();
    if (BuildCache::enabled())
        return cache.putFrontend(key, std::move(artifact));
    return artifact;
}

std::shared_ptr<const BuildArtifact>
buildCached(const std::string &source,
            const accel::PlatformSpec &platform,
            const compiler::CompileOptions &options)
{
    const std::string key = buildKey(source, platform, options);
    auto &cache = BuildCache::instance();
    if (BuildCache::enabled()) {
        if (auto hit = cache.getBuild(key))
            return hit;
    }
    Pipeline pipeline(source, platform, options);
    auto artifact = std::make_shared<BuildArtifact>();
    artifact->build = pipeline.finish();
    artifact->report = pipeline.report();
    if (BuildCache::enabled())
        return cache.putBuild(key, std::move(artifact));
    return artifact;
}

dfg::Translation
translateSource(const std::string &source,
                const compiler::CompileOptions &options,
                PipelineReport *report)
{
    Pipeline pipeline(source, options);
    pipeline.optimized();
    if (report)
        *report = pipeline.report();
    return pipeline.takeOptimized();
}

uint64_t
buildFingerprint(const std::string &source,
                 const accel::PlatformSpec &platform,
                 const compiler::CompileOptions &options)
{
    return fnv1a(buildKey(source, platform, options));
}

} // namespace cosmic::compile
