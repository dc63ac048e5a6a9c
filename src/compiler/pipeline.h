/**
 * @file
 * The compile pipeline: the single build path of the stack.
 *
 * Compilation is a sequence of named, individually-timed stages over
 * typed artifacts:
 *
 *   parse      DSL source            -> ParsedProgram
 *   translate  ParsedProgram         -> dfg::Translation (raw)
 *   optimize   Translation           -> Translation (the rewrite
 *              patterns of dfg/rewrite.h run to fixpoint — gated by
 *              compiler::CompileOptions, default on)
 *   plan       Translation           -> planner::PlanResult
 *   map        Translation + Plan    -> compiler::CompiledKernel (the
 *              kernel the planner compiled for the chosen point)
 *   tape       Translation           -> dfg::Tape (hot-path kernel)
 *
 * `Pipeline` exposes each stage lazily — asking for a later artifact
 * runs (and times) everything before it exactly once — and records a
 * PipelineReport: per-stage wall time plus node/edge deltas for the
 * DFG passes (`cosmicc --dump-passes` prints it, `--dump-ir=<stage>`
 * exports the DFG at a stage boundary as DOT).
 *
 * The free functions `translateCached` / `buildCached` are the cached
 * entry points everything above the compiler (core::CosmicStack, the
 * cluster runtime, benches) funnels through: an in-memory,
 * mutex-protected cache keyed by the *content* of (DSL source,
 * platform, options) returns the same immutable artifact for repeated
 * builds of identical inputs. `COSMIC_BUILD_CACHE=0` disables it.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/platform.h"
#include "compiler/kernel.h"
#include "core/cosmic.h"
#include "dfg/rewrite.h"
#include "dfg/tape.h"
#include "dfg/translator.h"
#include "dsl/program.h"
#include "planner/planner.h"

namespace cosmic::compile {

/** Pipeline stage boundaries (artifact after the named stage). */
enum class Stage
{
    Parse,
    Translate,
    Optimize,
    Plan,
    Map,
    Tape,
};

const char *stageName(Stage stage);
/** Parses a stage name ("translate", "optimize", ...); false if unknown. */
bool stageFromName(const std::string &name, Stage &out);

/** Timing + IR deltas of one pipeline pass/stage. */
struct PassStats
{
    std::string name;
    double seconds = 0.0;
    /** DFG shape around the pass; equal on non-transforming stages. */
    int64_t nodesBefore = 0;
    int64_t nodesAfter = 0;
    int64_t edgesBefore = 0;
    int64_t edgesAfter = 0;
};

/** What one build did: every pass that ran, in order. */
struct PipelineReport
{
    std::vector<PassStats> passes;
    /**
     * Per-pattern hit counters of the optimize stage (one entry per
     * enabled pattern, registry order); empty when it ran no
     * patterns.
     */
    std::vector<dfg::PatternStats> patternHits;
    /** Fixpoint sweeps the rewrite engine executed (0 = no rewrite
     *  stage). */
    int rewriteSweeps = 0;
    /** True when the sweep budget stopped a still-rewriting run. */
    bool rewriteBudgetExhausted = false;
    /** FNV-1a fingerprint of (source, platform, options). */
    uint64_t contentHash = 0;
    /**
     * Reserved for tools that copy a report after a cache lookup; a
     * Pipeline itself always records false. Cached artifacts are
     * immutable and shared, so hit observability lives in
     * BuildCache::stats(), not here.
     */
    bool cacheHit = false;

    double totalSeconds() const;
    const PassStats *pass(const std::string &name) const;
    /** DFG-transforming passes only (the "rewrite" stage). */
    int64_t dfgPassCount() const;
    /** Human-readable per-pass table (for --dump-passes). */
    std::string table() const;
};

/** The parse-stage artifact. */
struct ParsedProgram
{
    std::string source;
    dsl::Program program;
};

/**
 * One build, stage by stage. Construct with source (+ platform for the
 * backend stages), then ask for the artifact you need; earlier stages
 * run lazily, exactly once, and are timed into report(). The Pipeline
 * owns its artifacts — references stay valid for its lifetime.
 */
class Pipeline
{
  public:
    /** Frontend-only pipeline (parse/translate/optimize/tape). */
    explicit Pipeline(std::string source,
                      compiler::CompileOptions options = {});
    /** Full pipeline through plan/map for @p platform. */
    Pipeline(std::string source, accel::PlatformSpec platform,
             compiler::CompileOptions options = {});

    const ParsedProgram &parsed();
    /** Raw translation (before DFG passes). */
    const dfg::Translation &translated();
    /** Translation after the enabled DFG passes. */
    const dfg::Translation &optimized();
    const planner::PlanResult &planned();
    const compiler::CompiledKernel &mapped();
    /** Lowered hot-path tape (quantized), over the optimized DFG. */
    const dfg::Tape &tape();

    /** Runs through plan and packages a core::BuildResult. */
    core::BuildResult finish();

    /**
     * Moves the optimized translation out (for cache internals); the
     * pipeline must not be used afterwards.
     */
    dfg::Translation takeOptimized();

    /** The DFG at a stage boundary (Translate or later). */
    const dfg::Translation &translationAt(Stage stage);

    const PipelineReport &report() const { return report_; }
    const compiler::CompileOptions &options() const { return options_; }
    bool hasPlatform() const { return platform_.has_value(); }

  private:
    std::string source_;
    std::optional<accel::PlatformSpec> platform_;
    compiler::CompileOptions options_;

    std::optional<ParsedProgram> parsed_;
    std::optional<dfg::Translation> raw_;
    /** The optimize stage has run. */
    bool optimizeRan_ = false;
    /** Engaged only when the rewrite changed the graph; otherwise the
     *  raw translation is the optimized one. */
    std::optional<dfg::Translation> optimized_;
    std::optional<planner::PlanResult> planned_;
    /** The map stage has been recorded in report_. */
    bool mapped_ = false;
    std::optional<dfg::Tape> tape_;

    PipelineReport report_;
};

/** Immutable frontend artifact shared through the cache. */
struct FrontendArtifact
{
    dfg::Translation translation;
    PipelineReport report;
};

/** Immutable full-build artifact shared through the cache. */
struct BuildArtifact
{
    core::BuildResult build;
    PipelineReport report;
};

struct BuildCacheStats
{
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;
};

/**
 * Process-wide content-addressed build cache. Thread-safe: lookups and
 * inserts hold a mutex, artifacts are immutable and shared by
 * shared_ptr, and a lost insert race just adopts the winner's entry.
 */
class BuildCache
{
  public:
    static BuildCache &instance();
    /** False when COSMIC_BUILD_CACHE=0 (checked once per process). */
    static bool enabled();

    std::shared_ptr<const FrontendArtifact>
    getFrontend(const std::string &key);
    std::shared_ptr<const FrontendArtifact>
    putFrontend(const std::string &key,
                std::shared_ptr<const FrontendArtifact> artifact);

    std::shared_ptr<const BuildArtifact>
    getBuild(const std::string &key);
    std::shared_ptr<const BuildArtifact>
    putBuild(const std::string &key,
             std::shared_ptr<const BuildArtifact> artifact);

    BuildCacheStats stats() const;
    void clear();

  private:
    BuildCache() = default;

    mutable std::mutex mu_;
    std::unordered_map<std::string,
                       std::shared_ptr<const FrontendArtifact>>
        frontend_;
    std::unordered_map<std::string, std::shared_ptr<const BuildArtifact>>
        builds_;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
};

/**
 * Cached frontend: parse + translate + DFG passes for @p source. Only
 * the pass flags of @p options enter the key (backend knobs do not
 * change the frontend artifact).
 */
std::shared_ptr<const FrontendArtifact>
translateCached(const std::string &source,
                const compiler::CompileOptions &options = {});

/** Cached full build for (source, platform, options). */
std::shared_ptr<const BuildArtifact>
buildCached(const std::string &source,
            const accel::PlatformSpec &platform,
            const compiler::CompileOptions &options = {});

/**
 * Uncached by-value frontend convenience (tests, one-shot tools).
 * @param report Optional: receives the pipeline report.
 */
dfg::Translation
translateSource(const std::string &source,
                const compiler::CompileOptions &options = {},
                PipelineReport *report = nullptr);

/** Content fingerprint (FNV-1a) of a full-build cache key. */
uint64_t buildFingerprint(const std::string &source,
                          const accel::PlatformSpec &platform,
                          const compiler::CompileOptions &options);

} // namespace cosmic::compile
