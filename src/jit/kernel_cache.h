/**
 * @file
 * Process-wide cache of dlopen'ed native tape kernels.
 *
 * The kernel cache sits between the TapeExecutor and the system
 * toolchain. An acquire() emits the C source for one tape,
 * content-hashes it together with the resolved compiler command, and
 * resolves it through three tiers:
 *
 *  1. in-memory: the shared object is already loaded in this process —
 *     executors share one NativeTapeKernel (a hit);
 *  2. on-disk: `<cache dir>/cosmic-jit-<hash>.so` survives from an
 *     earlier process — dlopen it, skip the toolchain entirely (a disk
 *     hit; warm runs never fork a compiler);
 *  3. cold: write the source next to the cache entry, invoke the
 *     C compiler (`cc -O2 -fPIC -shared`, plus the bit-exactness
 *     flags — see codegen.h), publish the object with an atomic
 *     rename so concurrent processes race benignly, then dlopen it
 *     (a miss, with compile time accounted).
 *
 * Every failure — no toolchain, compile error, dlopen/dlsym failure,
 * unsupported quantizer — degrades gracefully: acquire() returns null,
 * the fallback counter increments, the reason is logged to stderr once
 * per distinct reason, and the failure is memoized so the hot path
 * does not retry the toolchain per batch. The executor then runs the
 * interpreter tape, which is always available.
 *
 * Environment knobs (read fresh on every acquire, so tests can vary
 * them): COSMIC_JIT_CC overrides the compiler command (default "cc");
 * COSMIC_JIT_CACHE_DIR overrides the on-disk cache directory (default
 * <tmp>/cosmic-jit-cache-<uid>).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dfg/tape.h"

namespace cosmic::jit {

/** A loaded native kernel; owns its dlopen handle. */
struct NativeTapeKernel
{
    /** Same contract as TapeExecutor::runBatch — accumulates into a
     *  caller-zeroed gradient buffer, record order. */
    using BatchFn = void (*)(const double *records, long long n,
                             const double *model, double *grad_accum);
    /** Same contract as TapeExecutor::sgdSweep. */
    using SweepFn = void (*)(const double *records, long long n,
                             double *model, double lr);

    BatchFn runBatch = nullptr;
    /** Null when the tape has no sweep form (gradientWords !=
     *  modelWords). */
    SweepFn sgdSweep = nullptr;
    /** Content hash: emitted source + compiler command line. */
    uint64_t key = 0;

    NativeTapeKernel() = default;
    NativeTapeKernel(const NativeTapeKernel &) = delete;
    NativeTapeKernel &operator=(const NativeTapeKernel &) = delete;
    ~NativeTapeKernel();

    void *handle = nullptr;
};

/** Counters behind BuildCacheStats' jit* fields. */
struct JitStats
{
    /** acquire() resolved without running the toolchain (in-memory or
     *  on-disk). */
    int64_t hits = 0;
    /** Subset of hits served by dlopen'ing a cached .so from disk. */
    int64_t diskHits = 0;
    /** Cold compiles (toolchain invoked successfully). */
    int64_t misses = 0;
    /** Total wall time spent inside the toolchain. */
    double compileMs = 0.0;
    /** Interpreter-tape degradations: JIT requested but unavailable. */
    int64_t fallbacks = 0;
};

class KernelCache
{
  public:
    static KernelCache &instance();

    /**
     * Resolves the native kernel for @p tape. Null on fallback
     * (counted, reason logged once per distinct reason); never throws
     * for toolchain problems.
     */
    std::shared_ptr<const NativeTapeKernel> acquire(const dfg::Tape &tape);

    JitStats stats() const;

    /**
     * Drops loaded kernels, failure memos and counters (test hook).
     * On-disk .so files persist — a subsequent acquire() becomes a
     * disk hit. Callers must not hold executors over live kernels.
     */
    void clearInMemory();

    /** Resolved compiler command: COSMIC_JIT_CC or "cc". */
    static std::string compilerCommand();

    /** Resolved on-disk cache directory (not created until needed). */
    static std::string cacheDir();

    /**
     * Whether the resolved compiler can produce a loadable shared
     * object (probed with a trivial source, memoized per command).
     */
    static bool toolchainAvailable();

    /**
     * Largest tape (in instructions) the JIT will compile; longer
     * tapes fall back to the interpreter by design (compile time
     * would dwarf the dispatch savings).
     */
    static int64_t maxTapeInstructions();

  private:
    KernelCache() = default;

    std::shared_ptr<const NativeTapeKernel>
    fallback(std::unique_lock<std::mutex> &lock, const std::string &reason);

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::shared_ptr<const NativeTapeKernel>>
        kernels_;
    /** Keys whose compile already failed: fall back fast, no retry. */
    std::unordered_set<uint64_t> failed_;
    /** Reasons already logged (log once per distinct reason). */
    std::unordered_set<std::string> logged_;
    JitStats stats_;
};

/**
 * Resolves a backend choice against the COSMIC_TAPE_JIT override: a
 * set variable always wins (strict "0"/"1", CosmicError otherwise);
 * unset follows the choice (Auto = interpreter).
 */
bool jitRequested(dfg::TapeBackend backend);

} // namespace cosmic::jit
