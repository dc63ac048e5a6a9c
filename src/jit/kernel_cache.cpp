#include "jit/kernel_cache.h"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "jit/codegen.h"

namespace cosmic::jit {

namespace fs = std::filesystem;

namespace {

/** Tapes beyond this fall back to the interpreter: emitted source
 *  grows linearly with the tape and the toolchain's compile time with
 *  the source, so past ~16k instructions (half a minute of cc even
 *  with the chunked emission) the compile would dwarf any dispatch
 *  savings — and those giant tapes amortize dispatch well anyway. */
constexpr int64_t kMaxJitInstrs = 16384;

/** Flags behind every kernel compile. -ffp-contract=off forbids FMA
 *  contraction (the interpreter build runs uncontracted too);
 *  -fno-builtin-exp/-log stop compile-time constant folding of the
 *  two libm calls whose folded (correctly-rounded) value can differ
 *  from the runtime libm the interpreter uses. sqrt/fabs/llround fold
 *  exactly and stay builtins. -fno-math-errno only drops errno
 *  bookkeeping (bit-identical results, inlinable sqrt).
 *  -funroll-loops is a pure control-flow transform (the lane loops
 *  keep their per-element operation order) and is worth ~20% on the
 *  wide regression kernels. */
constexpr char kBaseFlags[] =
    "-O2 -funroll-loops -fPIC -shared -ffp-contract=off "
    "-fno-builtin-exp -fno-builtin-log -fno-math-errno";

uint64_t
fnv1a64(std::string_view s, uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.flush();
    return out.good();
}

/** First line of the compiler's stderr, for the fallback log. */
std::string
firstLine(const fs::path &path)
{
    std::ifstream in(path);
    std::string l;
    std::getline(in, l);
    return l;
}

struct CompileResult
{
    bool ok = false;
    std::string error;
};

/**
 * Runs `cc <flags> -o so src -lm`, trying -march=native first (the
 * library itself is built with it) and plain flags as a fallback for
 * compilers that reject it.
 */
CompileResult
runToolchain(const std::string &cc, const fs::path &src, const fs::path &so)
{
    const fs::path err = so.string() + ".err";
    for (const char *arch : {" -march=native", ""}) {
        const std::string cmd = cc + " " + kBaseFlags + arch + " -o '" +
                                so.string() + "' '" + src.string() +
                                "' -lm 2>'" + err.string() + "'";
        if (std::system(cmd.c_str()) == 0) {
            std::error_code ec;
            fs::remove(err, ec);
            return {true, {}};
        }
    }
    CompileResult res{false, firstLine(err)};
    if (res.error.empty())
        res.error = "compiler exited nonzero";
    std::error_code ec;
    fs::remove(err, ec);
    return res;
}

/** dlopen + dlsym; null shared_ptr (with @p reason set) on failure. */
std::shared_ptr<NativeTapeKernel>
loadKernel(const fs::path &so, bool want_sweep, uint64_t key,
           std::string &reason)
{
    void *handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle) {
        const char *e = dlerror();
        reason = std::string("dlopen failed: ") + (e ? e : "unknown");
        return nullptr;
    }
    auto kernel = std::make_shared<NativeTapeKernel>();
    kernel->handle = handle;
    kernel->key = key;
    kernel->runBatch = reinterpret_cast<NativeTapeKernel::BatchFn>(
        dlsym(handle, kBatchSymbol));
    if (want_sweep)
        kernel->sgdSweep = reinterpret_cast<NativeTapeKernel::SweepFn>(
            dlsym(handle, kSweepSymbol));
    if (!kernel->runBatch || (want_sweep && !kernel->sgdSweep)) {
        reason = "dlsym: kernel entry point missing";
        return nullptr; // dtor dlcloses
    }
    return kernel;
}

} // namespace

NativeTapeKernel::~NativeTapeKernel()
{
    if (handle)
        dlclose(handle);
}

KernelCache &
KernelCache::instance()
{
    static KernelCache cache;
    return cache;
}

std::string
KernelCache::compilerCommand()
{
    const char *env = std::getenv("COSMIC_JIT_CC");
    return env && *env ? env : "cc";
}

std::string
KernelCache::cacheDir()
{
    if (const char *env = std::getenv("COSMIC_JIT_CACHE_DIR"); env && *env)
        return env;
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec)
        tmp = "/tmp";
    return (tmp / ("cosmic-jit-cache-" + std::to_string(getuid()))).string();
}

int64_t
KernelCache::maxTapeInstructions()
{
    return kMaxJitInstrs;
}

bool
KernelCache::toolchainAvailable()
{
    static std::mutex mu;
    static std::unordered_map<std::string, bool> probed;
    const std::string cc = compilerCommand();
    std::lock_guard lock(mu);
    if (auto it = probed.find(cc); it != probed.end())
        return it->second;
    bool ok = false;
    try {
        const fs::path dir = cacheDir();
        fs::create_directories(dir);
        const fs::path src =
            dir / ("probe-" + std::to_string(getpid()) + ".c");
        const fs::path so = src.string() + ".so";
        if (writeFile(src, "int cosmic_jit_probe;\n"))
            ok = runToolchain(cc, src, so).ok;
        std::error_code ec;
        fs::remove(src, ec);
        fs::remove(so, ec);
    } catch (const std::exception &) {
        ok = false;
    }
    probed.emplace(cc, ok);
    return ok;
}

std::shared_ptr<const NativeTapeKernel>
KernelCache::fallback(std::unique_lock<std::mutex> &lock,
                      const std::string &reason)
{
    (void)lock; // must be held: guards stats_ and logged_
    ++stats_.fallbacks;
    if (logged_.insert(reason).second)
        std::fprintf(stderr,
                     "cosmic-jit: %s; falling back to interpreter tape\n",
                     reason.c_str());
    return nullptr;
}

std::shared_ptr<const NativeTapeKernel>
KernelCache::acquire(const dfg::Tape &tape)
{
    std::unique_lock lock(mu_);
    if (tape.quantizer() && tape.quantizer() != &accel::quantizeToFixed)
        return fallback(lock, "unsupported quantizer hook");
    if (tape.instructionCount() > kMaxJitInstrs)
        return fallback(lock,
                        "tape too large for jit (" +
                            std::to_string(tape.instructionCount()) +
                            " instructions)");

    const KernelSource src = emitKernelSource(tape);
    const std::string cc = compilerCommand();
    const uint64_t key = fnv1a64(src.text, fnv1a64(cc) ^ fnv1a64(kBaseFlags));

    if (auto it = kernels_.find(key); it != kernels_.end()) {
        ++stats_.hits;
        return it->second;
    }
    if (failed_.contains(key)) {
        ++stats_.fallbacks;
        return nullptr; // reason already logged on first failure
    }

    std::string reason;
    std::shared_ptr<NativeTapeKernel> kernel;
    try {
        const fs::path dir = cacheDir();
        fs::create_directories(dir);
        const fs::path so = dir / ("cosmic-jit-" + hex(key) + ".so");
        if (fs::exists(so)) {
            kernel = loadKernel(so, src.hasSweep, key, reason);
            if (kernel) {
                ++stats_.hits;
                ++stats_.diskHits;
            }
        }
        if (!kernel && reason.empty()) {
            const fs::path csrc = dir / ("cosmic-jit-" + hex(key) + ".c");
            const fs::path tmp =
                so.string() + ".tmp." + std::to_string(getpid());
            if (!writeFile(csrc, src.text)) {
                reason = "cannot write kernel source under " + dir.string();
            } else {
                const auto t0 = std::chrono::steady_clock::now();
                const CompileResult cr = runToolchain(cc, csrc, tmp);
                const auto t1 = std::chrono::steady_clock::now();
                if (!cr.ok) {
                    reason = "compile with '" + cc + "' failed: " + cr.error;
                } else {
                    fs::rename(tmp, so); // atomic publish
                    kernel = loadKernel(so, src.hasSweep, key, reason);
                    if (kernel) {
                        ++stats_.misses;
                        stats_.compileMs +=
                            std::chrono::duration<double, std::milli>(t1 - t0)
                                .count();
                    }
                }
            }
        }
    } catch (const std::exception &e) {
        reason = std::string("kernel cache error: ") + e.what();
        kernel = nullptr;
    }

    if (!kernel) {
        failed_.insert(key);
        return fallback(lock, reason.empty() ? "kernel load failed" : reason);
    }
    kernels_.emplace(key, kernel);
    return kernel;
}

JitStats
KernelCache::stats() const
{
    std::lock_guard lock(mu_);
    return stats_;
}

void
KernelCache::clearInMemory()
{
    std::lock_guard lock(mu_);
    kernels_.clear();
    failed_.clear();
    logged_.clear();
    stats_ = JitStats{};
}

bool
jitRequested(dfg::TapeBackend backend)
{
    if (const char *env = std::getenv("COSMIC_TAPE_JIT"))
        return dfg::parseTapeJitEnv(env);
    return backend == dfg::TapeBackend::Jit;
}

} // namespace cosmic::jit
