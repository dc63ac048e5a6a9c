/**
 * @file
 * In-memory span tracer for the benchmark's traced runs.
 *
 * Spans are taken by the benchmark itself around public calls into
 * the stack (nothing inside the library is instrumented). Each span
 * has a name, start, end, parent and run id; they stay in memory and
 * are written out once, at exit, as Chrome trace-event JSON. A
 * disabled tracer records nothing, so the untraced run pays one
 * branch per scope.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    /** Groups the spans of one unit of work (an iteration, a compile,
     *  a job). */
    uint64_t runId = 0;
    /** Small per-thread number (Chrome "tid"). */
    int tid = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Nanoseconds since the tracer was built. */
    int64_t now() const;

    /** Opens a span under this thread's innermost open span; returns
     *  its index (-1 when disabled). */
    int begin(const std::string &name, uint64_t runId);
    /** Closes span @p index (this thread's innermost open span). */
    void end(int index);

    /**
     * Records an already-finished span under @p parent — used for
     * phases the benchmark observes rather than calls (a job's
     * Preparing -> Running -> Done transitions seen by the client).
     */
    void record(const std::string &name, int64_t startNs, int64_t endNs,
                int parent, uint64_t runId);

    std::vector<Span> spans() const;

    /** Writes every span as Chrome trace-event JSON ("X" events). */
    void writeChrome(const std::string &path) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              uint64_t runId = 0)
            : tracer_(tracer), index_(tracer.begin(name, runId))
        {
        }
        ~Scope() { tracer_.end(index_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return index_; }

      private:
        Tracer &tracer_;
        int index_;
    };

  private:
    int threadId();

    const bool enabled_;
    const Clock::time_point origin_;

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::thread::id, int> tids_;
};

/** What the span tree says about where the traced wall time went. */
struct TraceSummary
{
    /** Total duration per span name (ms). */
    std::map<std::string, double> totalMs;
    /** Summed duration of the root spans (ms). */
    double rootWallMs = 0.0;
    /** Summed self time of the root spans: wall no layer span
     *  covers (ms). */
    double unattributedMs = 0.0;
    /** Largest |sum of self times in a root's tree - root duration|
     *  over all roots (ms). Zero when every child nests inside its
     *  parent and siblings never overlap. */
    double maxReconcileErrorMs = 0.0;
};

TraceSummary summarize(const std::vector<Span> &spans);

} // namespace perfbench
