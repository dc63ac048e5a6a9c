/**
 * @file
 * The session layer: one tenant's training job behind a stable API.
 *
 * A Session owns everything one job needs and nothing any other job
 * can touch: the job's spec (program + dataset descriptor + cluster
 * shape), its compiled artifacts (the content-hashed BuildCache
 * shares the immutable frontend across tenants that submit the same
 * program), and its training state (the per-session ClusterRuntime
 * execution engine plus the progress snapshot). The split mirrors
 * PopART's Session/devicex design: user-facing prepare/run/progress/
 * cancel up here, device/cluster mechanics in the runtime below.
 *
 * Single-tenant use is a Session wrapped around one ClusterRuntime
 * and is bit-identical to driving the runtime directly — the Session
 * adds observation hooks, never math. Multi-tenant use goes through
 * sys::JobScheduler (scheduler.h), which owns many Sessions and
 * partitions the cluster across them.
 *
 * What a Session holds, by state (DESIGN.md §15):
 *
 *   Queued, Rejected     spec + progress
 *   Preparing, Running   + shared frontend + ClusterRuntime (node
 *                        workers, accelerator pools, aggregation
 *                        engines, dataset partitions, fabric)
 *   Done, Failed,        + TrainingReport; the ClusterRuntime stays
 *   Cancelled            until releaseRuntime(), which the scheduler
 *                        calls as soon as run() returns
 *
 * A directly driven Session keeps its runtime after run(), so callers
 * can still inspect it (bufferPool(), topology()).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "system/cluster_runtime.h"

namespace cosmic::sys {

/** Lifecycle of one training job. */
enum class JobState
{
    /** Accepted, waiting for admission (scheduler queue). */
    Queued,
    /** Compiling the program / building the cluster. */
    Preparing,
    /** Training. */
    Running,
    /** Finished; the report holds the final model. */
    Done,
    /** Compile or runtime error; progress carries the message. */
    Failed,
    /** Cancelled before or during training. */
    Cancelled,
    /** Refused at admission (queue full or impossible resources). */
    Rejected,
};

const char *jobStateName(JobState state);

/**
 * One job's submission: the DSL program, the dataset descriptor, and
 * the cluster shape to train with. The descriptor is a Table 1
 * workload family (it drives synthetic dataset/reference generation
 * and the model layout); `source` optionally ships a client-provided
 * DSL program, which must produce the descriptor's model width —
 * empty means "the descriptor's own program at `scale`".
 */
struct JobSpec
{
    /** Client-facing label (defaults to the workload name). */
    std::string name;
    /** Dataset/reference descriptor: a Table 1 workload name. */
    std::string workload = "stock";
    /** Optional DSL program text (empty = workload's program). */
    std::string source;
    /** Dimension scale-down factor for the descriptor. */
    double scale = 16.0;
    int epochs = 2;
    /** Cluster shape + training knobs for this job's engine. */
    ClusterConfig cluster;

    /**
     * Wire form: `key=value` header lines, then an optional line
     * `---` followed by the raw DSL source to end-of-text (the
     * format SubmitJob frames carry; see DESIGN.md §15).
     */
    std::string toText() const;
    /** Parses toText()'s format. Unknown keys and malformed values
     *  throw CosmicError — a front door must reject, not guess. */
    static JobSpec fromText(const std::string &text);
};

/** A point-in-time snapshot of one job's life. */
struct JobProgress
{
    JobState state = JobState::Queued;
    int epochsDone = 0;
    int totalEpochs = 0;
    /** Latest held-out epoch loss (NaN until the first epoch). */
    double lastLoss = 0.0;
    /** Iterations executed so far. */
    uint64_t iterations = 0;
    /** Submission-to-admission wait (stamped by the scheduler). */
    double queueWaitSec = 0.0;
    /** Failure message when state == Failed. */
    std::string error;
};

/**
 * One job's session: prepare (compile), run (train), progress,
 * cancel. Thread-compatible: run() executes on one thread while
 * progress()/cancel() may be called from any other.
 */
class Session
{
  public:
    using ProgressFn = std::function<void(const JobProgress &)>;

    explicit Session(JobSpec spec);
    ~Session();

    /** Streams every progress transition (state changes and epoch
     *  completions) to @p sink. Install before run(). */
    void setProgressSink(ProgressFn sink);

    /**
     * Compiles the job's program through the shared BuildCache and
     * builds the per-session execution engine. Idempotent. Throws
     * CosmicError (and records Failed) on an unknown descriptor, a
     * program whose model width contradicts the descriptor, or an
     * invalid cluster configuration.
     */
    void prepare();

    /**
     * Trains to completion (prepare()s first if needed); returns the
     * report. Rethrows failures after recording them in progress().
     * A concurrent cancel() stops the run at the next segment
     * boundary (every iteration under the barrier protocol) and marks
     * the report cancelled.
     */
    const TrainingReport &run();

    /** Requests cooperative cancellation (safe from any thread). */
    void cancel();

    /** True once cancel() has been requested (the run may still be
     *  draining toward its next iteration boundary). */
    bool cancelRequested() const { return control_.cancel.load(); }

    JobProgress progress() const;
    const JobSpec &spec() const { return spec_; }

    /** The compiled frontend (valid after prepare()); shared with
     *  every other session that submitted the same program. */
    const dfg::Translation &translation() const;

    /** The finished run's report (valid once run() returned). */
    const TrainingReport &report() const { return report_; }

    /** The job's training engine, valid from prepare() until
     *  releaseRuntime() — topology introspection; training goes
     *  through run(). Asserts outside that window. */
    const ClusterRuntime &runtime() const;

    /**
     * Tears down the job's execution engine: its threads, partitions
     * and fabric. Call from the thread that ran run(), once it has
     * returned (Done, Failed or Cancelled). spec(), progress(),
     * report() and translation() stay valid; runtime() and prepare()
     * assert afterwards, so the job can never train again.
     */
    void releaseRuntime();

    /** Scheduler hook: stamps the queue wait into progress(). */
    void setQueueWait(double seconds);

    /** Scheduler hook: refuses the job at admission with @p reason
     *  (queue full, impossible resources, invalid config). */
    void reject(const std::string &reason);

  private:
    void transition(JobState state);
    void emit(const JobProgress &snapshot);

    JobSpec spec_;
    std::shared_ptr<const compile::FrontendArtifact> frontend_;
    std::unique_ptr<ClusterRuntime> runtime_;
    /** Set by releaseRuntime(): the job can never prepare again. */
    bool released_ = false;
    RunControl control_;
    TrainingReport report_;
    ProgressFn sink_;

    mutable std::mutex mu_;
    JobProgress progress_;
};

} // namespace cosmic::sys
