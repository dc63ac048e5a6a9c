/**
 * @file
 * Deterministic fault injection for the scale-out runtime.
 *
 * The paper's system software (Sec. 4.3) assumes a healthy commodity
 * cluster; this subsystem is how we *prove* the runtime no longer
 * does. A FaultPlan is a seeded, fully explicit schedule of failures —
 * node crash-at-iteration, per-link message drop/delay/duplication,
 * and straggler slowdowns — and a FaultInjector is the thread-safe
 * execution of one plan: Channel::send() consults it on the wire path,
 * TrainingNode consults it before computing, and ClusterRuntime
 * consults it when deciding which nodes still run. Every fired fault
 * is counted, so a chaos test can assert that the recovery counters in
 * the TrainingReport exactly match the injected plan.
 *
 * The hooks are zero-cost when disabled: a runtime with an empty plan
 * installs no injector, every hook site is a single null-pointer
 * check, and the training trajectory is bit-for-bit the no-fault
 * code path.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace cosmic::sys {

/** Node @p node stops participating from iteration @p atIteration. */
struct CrashFault
{
    int node = -1;
    uint64_t atIteration = 0;
};

/** What a link fault does to the one message it fires on. */
enum class LinkFaultKind
{
    /** The wire eats the message. */
    Drop,
    /** Delivery is delayed by delayMs (sender-side stall). */
    Delay,
    /** The message is delivered twice. */
    Duplicate,
};

/**
 * One scheduled link fault. Fires at most once, on the first message
 * matching (from, to, iteration); -1 wildcards an endpoint.
 */
struct LinkFault
{
    LinkFaultKind kind = LinkFaultKind::Drop;
    int from = -1;
    int to = -1;
    uint64_t iteration = 0;
    /** Delay faults only. */
    double delayMs = 0.0;
};

/** Node @p node stalls @p delayMs before computing, for a range of
 *  iterations (inclusive). */
struct StragglerFault
{
    int node = -1;
    uint64_t firstIteration = 0;
    uint64_t lastIteration = 0;
    double delayMs = 0.0;
};

/**
 * A deterministic schedule of failures. Build one explicitly with the
 * chainable builders, or draw a seeded random plan with randomized().
 * Plans are immutable once handed to a FaultInjector, so concurrent
 * queries need no locks.
 */
class FaultPlan
{
  public:
    /** Node @p node dies (permanently) at iteration @p at_iteration. */
    FaultPlan &crash(int node, uint64_t at_iteration);
    /** Drops the first @p from -> @p to message of @p iteration. */
    FaultPlan &drop(int from, int to, uint64_t iteration);
    /** Delays that message by @p delay_ms instead. */
    FaultPlan &delay(int from, int to, uint64_t iteration,
                     double delay_ms);
    /** Duplicates that message instead. */
    FaultPlan &duplicate(int from, int to, uint64_t iteration);
    /** Node @p node stalls @p delay_ms before computing in iterations
     *  [@p first, @p last]. */
    FaultPlan &straggle(int node, uint64_t first, uint64_t last,
                        double delay_ms);

    bool
    empty() const
    {
        return crashes_.empty() && links_.empty() &&
               stragglers_.empty();
    }

    /** True once @p node's scheduled crash has fired by @p iteration. */
    bool crashed(int node, uint64_t iteration) const;

    /** Straggler stall for (@p node, @p iteration); 0 when none. */
    double stragglerDelayMs(int node, uint64_t iteration) const;

    const std::vector<CrashFault> &crashes() const { return crashes_; }
    const std::vector<LinkFault> &linkFaults() const { return links_; }
    const std::vector<StragglerFault> &
    stragglers() const
    {
        return stragglers_;
    }

    /**
     * A seeded chaos plan for an @p nodes-node cluster running
     * @p iterations iterations: possibly one non-master crash, a few
     * link faults on random links, and one short straggler window.
     * The same seed always yields the same plan (the chaos CI loop
     * sweeps seeds via COSMIC_FAULT_SEED).
     */
    static FaultPlan randomized(uint64_t seed, int nodes,
                                uint64_t iterations);

  private:
    std::vector<CrashFault> crashes_;
    std::vector<LinkFault> links_;
    std::vector<StragglerFault> stragglers_;
};

/**
 * Timeout/retry/eviction policy of the failure-tolerant protocol.
 * Activated when a FaultPlan is installed or `enabled` is set; with
 * the policy inactive every receive is the original blocking call.
 */
struct FaultToleranceConfig
{
    /** Force the tolerant protocol on even with an empty plan. */
    bool enabled = false;
    /** First receiveFor() window at a group Sigma. The master waits
     *  2x (it sits behind one timeout level), broadcast waiters 3x. */
    double receiveTimeoutMs = 150.0;
    /** Retries after the first timeout window (exponential backoff). */
    int maxRetries = 2;
    /** Multiplier applied to the window after each timeout. */
    double backoffFactor = 2.0;
    /** Consecutive iterations a node must miss before the Director
     *  evicts it and repairs the topology (straggler tolerance). */
    int evictAfterMisses = 2;
};

/** Recovery/injection counters surfaced in the TrainingReport. */
struct RecoveryStats
{
    /** receiveFor() windows that expired (mechanism counter; timing
     *  sensitive, so tests assert lower bounds only). */
    uint64_t receiveTimeouts = 0;
    /** Expected partial updates a Sigma gave up waiting for. */
    uint64_t partialsMissed = 0;
    /** Model broadcasts a node gave up waiting for. */
    uint64_t broadcastsMissed = 0;
    /** Copies of an already accepted partial rejected by sequence
     *  dedup, whether they landed in its round or a later one. */
    uint64_t duplicatesDropped = 0;
    /** Other prior-round messages discarded by sequence
     *  reconciliation. */
    uint64_t staleDropped = 0;
    /** Payloads rejected because their word count disagreed with the
     *  model width (a malformed or mis-routed wire message). */
    uint64_t malformedDropped = 0;
    /** Injected link faults that fired, by kind. */
    uint64_t messagesDropped = 0;
    uint64_t messagesDelayed = 0;
    uint64_t messagesDuplicated = 0;
    /** Injected straggler stalls served. */
    uint64_t stragglerStalls = 0;
    /** Nodes the Director evicted after repeated misses. */
    uint64_t nodesEvicted = 0;
    /** Deltas promoted to GroupSigma during topology repair. */
    uint64_t sigmaPromotions = 0;
    /** Topology repair rounds performed. */
    uint64_t topologyRepairs = 0;

    RecoveryStats &operator+=(const RecoveryStats &o);
};

/**
 * Thread-safe executor of one FaultPlan. Link faults fire at most
 * once each (claimed with an atomic flag), and every fired fault is
 * counted so tests can reconcile counters against the plan.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /** What the wire does to one message (Channel::send hook). */
    struct SendAction
    {
        bool drop = false;
        bool duplicate = false;
        double delayMs = 0.0;
    };

    /** Resolves (and claims) the link faults matching one send. */
    SendAction onSend(int from, int to, uint64_t seq);

    /** True when @p node is dead at iteration @p seq. */
    bool
    crashed(int node, uint64_t seq) const
    {
        return plan_.crashed(node, seq);
    }

    /** Straggler stall for this compute, counting fired stalls. */
    double stragglerDelayMs(int node, uint64_t seq);

    uint64_t messagesDropped() const { return dropped_.load(); }
    uint64_t messagesDelayed() const { return delayed_.load(); }
    uint64_t messagesDuplicated() const { return duplicated_.load(); }
    uint64_t stragglerStalls() const { return stalls_.load(); }

    const FaultPlan &plan() const { return plan_; }

  private:
    FaultPlan plan_;
    /** One claim flag per plan link fault (fire-once semantics). */
    std::unique_ptr<std::atomic<bool>[]> linkFired_;
    std::atomic<uint64_t> dropped_{0};
    std::atomic<uint64_t> delayed_{0};
    std::atomic<uint64_t> duplicated_{0};
    std::atomic<uint64_t> stalls_{0};
};

} // namespace cosmic::sys
