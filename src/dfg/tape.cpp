#include "dfg/tape.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "dfg/interp.h"
#include "jit/kernel_cache.h"

namespace cosmic::dfg {

namespace {

/** Unit dst stride and no operand reading a slot the segment writes:
 *  the segment's operations are independent, so a vectorized loop
 *  computes exactly what the in-order loop does. */
bool
isFlat(const TapeSegment &seg)
{
    if (seg.dstStride != 1)
        return false;
    const int64_t n = seg.count;
    const int64_t dst = seg.dst;
    const int32_t operand[3] = {seg.a, seg.b, seg.c};
    const int32_t stride[3] = {seg.aStride, seg.bStride, seg.cStride};
    for (int k = 0; k < 3; ++k) {
        const int64_t first = operand[k];
        const int64_t last = first + (n - 1) * stride[k];
        const int64_t lo = std::min(first, last);
        const int64_t hi = std::max(first, last) + 1;
        if (lo < dst + n && dst < hi)
            return false;
    }
    return true;
}

/** d[k] = f(a[k * sa], b[k * sb]) for k < n, d overlapping neither a
 *  nor b. Broadcast and unit-stride operands get their own loops so
 *  the compiler emits contiguous vector loads; other strides gather. */
template <typename F>
inline void
flatBinary(double *__restrict__ d, const double *__restrict__ a,
           int64_t sa, const double *__restrict__ b, int64_t sb,
           int64_t n, F f)
{
    if (sb == 0) {
        const double y = *b;
        if (sa == 1)
            for (int64_t k = 0; k < n; ++k)
                d[k] = f(a[k], y);
        else
            for (int64_t k = 0; k < n; ++k)
                d[k] = f(a[k * sa], y);
    } else if (sa == 0) {
        const double x = *a;
        if (sb == 1)
            for (int64_t k = 0; k < n; ++k)
                d[k] = f(x, b[k]);
        else
            for (int64_t k = 0; k < n; ++k)
                d[k] = f(x, b[k * sb]);
    } else if (sa == 1 && sb == 1) {
        for (int64_t k = 0; k < n; ++k)
            d[k] = f(a[k], b[k]);
    } else {
        for (int64_t k = 0; k < n; ++k)
            d[k] = f(a[k * sa], b[k * sb]);
    }
}

/** d[k] = a[k * sa] != 0 ? b[k * sb] : c[k * sc] for k < n, d
 *  overlapping no operand. A broadcast condition (an SVM's margin
 *  test) picks one operand for the whole segment: a copy. */
inline void
flatSelect(double *__restrict__ d, const double *__restrict__ a,
           int64_t sa, const double *__restrict__ b, int64_t sb,
           const double *__restrict__ c, int64_t sc, int64_t n)
{
    if (sa == 0) {
        const bool take_b = *a != 0.0;
        const double *__restrict__ src = take_b ? b : c;
        const int64_t ss = take_b ? sb : sc;
        if (ss == 1)
            std::copy_n(src, n, d);
        else
            for (int64_t k = 0; k < n; ++k)
                d[k] = src[k * ss];
        return;
    }
    for (int64_t k = 0; k < n; ++k)
        d[k] = a[k * sa] != 0.0 ? b[k * sb] : c[k * sc];
}

/** Runs a flat segment of an unquantized tape as a vectorizable
 *  loop; false for opcodes without one. */
inline bool
runFlat(const TapeSegment &seg, double *s)
{
    const int64_t n = seg.count;
    double *d = s + seg.dst;
    const double *a = s + seg.a;
    const double *b = s + seg.b;
    switch (seg.op) {
      case OpKind::Add:
        flatBinary(d, a, seg.aStride, b, seg.bStride, n,
                   [](double x, double y) { return x + y; });
        return true;
      case OpKind::Sub:
        flatBinary(d, a, seg.aStride, b, seg.bStride, n,
                   [](double x, double y) { return x - y; });
        return true;
      case OpKind::Mul:
        flatBinary(d, a, seg.aStride, b, seg.bStride, n,
                   [](double x, double y) { return x * y; });
        return true;
      case OpKind::Select:
        flatSelect(d, a, seg.aStride, b, seg.bStride, s + seg.c,
                   seg.cStride, n);
        return true;
      default:
        return false;
    }
}

/** Runs one segment in order as a strided loop: the common ALU
 *  opcodes get dedicated loops, everything else (LUT ops, compares,
 *  select) goes through the shared datapath switch. */
template <bool Quantized>
inline void
runStrided(const TapeSegment &seg, double *s, double (*q)(double))
{
    const int64_t n = seg.count;
    double *d = s + seg.dst;
    const double *a = s + seg.a;
    const double *b = s + seg.b;
    const int64_t sd = seg.dstStride;
    const int64_t sa = seg.aStride;
    const int64_t sb = seg.bStride;
    switch (seg.op) {
      case OpKind::Add:
        for (int64_t k = 0; k < n; ++k) {
            double v = a[k * sa] + b[k * sb];
            d[k * sd] = Quantized ? q(v) : v;
        }
        break;
      case OpKind::Sub:
        for (int64_t k = 0; k < n; ++k) {
            double v = a[k * sa] - b[k * sb];
            d[k * sd] = Quantized ? q(v) : v;
        }
        break;
      case OpKind::Mul:
        for (int64_t k = 0; k < n; ++k) {
            double v = a[k * sa] * b[k * sb];
            d[k * sd] = Quantized ? q(v) : v;
        }
        break;
      default: {
        const double *c = s + seg.c;
        const int64_t sc = seg.cStride;
        for (int64_t k = 0; k < n; ++k) {
            double v = evaluateOp(seg.op, a[k * sa], b[k * sb], c[k * sc]);
            d[k * sd] = Quantized ? q(v) : v;
        }
        break;
      }
    }
}

/** One SGD step, m[i] -= lr * g[i]: element-wise, so vectorizing it
 *  changes no result. */
inline void
sgdStep(double *__restrict__ m, const double *__restrict__ g, size_t n,
        double lr)
{
    for (size_t i = 0; i < n; ++i)
        m[i] -= lr * g[i];
}

/** Extends @p seg by region-layout instruction @p x, which follows
 *  @p prev in execution order, when x keeps the segment's opcode and
 *  strides. A segment's second instruction sets its strides. */
inline bool
continueSegment(TapeSegment &seg, const TapeInstr &prev,
                const TapeInstr &x)
{
    if (seg.count == 0 || x.op != seg.op)
        return false;
    const int32_t dst = x.dst - prev.dst;
    const int32_t a = x.a - prev.a;
    const int32_t b = x.b - prev.b;
    const int32_t c = x.c - prev.c;
    if (seg.count == 1) {
        seg.dstStride = dst;
        seg.aStride = a;
        seg.bStride = b;
        seg.cStride = c;
    } else if (dst != seg.dstStride || a != seg.aStride ||
               b != seg.bStride || c != seg.cStride) {
        return false;
    }
    ++seg.count;
    return true;
}

/** Cuts region-layout instructions, fed in execution order, into
 *  segments; without an output vector it only counts them. */
class SegmentBuilder
{
  public:
    explicit SegmentBuilder(std::vector<TapeSegment> *out = nullptr)
        : out_(out)
    {
    }

    void add(const TapeInstr &x)
    {
        if (!continueSegment(seg_, prev_, x)) {
            close();
            seg_ = {.op = x.op, .count = 1, .dst = x.dst, .a = x.a,
                    .b = x.b, .c = x.c};
            ++count_;
        }
        prev_ = x;
    }

    /** Closes the open segment; returns the segment count. */
    int64_t finish()
    {
        close();
        return count_;
    }

  private:
    void close()
    {
        if (out_ && seg_.count > 0)
            out_->push_back(seg_);
        seg_.count = 0;
    }

    std::vector<TapeSegment> *out_;
    TapeSegment seg_;
    TapeInstr prev_;
    int64_t count_ = 0;
};

/** Most interleaved chains one transposed stretch may hold. */
constexpr int64_t kMaxChains = 8;

/** The node-order instructions, in region-layout slots. */
using Instrs = std::span<const TapeInstr>;

/**
 * A stretch of the node-order instructions: [begin, begin + chains *
 * reps), read as @p reps repetitions of a @p chains-instruction
 * template and emitted chain by chain (instruction begin + r * chains
 * + j at position j * reps + r).
 */
struct Stretch
{
    int64_t begin = 0;
    int64_t chains = 0;
    int64_t reps = 0;

    int64_t end() const { return begin + chains * reps; }
};

/** Feeds @p s's instructions to @p out chain by chain. */
void
emitTransposed(Instrs x, const Stretch &s, SegmentBuilder &out)
{
    for (int64_t j = 0; j < s.chains; ++j)
        for (int64_t r = 0; r < s.reps; ++r)
            out.add(x[s.begin + r * s.chains + j]);
}

/** Segments of x[begin, end) in node order, counted in isolation. */
int64_t
nodeOrderSegments(Instrs x, int64_t begin, int64_t end)
{
    SegmentBuilder count;
    for (int64_t i = begin; i < end; ++i)
        count.add(x[i]);
    return count.finish();
}

/** Length of the node-order segment that starts at x[i]. */
int64_t
runLength(Instrs x, int64_t i)
{
    TapeSegment seg{.op = x[i].op, .count = 1};
    TapeInstr prev = x[i];
    int64_t e = i + 1;
    for (; e < std::ssize(x); ++e) {
        const TapeInstr next = x[e];
        if (!continueSegment(seg, prev, next))
            break;
        prev = next;
    }
    return e - i;
}

/**
 * Full repetitions of a @p k-chain template starting at x[i] that may
 * be emitted chain by chain: chain j (instructions i + r * k + j)
 * repeats one opcode with constant slot strides, and no operand is
 * written by a later chain (j' > j) at an earlier repetition — every
 * operand produced inside the stretch comes from an earlier chain or
 * from the same chain's earlier repetition, so chain-major order is
 * still topological. Chain j' writes an arithmetic progression of
 * slots, so the test is arithmetic.
 */
int64_t
stretchReps(Instrs x, int64_t i, int64_t k)
{
    for (int64_t j = 0; j < k; ++j)
        if (x[i + k + j].op != x[i + j].op)
            return 1;
    TapeSegment chain[kMaxChains];
    TapeInstr last[kMaxChains];
    for (int64_t j = 0; j < k; ++j) {
        last[j] = x[i + j];
        chain[j] = {.op = last[j].op, .count = 1, .dst = last[j].dst};
    }
    // Whether chain j' > j writes @p slot before repetition r.
    const auto later_chain_writes = [&](int32_t slot, int64_t j,
                                        int64_t r) {
        for (int64_t jj = j + 1; jj < k; ++jj) {
            const int64_t diff = int64_t{slot} - chain[jj].dst;
            if (diff == 0)
                return true;
            const int64_t span = (r - 1) * chain[jj].dstStride;
            if (r >= 2 && diff >= std::min<int64_t>(span, 0) &&
                diff <= std::max<int64_t>(span, 0) &&
                diff % chain[jj].dstStride == 0)
                return true;
        }
        return false;
    };
    int64_t reps = 1;
    for (; i + (reps + 1) * k <= std::ssize(x); ++reps) {
        for (int64_t j = 0; j < k; ++j) {
            const TapeInstr in = x[i + reps * k + j];
            if (!continueSegment(chain[j], last[j], in))
                return reps;
            last[j] = in;
        }
        for (int64_t j = 0; j < k; ++j)
            if (later_chain_writes(last[j].a, j, reps) ||
                later_chain_writes(last[j].b, j, reps) ||
                later_chain_writes(last[j].c, j, reps))
                return reps;
    }
    return reps;
}

/**
 * The stretches of the node-order instructions @p x worth emitting
 * chain by chain, in order: a greedy, left-to-right walk over the
 * node-order segments @p node_order. At the start of each segment,
 * chain counts k <= 8 at least as long as the segment are tried in
 * increasing order, and the first stretch that saves at least two
 * segments wins (so the seams it opens with its neighbours cannot eat
 * the saving; chains count as one segment each, an upper bound).
 * Trying only where the node-order segment is shorter than a template
 * keeps the walk linear: long same-opcode runs are skipped whole.
 */
std::vector<Stretch>
findStretches(Instrs x,
              const std::vector<TapeSegment> &node_order)
{
    std::vector<Stretch> found;
    const int64_t n = std::ssize(x);
    // The node-order segment holding position i starts at seg_begin.
    size_t seg = 0;
    int64_t seg_begin = 0;
    for (int64_t i = 0; i < n;) {
        while (seg_begin + node_order[seg].count <= i)
            seg_begin += node_order[seg++].count;
        const int64_t run = seg_begin == i ? node_order[seg].count
                                           : runLength(x, i);
        Stretch best;
        for (int64_t k = std::max<int64_t>(2, run);
             k <= kMaxChains && i + 2 * k <= n; ++k) {
            const Stretch s{.begin = i, .chains = k,
                            .reps = stretchReps(x, i, k)};
            if (s.reps >= 2 && nodeOrderSegments(x, i, s.end()) >= k + 2) {
                best = s;
                break;
            }
        }
        if (best.reps > 0) {
            found.push_back(best);
            i = best.end();
        } else {
            i += run;
        }
    }
    return found;
}

} // namespace

bool
parseTapeJitEnv(const char *env)
{
    if (env == nullptr || *env == '\0')
        COSMIC_FATAL("COSMIC_TAPE_JIT is set but empty: expected 0 "
                     "(interpreter tape) or 1 (jit)");
    if (env[0] == '0' && env[1] == '\0')
        return false;
    if (env[0] == '1' && env[1] == '\0')
        return true;
    COSMIC_FATAL("COSMIC_TAPE_JIT='"
                 << env
                 << "' is not a recognized value: expected 0 "
                    "(interpreter tape) or 1 (jit)");
}

Tape::Tape(const Translation &translation, double (*quantizer)(double),
           TapeBackend backend)
    : tr_(&translation), quantizer_(quantizer), backend_(backend)
{
    const Dfg &dfg = tr_->dfg;
    const int64_t n = dfg.size();
    const int64_t ops = dfg.operationCount();
    const int64_t consts =
        n - ops - dfg.dataInputCount() - dfg.modelInputCount();
    const std::vector<NodeId> &grads = dfg.gradientNodes();
    COSMIC_ASSERT(1 + tr_->modelWords + tr_->recordWords + n <
                      std::numeric_limits<int32_t>::max(),
                  "DFG too large for 32-bit tape slots");

    // Region slot of each node, -1 until assigned; absent operands
    // (kInvalidNode) resolve to the pinned zero.
    std::vector<int32_t> slot(n, -1);
    const auto at = [&](NodeId v) {
        return v == kInvalidNode ? 0 : slot[v];
    };
    dataBase_ = static_cast<int32_t>(modelBase_ + tr_->modelWords);
    int32_t next = static_cast<int32_t>(dataBase_ + tr_->recordWords);

    // The gradient region needs every gradient to be a distinct
    // operation node; otherwise gradients are read slot by slot.
    bool distinct = true;
    for (NodeId g : grads) {
        if (g == kInvalidNode || dfg.node(g).op == OpKind::Const ||
            dfg.node(g).op == OpKind::Input || slot[g] >= 0) {
            distinct = false;
            break;
        }
        slot[g] = next++;
    }
    if (distinct) {
        gradBase_ = static_cast<int32_t>(dataBase_ + tr_->recordWords);
    } else {
        for (NodeId g : grads)
            if (g != kInvalidNode)
                slot[g] = -1;
        next = static_cast<int32_t>(dataBase_ + tr_->recordWords);
    }
    constBase_ = next;
    opBase_ = static_cast<int32_t>(next + consts);
    int32_t next_const = constBase_;
    int32_t next_op = opBase_;
    image_.assign(opBase_ + ops - (distinct ? grads.size() : 0), 0.0);

    instrs_.reserve(ops);
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        switch (node.op) {
          case OpKind::Const: {
            double value = dfg.constValue(v);
            slot[v] = next_const++;
            image_[slot[v]] = quantizer_ ? quantizer_(value) : value;
            break;
          }
          case OpKind::Input: {
            const bool data = node.category == Category::Data;
            const int64_t pos = dfg.inputPos(v);
            const int64_t words =
                data ? tr_->recordWords : tr_->modelWords;
            COSMIC_ASSERT(pos >= 0 && pos < words,
                          (data ? "data" : "model")
                              << " input position " << pos
                              << " outside the translation's " << words
                              << "-word layout");
            slot[v] = static_cast<int32_t>(
                (data ? dataBase_ : modelBase_) + pos);
            break;
          }
          default:
            if (slot[v] < 0)
                slot[v] = next_op++;
            // Operands precede their consumer, so their slots are
            // assigned.
            instrs_.push_back({node.op, slot[v], at(node.a), at(node.b),
                               at(node.c)});
            break;
        }
    }
    COSMIC_ASSERT(static_cast<size_t>(next_op) == image_.size(),
                  "region layout miscounted its operation slots");

    regionGradSlots_.reserve(grads.size());
    for (NodeId g : grads)
        regionGradSlots_.push_back(at(g));

    // Execution order: node order with the interleaved chains
    // transposed, kept only if that has fewer segments.
    SegmentBuilder node_order(&segments_);
    for (const TapeInstr &in : instrs_)
        node_order.add(in);
    const int64_t node_order_segments = node_order.finish();
    const Instrs x(instrs_);
    const std::vector<Stretch> stretches = findStretches(x, segments_);
    if (!stretches.empty()) {
        std::vector<TapeSegment> planned;
        SegmentBuilder build(&planned);
        int64_t i = 0;
        for (const Stretch &st : stretches) {
            for (; i < st.begin; ++i)
                build.add(x[i]);
            emitTransposed(x, st, build);
            i = st.end();
        }
        for (; i < std::ssize(x); ++i)
            build.add(x[i]);
        if (build.finish() < node_order_segments)
            segments_ = std::move(planned);
    }
    for (TapeSegment &seg : segments_)
        seg.flat = isFlat(seg);
}

TapeExecutor::TapeExecutor(const Tape &tape)
    : tape_(tape), scratch_(tape.image_)
{
    if (!tape.hasGradientRegion())
        gradBuf_.resize(tape.regionGradSlots_.size());
}

bool
TapeExecutor::prepareNative()
{
    // Memoized — including failed resolutions, so the interpreter
    // fallback costs one flag test per batch, not a kernel cache round
    // trip (let alone a toolchain probe).
    if (!nativeResolved_) {
        nativeResolved_ = true;
        if (jit::jitRequested(tape_.backend_))
            native_ = jit::KernelCache::instance().acquire(tape_);
    }
    return native_ != nullptr;
}

template <bool Quantized>
void
TapeExecutor::loadModel(const double *model)
{
    double *m = scratch_.data() + tape_.modelBase_;
    const int64_t words = tape_.tr_->modelWords;
    if constexpr (Quantized) {
        double (*q)(double) = tape_.quantizer_;
        for (int64_t i = 0; i < words; ++i)
            m[i] = q(model[i]);
    } else {
        std::copy_n(model, words, m);
    }
}

template <bool Quantized>
void
TapeExecutor::runRecord(const double *record)
{
    double *s = scratch_.data();
    const Tape &t = tape_;
    double (*q)(double) = t.quantizer_;

    double *d = s + t.dataBase_;
    const int64_t words = t.tr_->recordWords;
    if constexpr (Quantized) {
        for (int64_t i = 0; i < words; ++i)
            d[i] = q(record[i]);
    } else {
        std::copy_n(record, words, d);
    }

    for (const TapeSegment &seg : t.segments_) {
        // A lone instruction skips the loop set-up.
        if (seg.count == 1) {
            double v = evaluateOp(seg.op, s[seg.a], s[seg.b], s[seg.c]);
            s[seg.dst] = Quantized ? q(v) : v;
            continue;
        }
        if constexpr (!Quantized)
            if (seg.flat && runFlat(seg, s))
                continue;
        runStrided<Quantized>(seg, s, q);
    }
}

const double *
TapeExecutor::gradients()
{
    if (tape_.gradBase_ >= 0)
        return scratch_.data() + tape_.gradBase_;
    for (size_t i = 0; i < gradBuf_.size(); ++i)
        gradBuf_[i] = scratch_[tape_.regionGradSlots_[i]];
    return gradBuf_.data();
}

void
TapeExecutor::run(std::span<const double> record,
                  std::span<const double> model,
                  std::span<double> grad_out)
{
    const Translation &tr = *tape_.tr_;
    COSMIC_ASSERT(static_cast<int64_t>(record.size()) >= tr.recordWords,
                  "record shorter than the translation's stream layout");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr.modelWords,
                  "model shorter than the translation's layout");
    COSMIC_ASSERT(static_cast<int64_t>(grad_out.size()) >=
                      tr.gradientWords,
                  "gradient buffer shorter than gradientWords");

    if (tape_.quantizer_) {
        loadModel<true>(model.data());
        runRecord<true>(record.data());
    } else {
        loadModel<false>(model.data());
        runRecord<false>(record.data());
    }

    std::fill(grad_out.begin(), grad_out.begin() + tr.gradientWords,
              0.0);
    std::copy_n(gradients(), tape_.regionGradSlots_.size(),
                grad_out.begin());
}

void
TapeExecutor::runBatch(std::span<const double> records,
                       int64_t record_count,
                       std::span<const double> model,
                       std::span<double> grad_accum)
{
    const Translation &tr = *tape_.tr_;
    COSMIC_ASSERT(static_cast<int64_t>(records.size()) >=
                      record_count * tr.recordWords,
                  "record span shorter than the batch");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr.modelWords,
                  "model shorter than the translation's layout");
    COSMIC_ASSERT(static_cast<int64_t>(grad_accum.size()) >=
                      tr.gradientWords,
                  "gradient accumulator shorter than gradientWords");

    prepareNative();
    if (native_) {
        native_->runBatch(records.data(), record_count, model.data(),
                          grad_accum.data());
        return;
    }
    if (tape_.quantizer_)
        accumulate<true>(records.data(), record_count, model.data(),
                         grad_accum.data());
    else
        accumulate<false>(records.data(), record_count, model.data(),
                          grad_accum.data());
}

template <bool Quantized>
void
TapeExecutor::accumulate(const double *records, int64_t record_count,
                         const double *model, double *grad_accum)
{
    if (record_count <= 0)
        return;
    const int64_t stride = tape_.tr_->recordWords;
    const size_t grads = tape_.regionGradSlots_.size();
    // The model is frozen for the whole batch: load it once.
    loadModel<Quantized>(model);
    for (int64_t r = 0; r < record_count; ++r) {
        runRecord<Quantized>(records + r * stride);
        const double *g = gradients();
        for (size_t i = 0; i < grads; ++i)
            grad_accum[i] += g[i];
    }
}

void
TapeExecutor::sgdSweep(std::span<const double> records,
                       int64_t record_count, std::span<double> model,
                       double learning_rate)
{
    const Translation &tr = *tape_.tr_;
    COSMIC_ASSERT(tr.gradientWords == tr.modelWords,
                  "SGD requires one gradient element per parameter");
    COSMIC_ASSERT(static_cast<int64_t>(records.size()) >=
                      record_count * tr.recordWords,
                  "record span shorter than the sweep");
    COSMIC_ASSERT(static_cast<int64_t>(model.size()) >= tr.modelWords,
                  "model shorter than the translation's layout");

    prepareNative();
    if (native_ && native_->sgdSweep) {
        native_->sgdSweep(records.data(), record_count, model.data(),
                          learning_rate);
        return;
    }

    const double *rec = records.data();
    double *mod = model.data();
    const size_t grads = tape_.regionGradSlots_.size();
    if (tape_.quantizer_) {
        // The raw model stays in the caller's array and is
        // re-quantized into the model region before every record.
        for (int64_t r = 0; r < record_count; ++r, rec += tr.recordWords) {
            loadModel<true>(mod);
            runRecord<true>(rec);
            sgdStep(mod, gradients(), grads, learning_rate);
        }
        return;
    }
    // F64: the model lives in its region for the whole sweep, so a
    // step is one update over two contiguous regions.
    double *resident = scratch_.data() + tape_.modelBase_;
    loadModel<false>(mod);
    for (int64_t r = 0; r < record_count; ++r, rec += tr.recordWords) {
        runRecord<false>(rec);
        sgdStep(resident, gradients(), grads, learning_rate);
    }
    std::copy_n(resident, tr.modelWords, mod);
}

} // namespace cosmic::dfg
