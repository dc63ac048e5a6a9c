#include "dfg/tape.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "dfg/interp.h"
#include "jit/kernel_cache.h"

namespace cosmic::dfg {

namespace {

inline bool
validLaneWidth(int lanes)
{
    return lanes == 1 || lanes == 4 || lanes == kMaxTapeLanes;
}

/** Unit dst stride and no operand reading a slot the segment writes:
 *  the segment's operations are independent, so a vectorized loop
 *  computes exactly what the in-order loop does. */
bool
isFlat(const TapeSegment &seg)
{
    if (seg.dstStride != 1)
        return false;
    const int64_t n = seg.end - seg.begin;
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

/** Runs a flat segment of an unquantized tape as a vectorizable
 *  loop; false for opcodes without one. */
inline bool
runFlat(const TapeSegment &seg, double *s)
{
    const int64_t n = seg.end - seg.begin;
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
      default:
        return false;
    }
}

/** Runs one segment in instruction order as a strided loop: the
 *  common ALU opcodes get dedicated loops, everything else (LUT ops,
 *  compares, select) goes through the shared datapath switch. */
template <bool Quantized>
inline void
runStrided(const TapeSegment &seg, double *s, double (*q)(double))
{
    const int64_t n = seg.end - seg.begin;
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
 *  @p prev in the stream, when x keeps the segment's opcode and
 *  strides. A segment's second instruction sets its strides. */
inline bool
continueSegment(TapeSegment &seg, const TapeInstr &prev,
                const TapeInstr &x)
{
    if (seg.end < 0 || x.op != seg.op)
        return false;
    const int32_t dst = x.dst - prev.dst;
    const int32_t a = x.a - prev.a;
    const int32_t b = x.b - prev.b;
    const int32_t c = x.c - prev.c;
    if (seg.end - seg.begin == 1) {
        seg.dstStride = dst;
        seg.aStride = a;
        seg.bStride = b;
        seg.cStride = c;
    } else if (dst != seg.dstStride || a != seg.aStride ||
               b != seg.bStride || c != seg.cStride) {
        return false;
    }
    ++seg.end;
    return true;
}

} // namespace

int
parseTapeLanesEnv(const char *env)
{
    if (env == nullptr || *env == '\0')
        COSMIC_FATAL("COSMIC_TAPE_LANES is set but empty: expected a "
                     "lane width of 1, 4, or "
                     << kMaxTapeLanes);
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    // strtol quietly skips leading whitespace; treat it as garbage
    // too, so the accepted grammar is exactly a bare integer.
    if (std::isspace(static_cast<unsigned char>(*env)) ||
        end == env || *end != '\0' || errno == ERANGE)
        COSMIC_FATAL("COSMIC_TAPE_LANES='"
                     << env
                     << "' is not an integer: expected a lane width "
                        "of 1, 4, or "
                     << kMaxTapeLanes);
    if (!validLaneWidth(static_cast<int>(v)))
        COSMIC_FATAL("COSMIC_TAPE_LANES="
                     << v
                     << " is not a supported lane width: expected 1, "
                        "4, or "
                     << kMaxTapeLanes);
    return static_cast<int>(v);
}

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

int
defaultTapeLanes()
{
    static const int lanes = [] {
        const char *env = std::getenv("COSMIC_TAPE_LANES");
        return env ? parseTapeLanesEnv(env) : kMaxTapeLanes;
    }();
    return lanes;
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

    // Instruction view: slot = node + 1, slot 0 the pinned zero absent
    // operands resolve to. region[slot] is the same value's slot in
    // the region layout.
    const auto slot_of = [](NodeId v) {
        return static_cast<int32_t>(v) + 1;
    };
    std::vector<int32_t> region(n + 1, -1);
    region[0] = 0;
    dataBase_ = static_cast<int32_t>(modelBase_ + tr_->modelWords);
    int32_t next = static_cast<int32_t>(dataBase_ + tr_->recordWords);

    // The gradient region needs every gradient to be a distinct
    // operation node; otherwise gradients read through
    // regionGradSlots_.
    bool distinct = true;
    for (NodeId g : grads) {
        if (g == kInvalidNode || dfg.node(g).op == OpKind::Const ||
            dfg.node(g).op == OpKind::Input || region[slot_of(g)] >= 0) {
            distinct = false;
            break;
        }
        region[slot_of(g)] = next++;
    }
    if (distinct) {
        gradBase_ = static_cast<int32_t>(dataBase_ + tr_->recordWords);
    } else {
        for (NodeId g : grads)
            if (g != kInvalidNode)
                region[slot_of(g)] = -1;
        next = static_cast<int32_t>(dataBase_ + tr_->recordWords);
    }
    int32_t next_const = next;
    int32_t next_op = static_cast<int32_t>(next + consts);
    regionImage_.assign(next_op + ops - (distinct ? grads.size() : 0),
                        0.0);

    image_.assign(n + 1, 0.0);
    instrs_.reserve(ops);
    dataGather_.reserve(dfg.dataInputCount());
    modelGather_.reserve(dfg.modelInputCount());
    // The open segment and its last instruction, in region slots.
    TapeSegment seg{.end = -1};
    TapeInstr prev;
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        const int32_t s = slot_of(v);
        switch (node.op) {
          case OpKind::Const: {
            double value = dfg.constValue(v);
            image_[s] = quantizer_ ? quantizer_(value) : value;
            region[s] = next_const++;
            regionImage_[region[s]] = image_[s];
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
            (data ? dataGather_ : modelGather_)
                .push_back({s, static_cast<int32_t>(pos)});
            region[s] = static_cast<int32_t>(
                (data ? dataBase_ : modelBase_) + pos);
            break;
          }
          default: {
            const int32_t index = static_cast<int32_t>(instrs_.size());
            instrs_.push_back({node.op, s, slot_of(node.a),
                               slot_of(node.b), slot_of(node.c)});
            if (region[s] < 0)
                region[s] = next_op++;
            // Operands precede their consumer, so their region slots
            // are assigned.
            const TapeInstr x{node.op, region[s],
                              region[slot_of(node.a)],
                              region[slot_of(node.b)],
                              region[slot_of(node.c)]};
            if (!continueSegment(seg, prev, x)) {
                if (seg.end >= 0)
                    segments_.push_back(seg);
                seg = {.op = x.op, .begin = index, .end = index + 1,
                       .dst = x.dst, .a = x.a, .b = x.b, .c = x.c};
            }
            prev = x;
            break;
          }
        }
    }
    if (seg.end >= 0)
        segments_.push_back(seg);
    for (TapeSegment &s : segments_)
        s.flat = isFlat(s);
    COSMIC_ASSERT(static_cast<size_t>(next_op) == regionImage_.size(),
                  "region layout miscounted its operation slots");

    gradSlots_.reserve(grads.size());
    for (NodeId g : grads)
        gradSlots_.push_back(slot_of(g));
    if (!distinct)
        for (int32_t s : gradSlots_)
            regionGradSlots_.push_back(region[s]);
}

TapeExecutor::TapeExecutor(const Tape &tape)
    : tape_(tape), scratch_(tape.regionImage_), lanes_(defaultTapeLanes())
{
    gradBuf_.resize(tape.regionGradSlots_.size());
}

double *
TapeExecutor::laneScratch()
{
    if (laneScratch_.empty()) {
        const std::vector<double> &image = tape_.image_;
        laneScratch_.resize(image.size() * kMaxTapeLanes);
        for (size_t slot = 0; slot < image.size(); ++slot)
            std::fill_n(laneScratch_.begin() + slot * kMaxTapeLanes,
                        kMaxTapeLanes, image[slot]);
    }
    return laneScratch_.data();
}

void
TapeExecutor::setLaneWidth(int lanes)
{
    COSMIC_ASSERT(validLaneWidth(lanes),
                  "lane width must be 1, 4 or " << kMaxTapeLanes
                  << ", got " << lanes);
    lanes_ = lanes;
}

bool
TapeExecutor::prepareNative()
{
    // Memoized per lane width — including failed resolutions, so the
    // interpreter fallback costs one compare per batch, not a kernel
    // cache round trip (let alone a toolchain probe).
    if (nativeLanes_ == lanes_)
        return native_ != nullptr;
    nativeLanes_ = lanes_;
    native_.reset();
    if (jit::jitRequested(tape_.backend_))
        native_ = jit::KernelCache::instance().acquire(tape_, lanes_);
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
        // A lone instruction (the SVMs alternate opcodes) skips the
        // loop set-up.
        if (seg.end - seg.begin == 1) {
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

template <bool Quantized, int W>
void
TapeExecutor::runLanes(const double *const *records,
                       const double *const *models)
{
    constexpr int S = kMaxTapeLanes;
    double *ls = laneScratch();
    const Tape &t = tape_;
    double (*q)(double) = t.quantizer_;

    for (const TapeGather &g : t.dataGather_) {
        double *d = ls + static_cast<size_t>(g.slot) * S;
        for (int l = 0; l < W; ++l)
            d[l] = Quantized ? q(records[l][g.pos]) : records[l][g.pos];
    }
    // models == nullptr means the model slots are already resident
    // (broadcast once per batch by runBatchLanes — instructions never
    // write input slots, so they stay valid across lane groups).
    if (models) {
        for (const TapeGather &g : t.modelGather_) {
            double *d = ls + static_cast<size_t>(g.slot) * S;
            for (int l = 0; l < W; ++l)
                d[l] =
                    Quantized ? q(models[l][g.pos]) : models[l][g.pos];
        }
    }

    const TapeInstr *ins = t.instrs_.data();
    for (const TapeSegment &seg : t.segments_) {
        const TapeInstr *p = ins + seg.begin;
        const TapeInstr *e = ins + seg.end;
        // One dispatch per segment, then one instruction load per
        // operation: each instruction executes once per lane over the
        // stride-1 SoA columns — the inner loop is what
        // auto-vectorizes. The DFG is SSA, so an instruction's
        // destination slot never aliases its operand slots:
        // __restrict__ lets the compiler vectorize the lane loop
        // without emitting runtime overlap checks.
        switch (seg.op) {
          case OpKind::Add:
            for (; p != e; ++p) {
                double *__restrict__ d =
                    ls + static_cast<size_t>(p->dst) * S;
                const double *a = ls + static_cast<size_t>(p->a) * S;
                const double *b = ls + static_cast<size_t>(p->b) * S;
                for (int l = 0; l < W; ++l) {
                    double v = a[l] + b[l];
                    d[l] = Quantized ? q(v) : v;
                }
            }
            break;
          case OpKind::Sub:
            for (; p != e; ++p) {
                double *__restrict__ d =
                    ls + static_cast<size_t>(p->dst) * S;
                const double *a = ls + static_cast<size_t>(p->a) * S;
                const double *b = ls + static_cast<size_t>(p->b) * S;
                for (int l = 0; l < W; ++l) {
                    double v = a[l] - b[l];
                    d[l] = Quantized ? q(v) : v;
                }
            }
            break;
          case OpKind::Mul:
            for (; p != e; ++p) {
                double *__restrict__ d =
                    ls + static_cast<size_t>(p->dst) * S;
                const double *a = ls + static_cast<size_t>(p->a) * S;
                const double *b = ls + static_cast<size_t>(p->b) * S;
                for (int l = 0; l < W; ++l) {
                    double v = a[l] * b[l];
                    d[l] = Quantized ? q(v) : v;
                }
            }
            break;
          default:
            for (; p != e; ++p) {
                double *__restrict__ d =
                    ls + static_cast<size_t>(p->dst) * S;
                const double *a = ls + static_cast<size_t>(p->a) * S;
                const double *b = ls + static_cast<size_t>(p->b) * S;
                const double *c = ls + static_cast<size_t>(p->c) * S;
                for (int l = 0; l < W; ++l) {
                    double v = evaluateOp(seg.op, a[l], b[l], c[l]);
                    d[l] = Quantized ? q(v) : v;
                }
            }
            break;
        }
    }
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
    std::copy_n(gradients(), tape_.gradSlots_.size(), grad_out.begin());
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

    const double *rec = records.data();
    const double *mod = model.data();
    const bool quantized = tape_.quantizer_ != nullptr;
    switch (lanes_) {
      case 4:
        if (quantized)
            runBatchLanes<true, 4>(rec, record_count, mod,
                                   grad_accum.data());
        else
            runBatchLanes<false, 4>(rec, record_count, mod,
                                    grad_accum.data());
        break;
      case kMaxTapeLanes:
        if (quantized)
            runBatchLanes<true, kMaxTapeLanes>(rec, record_count, mod,
                                               grad_accum.data());
        else
            runBatchLanes<false, kMaxTapeLanes>(rec, record_count, mod,
                                                grad_accum.data());
        break;
      default:
        if (quantized)
            runBatchLanes<true, 1>(rec, record_count, mod,
                                   grad_accum.data());
        else
            runBatchLanes<false, 1>(rec, record_count, mod,
                                    grad_accum.data());
        break;
    }
}

template <bool Quantized, int W>
void
TapeExecutor::runBatchLanes(const double *records, int64_t record_count,
                            const double *model, double *grad_accum)
{
    const int64_t stride = tape_.tr_->recordWords;
    const int32_t *slots = tape_.gradSlots_.data();
    const size_t grads = tape_.gradSlots_.size();

    if (record_count <= 0)
        return;

    // The model is frozen for the whole batch: load it into the model
    // region once — and broadcast it across the lane scratch once,
    // instead of once per lane group. (The sweep path cannot do this
    // — its models evolve every record.)
    loadModel<Quantized>(model);
    if constexpr (W > 1) {
        double *ls = laneScratch();
        for (const TapeGather &g : tape_.modelGather_)
            std::fill_n(ls + static_cast<size_t>(g.slot) * kMaxTapeLanes,
                        W, scratch_[tape_.modelBase_ + g.pos]);
    }

    int64_t r = 0;
    if constexpr (W > 1) {
        const double *recs[W];
        for (; r + W <= record_count; r += W) {
            for (int l = 0; l < W; ++l)
                recs[l] = records + (r + l) * stride;
            runLanes<Quantized, W>(recs, nullptr);
            // Element-major fold over the SoA columns: per element the
            // lanes still add in record order (each grad_accum[i] is
            // an independent accumulator), so the summation sequence
            // is exactly the scalar path's — but the W lane values of
            // one slot are contiguous loads.
            for (size_t i = 0; i < grads; ++i) {
                const double *lane =
                    laneScratch_.data() +
                    static_cast<size_t>(slots[i]) * kMaxTapeLanes;
                double acc = grad_accum[i];
                for (int l = 0; l < W; ++l)
                    acc += lane[l];
                grad_accum[i] = acc;
            }
        }
    }
    // Scalar remainder (and the whole batch when W == 1); the model
    // region was loaded once above.
    for (; r < record_count; ++r) {
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
    const size_t grads = tape_.gradSlots_.size();
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

void
TapeExecutor::sgdSweepLanes(std::span<SweepLane> lanes,
                            double learning_rate)
{
    const dfg::Translation &tr = *tape_.tr_;
    COSMIC_ASSERT(tr.gradientWords == tr.modelWords,
                  "SGD requires one gradient element per parameter");
    // Every lane is an independent sweep and the lockstep path is
    // defined to be bit-exact against per-lane scalar sweeps, so the
    // native scalar sweep can drain the lanes one by one.
    prepareNative();
    if (native_ && native_->sgdSweep) {
        for (SweepLane &lane : lanes)
            native_->sgdSweep(lane.records, lane.count, lane.model,
                              learning_rate);
        return;
    }

    const int n = static_cast<int>(lanes.size());
    const bool quantized = tape_.quantizer_ != nullptr;
    if (n == 4) {
        if (quantized)
            sweepLanes<true, 4>(lanes.data(), learning_rate);
        else
            sweepLanes<false, 4>(lanes.data(), learning_rate);
        return;
    }
    if (n == kMaxTapeLanes) {
        if (quantized)
            sweepLanes<true, kMaxTapeLanes>(lanes.data(), learning_rate);
        else
            sweepLanes<false, kMaxTapeLanes>(lanes.data(),
                                             learning_rate);
        return;
    }
    // Unsupported widths run each sweep scalar — identical results.
    for (SweepLane &lane : lanes)
        sgdSweep(std::span<const double>(lane.records,
                                         lane.count * tr.recordWords),
                 lane.count,
                 std::span<double>(lane.model, tr.modelWords),
                 learning_rate);
}

template <bool Quantized, int W>
void
TapeExecutor::sweepLanes(SweepLane *lanes, double learning_rate)
{
    const dfg::Translation &tr = *tape_.tr_;
    const int64_t stride = tr.recordWords;
    const int32_t *slots = tape_.gradSlots_.data();
    const size_t grads = tape_.gradSlots_.size();

    int64_t lockstep = lanes[0].count;
    for (int l = 1; l < W; ++l)
        lockstep = std::min(lockstep, lanes[l].count);

    const double *recs[W];
    const double *mods[W];
    for (int l = 0; l < W; ++l)
        mods[l] = lanes[l].model;
    // Lockstep region: one tape pass advances every sweep by one
    // record. Models are re-gathered each step, so lane l always sees
    // its own model as updated by its previous record — exactly the
    // scalar sweep's recurrence.
    for (int64_t r = 0; r < lockstep; ++r) {
        for (int l = 0; l < W; ++l)
            recs[l] = lanes[l].records + r * stride;
        runLanes<Quantized, W>(recs, mods);
        for (int l = 0; l < W; ++l) {
            double *mod = lanes[l].model;
            for (size_t i = 0; i < grads; ++i)
                mod[i] -= learning_rate *
                          laneScratch_[static_cast<size_t>(slots[i]) *
                                           kMaxTapeLanes +
                                       l];
        }
    }
    // Ragged tails drain through the scalar sweep.
    for (int l = 0; l < W; ++l) {
        int64_t rest = lanes[l].count - lockstep;
        if (rest > 0)
            sgdSweep(std::span<const double>(
                         lanes[l].records + lockstep * stride,
                         rest * stride),
                     rest, std::span<double>(lanes[l].model, tr.modelWords),
                     learning_rate);
    }
}

} // namespace cosmic::dfg
