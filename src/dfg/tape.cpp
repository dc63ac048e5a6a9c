#include "dfg/tape.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "dfg/interp.h"

namespace cosmic::dfg {

using accel::Numeric;
using accel::roundQ16;
using accel::roundTo;

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

/** Runs a flat segment of an F64 tape as a vectorizable
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
template <Numeric N>
inline void
runStrided(const TapeSegment &seg, double *s)
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
            d[k * sd] = roundTo<N>(v);
        }
        break;
      case OpKind::Sub:
        for (int64_t k = 0; k < n; ++k) {
            double v = a[k * sa] - b[k * sb];
            d[k * sd] = roundTo<N>(v);
        }
        break;
      case OpKind::Mul:
        for (int64_t k = 0; k < n; ++k) {
            double v = a[k * sa] * b[k * sb];
            d[k * sd] = roundTo<N>(v);
        }
        break;
      default: {
        const double *c = s + seg.c;
        const int64_t sc = seg.cStride;
        for (int64_t k = 0; k < n; ++k) {
            double v = evaluateOp(seg.op, a[k * sa], b[k * sb], c[k * sc]);
            d[k * sd] = roundTo<N>(v);
        }
        break;
      }
    }
}

/** Dot trees one lane-parallel step runs, one per SIMD lane. */
constexpr int64_t kLanes = 8;

/** One pairwise level of a dot tree: to[i] = from[2i] + from[2i + 1]
 *  over the level's @p m values, the odd last one carried up. */
template <Numeric N>
inline void
pairLevel(double *__restrict__ to, const double *__restrict__ from,
          int64_t m)
{
    for (int64_t i = 0; i < m / 2; ++i) {
        double v = from[2 * i] + from[2 * i + 1];
        to[i] = roundTo<N>(v);
    }
    if (m % 2 == 1)
        to[m / 2] = from[m - 1];
}

/**
 * Tree k of dot segment @p seg, through @p buf (2 * seg.leaves
 * words): exactly Translator::buildTree's operations — each product
 * rounded, then the pairwise levels, the odd element carried up a
 * level. Levels alternate between the two halves of buf, so no loop
 * reads what it writes and each vectorizes.
 */
template <Numeric N>
inline double
dotTree(const TapeSegment &seg, int64_t k, const double *s, double *buf)
{
    int64_t m = seg.leaves;
    const double *a = s + seg.a + k * seg.aStride;
    const double *b = s + seg.b + k * seg.bStride;
    if constexpr (N == Numeric::Q16) {
        for (int64_t l = 0; l < m; ++l)
            buf[l] = roundQ16(a[l * seg.leafAStride] *
                              b[l * seg.leafBStride]);
    } else {
        flatBinary(buf, a, seg.leafAStride, b, seg.leafBStride, m,
                   [](double x, double y) { return x * y; });
    }
    double *from = buf;
    double *to = buf + m;
    for (; m > 1; m = (m + 1) / 2) {
        pairLevel<N>(to, from, m);
        std::swap(from, to);
    }
    return from[0];
}

/** The eight lanes' values p[lane * stride]; unit and broadcast
 *  strides load as one vector. */
inline void
loadLanes(const double *p, int64_t stride, double *__restrict__ out)
{
    if (stride == 1)
        for (int64_t lane = 0; lane < kLanes; ++lane)
            out[lane] = p[lane];
    else if (stride == 0)
        for (int64_t lane = 0; lane < kLanes; ++lane)
            out[lane] = *p;
    else
        for (int64_t lane = 0; lane < kLanes; ++lane)
            out[lane] = p[lane * stride];
}

/**
 * Trees k0 .. k0 + 7 of dot segment @p seg, one per lane: row l of
 * @p buf (seg.leaves rows of eight) holds every lane's product l, and
 * each level adds rows pairwise in place, so each lane performs exactly
 * dotTree's operations and only independent operations are reordered.
 */
template <Numeric N>
inline void
dotLanes(const TapeSegment &seg, int64_t k0, double *s, double *buf)
{
    const int64_t n = seg.leaves;
    const double *a = s + seg.a + k0 * seg.aStride;
    const double *b = s + seg.b + k0 * seg.bStride;
    double x[kLanes], y[kLanes];
    for (int64_t l = 0; l < n; ++l) {
        loadLanes(a + l * seg.leafAStride, seg.aStride, x);
        loadLanes(b + l * seg.leafBStride, seg.bStride, y);
        double *row = buf + l * kLanes;
        for (int64_t lane = 0; lane < kLanes; ++lane) {
            double v = x[lane] * y[lane];
            row[lane] = roundTo<N>(v);
        }
    }
    for (int64_t m = n; m > 1; m = (m + 1) / 2) {
        for (int64_t i = 0; i < m / 2; ++i) {
            const double *left = buf + 2 * i * kLanes;
            for (int64_t lane = 0; lane < kLanes; ++lane)
                x[lane] = left[lane] + left[kLanes + lane];
            double *row = buf + i * kLanes;
            for (int64_t lane = 0; lane < kLanes; ++lane)
                row[lane] = roundTo<N>(x[lane]);
        }
        if (m % 2 == 1)
            std::copy_n(buf + (m - 1) * kLanes, kLanes,
                        buf + m / 2 * kLanes);
    }
    double *d = s + seg.dst + k0 * seg.dstStride;
    for (int64_t lane = 0; lane < kLanes; ++lane)
        d[lane * seg.dstStride] = buf[lane];
}

/** Runs dot segment @p seg: independent trees eight at a time, the
 *  rest (and every tree of a dependent segment) one by one, in order.
 *  @p buf holds Tape::dotWords_ words. */
template <Numeric N>
inline void
runDot(const TapeSegment &seg, double *s, double *buf)
{
    int64_t k = 0;
    if (seg.flat)
        for (; k + kLanes <= seg.count; k += kLanes)
            dotLanes<N>(seg, k, s, buf);
    for (; k < seg.count; ++k)
        s[seg.dst + k * seg.dstStride] =
            dotTree<N>(seg, k, s, buf);
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

/**
 * One execution item: a region-layout operation (leaves == 0), or a
 * dot tree (leaves >= 2) whose root is dst and whose leaf l multiplies
 * slots a + l * leafA and b + l * leafB.
 */
struct Item
{
    OpKind op = OpKind::Add;
    int32_t dst = 0;
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t leaves = 0;
    int32_t leafA = 0;
    int32_t leafB = 0;
};

/** Extends @p seg by item @p x, which follows @p prev in execution
 *  order, when x keeps the segment's opcode, leaf shape and strides.
 *  A segment's second item sets its strides. */
inline bool
continueSegment(TapeSegment &seg, const Item &prev, const Item &x)
{
    if (seg.count == 0 || x.op != seg.op || x.leaves != seg.leaves ||
        x.leafA != seg.leafAStride || x.leafB != seg.leafBStride)
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

/** A one-item segment holding @p x. */
inline TapeSegment
startSegment(const Item &x)
{
    return {.op = x.op, .count = 1, .leaves = x.leaves,
            .leafAStride = x.leafA, .leafBStride = x.leafB,
            .dst = x.dst, .a = x.a, .b = x.b, .c = x.c};
}

/** Cuts items, fed in execution order, into segments; without an
 *  output vector it only counts them. */
class SegmentBuilder
{
  public:
    explicit SegmentBuilder(std::vector<TapeSegment> *out = nullptr)
        : out_(out)
    {
    }

    void add(const Item &x)
    {
        if (!continueSegment(seg_, prev_, x)) {
            close();
            seg_ = startSegment(x);
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
    Item prev_;
    int64_t count_ = 0;
};

/** The node-order instructions, in region-layout slots. */
using Instrs = std::span<const TapeInstr>;

/**
 * The first product of the dot tree whose products end the Mul run
 * x[begin, end), or -1 when the run ends none. The tree's n >= 2
 * products must have a and b slots that each advance by a constant
 * stride, and the n - 1 instructions after the run must be exactly
 * the Adds Translator::buildTree emits over them: its pairing is
 * replayed over the product slots, the odd element carried up a
 * level. Every product and partial sum must have one reader (@p
 * readers, saturated at 2), its tree parent. @p level is scratch.
 */
int64_t
dotTreeStart(Instrs x, int64_t begin, int64_t end,
             const std::vector<uint8_t> &readers,
             std::vector<int32_t> &level)
{
    const int64_t n = std::ssize(x);
    if (end >= n || x[end].op != OpKind::Add)
        return -1;
    // buildTree's first Add pairs the tree's first two products.
    int64_t first = end - 2;
    while (first >= begin && x[first].dst != x[end].a)
        --first;
    if (first < begin || x[first + 1].dst != x[end].b ||
        end + (end - first) - 1 > n)
        return -1;
    const int32_t leaf_a = x[first + 1].a - x[first].a;
    const int32_t leaf_b = x[first + 1].b - x[first].b;
    level.clear();
    for (int64_t t = first; t < end; ++t) {
        if (x[t].a - x[first].a != (t - first) * leaf_a ||
            x[t].b - x[first].b != (t - first) * leaf_b ||
            readers[x[t].dst] != 1)
            return -1;
        level.push_back(x[t].dst);
    }
    int64_t at = end;
    for (size_t m = level.size(); m > 1; m = (m + 1) / 2) {
        for (size_t p = 0; p < m / 2; ++p, ++at) {
            if (x[at].op != OpKind::Add || x[at].a != level[2 * p] ||
                x[at].b != level[2 * p + 1] ||
                (m > 2 && readers[x[at].dst] != 1))
                return -1;
            level[p] = x[at].dst;
        }
        if (m % 2 == 1)
            level[m / 2] = level[m - 1];
    }
    return first;
}

/**
 * The execution items of the node-order instructions @p x: each dot
 * tree (see dotTreeStart) becomes one item at its root's position, and
 * every other instruction is its own item. Products and partial sums
 * read only by their tree parent are never written, so none may be a
 * gradient (@p grad_slots). They are operation slots, at or above
 * @p op_base (below it lie the inputs, the constants and the gradient
 * region), of the @p slots in the region layout.
 */
std::vector<Item>
fuseDotTrees(Instrs x, std::span<const int32_t> grad_slots,
             int32_t op_base, size_t slots)
{
    // Readers of each operation slot, saturated at 2; a gradient
    // counts as 2. Slots below op_base stay 0: never private.
    std::vector<uint8_t> readers(slots, 0);
    const auto read = [&](int32_t v) {
        if (v >= op_base)
            readers[v] = static_cast<uint8_t>(std::min(readers[v] + 1, 2));
    };
    for (const TapeInstr &in : x) {
        read(in.a);
        read(in.b);
        read(in.c);
    }
    for (int32_t g : grad_slots)
        readers[g] = 2;

    // Reserved whole: growing by copies faults in every intermediate
    // buffer, and capacity never written costs no resident memory.
    std::vector<Item> items;
    items.reserve(x.size());
    std::vector<int32_t> level;
    const auto plain = [&](const TapeInstr &in) {
        items.push_back(
            {.op = in.op, .dst = in.dst, .a = in.a, .b = in.b, .c = in.c});
    };
    const int64_t n = std::ssize(x);
    for (int64_t i = 0; i < n;) {
        if (x[i].op != OpKind::Mul) {
            plain(x[i++]);
            continue;
        }
        int64_t end = i;
        while (end < n && x[end].op == OpKind::Mul)
            ++end;
        const int64_t first = dotTreeStart(x, i, end, readers, level);
        for (const int64_t stop = first < 0 ? end : first; i < stop; ++i)
            plain(x[i]);
        if (first < 0)
            continue;
        const int64_t leaves = end - first;
        const int64_t root = end + leaves - 2;
        items.push_back({.op = OpKind::Add,
                         .dst = x[root].dst,
                         .a = x[first].a,
                         .b = x[first].b,
                         .leaves = static_cast<int32_t>(leaves),
                         .leafA = x[first + 1].a - x[first].a,
                         .leafB = x[first + 1].b - x[first].b});
        i = root + 1;
    }
    return items;
}

/** A closed range of region-layout slots. */
struct SlotRange
{
    int64_t lo = 0;
    int64_t hi = 0;
};

/** The closed range slots first + t * stride, t < max(count, 1),
 *  span: with a dot tree's leaf count, the slots its leaf operand
 *  reads; with a plain operation's (0), its one operand slot. */
inline SlotRange
progressionRange(int32_t first, int32_t stride, int32_t count)
{
    const int64_t last =
        first + int64_t{std::max(count, 1) - 1} * stride;
    return {std::min<int64_t>(first, last),
            std::max<int64_t>(first, last)};
}

/** Whether some slot first + t * stride, 0 <= t < count, lies in
 *  @p range. */
inline bool
progressionHits(int64_t first, int64_t stride, int64_t count,
                SlotRange range)
{
    if (stride < 0) {
        // Mirror the slots so the progression ascends.
        first = -first;
        stride = -stride;
        range = {-range.hi, -range.lo};
    }
    // The first term not below range.lo.
    int64_t t = 0;
    if (first < range.lo) {
        if (stride == 0)
            return false;
        t = (range.lo - first + stride - 1) / stride;
    }
    return t < count && first + t * stride <= range.hi;
}

/** No tree of dot segment @p seg reads a root the segment writes:
 *  the trees are independent, so they may run side by side. */
bool
treesIndependent(const TapeSegment &seg)
{
    const auto reads = [&](int32_t first, int32_t tree, int32_t leaf) {
        const SlotRange trees = progressionRange(first, tree, seg.count);
        const SlotRange leaves = progressionRange(0, leaf, seg.leaves);
        return progressionHits(seg.dst, seg.dstStride, seg.count,
                               {trees.lo + leaves.lo,
                                trees.hi + leaves.hi});
    };
    return !reads(seg.a, seg.aStride, seg.leafAStride) &&
           !reads(seg.b, seg.bStride, seg.leafBStride);
}

/** Most interleaved chains one transposed stretch may hold. */
constexpr int64_t kMaxChains = 8;

/** The node-order items. */
using Items = std::span<const Item>;

/**
 * A stretch of the node-order items: [begin, begin + chains * reps),
 * read as @p reps repetitions of a @p chains-item template and emitted
 * chain by chain (item begin + r * chains + j at position j * reps +
 * r).
 */
struct Stretch
{
    int64_t begin = 0;
    int64_t chains = 0;
    int64_t reps = 0;

    int64_t end() const { return begin + chains * reps; }
};

/** Feeds @p s's items to @p out chain by chain. */
void
emitTransposed(Items x, const Stretch &s, SegmentBuilder &out)
{
    for (int64_t j = 0; j < s.chains; ++j)
        for (int64_t r = 0; r < s.reps; ++r)
            out.add(x[s.begin + r * s.chains + j]);
}

/** Segments of x[begin, end) in node order, counted in isolation. */
int64_t
nodeOrderSegments(Items x, int64_t begin, int64_t end)
{
    SegmentBuilder count;
    for (int64_t i = begin; i < end; ++i)
        count.add(x[i]);
    return count.finish();
}

/** Length of the node-order segment that starts at x[i]. */
int64_t
runLength(Items x, int64_t i)
{
    TapeSegment seg = startSegment(x[i]);
    Item prev = x[i];
    int64_t e = i + 1;
    for (; e < std::ssize(x); ++e) {
        const Item next = x[e];
        if (!continueSegment(seg, prev, next))
            break;
        prev = next;
    }
    return e - i;
}

/**
 * Full repetitions of a @p k-chain template starting at x[i] that may
 * be emitted chain by chain: chain j (items i + r * k + j) repeats one
 * opcode with constant slot strides, and no operand is written by a
 * later chain (j' > j) at an earlier repetition — every operand
 * produced inside the stretch comes from an earlier chain or from the
 * same chain's earlier repetition, so chain-major order is still
 * topological. A dot tree's operands are its two leaf ranges. Chain j'
 * writes an arithmetic progression of slots, so the test is
 * arithmetic.
 */
int64_t
stretchReps(Items x, int64_t i, int64_t k)
{
    for (int64_t j = 0; j < k; ++j)
        if (x[i + k + j].op != x[i + j].op)
            return 1;
    TapeSegment chain[kMaxChains];
    Item last[kMaxChains];
    for (int64_t j = 0; j < k; ++j) {
        last[j] = x[i + j];
        chain[j] = startSegment(last[j]);
    }
    // Whether chain j' > j writes a slot of @p range before repetition
    // r.
    const auto later_chain_writes = [&](SlotRange range, int64_t j,
                                        int64_t r) {
        for (int64_t jj = j + 1; jj < k; ++jj)
            if (progressionHits(chain[jj].dst, chain[jj].dstStride, r,
                                range))
                return true;
        return false;
    };
    int64_t reps = 1;
    for (; i + (reps + 1) * k <= std::ssize(x); ++reps) {
        for (int64_t j = 0; j < k; ++j) {
            const Item in = x[i + reps * k + j];
            if (!continueSegment(chain[j], last[j], in))
                return reps;
            last[j] = in;
        }
        for (int64_t j = 0; j < k; ++j) {
            const Item &in = last[j];
            if (later_chain_writes(
                    progressionRange(in.a, in.leafA, in.leaves), j,
                    reps) ||
                later_chain_writes(
                    progressionRange(in.b, in.leafB, in.leaves), j,
                    reps) ||
                later_chain_writes({in.c, in.c}, j, reps))
                return reps;
        }
    }
    return reps;
}

/**
 * The stretches of the node-order items @p x worth emitting
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
findStretches(Items x,
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

Tape::Tape(const Translation &translation, Numeric numeric)
    : tr_(&translation), numeric_(numeric)
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
    opBase_ = static_cast<int32_t>(next + consts);
    int32_t next_const = next;
    int32_t next_op = opBase_;
    image_.assign(opBase_ + ops - (distinct ? grads.size() : 0), 0.0);

    instrs_.reserve(ops);
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        switch (node.op) {
          case OpKind::Const: {
            double value = dfg.constValue(v);
            slot[v] = next_const++;
            image_[slot[v]] = roundTo(numeric_, value);
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

    // Execution order: node order with each dot tree one item and the
    // interleaved chains transposed, kept only if that has fewer
    // segments.
    const std::vector<Item> items =
        fuseDotTrees(instrs_, regionGradSlots_, opBase_, image_.size());
    const Items x(items);
    SegmentBuilder node_order(&segments_);
    for (const Item &in : x)
        node_order.add(in);
    const int64_t node_order_segments = node_order.finish();
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
    for (TapeSegment &seg : segments_) {
        seg.flat = seg.leaves > 0 ? treesIndependent(seg) : isFlat(seg);
        // Eight rows per leaf for trees that run side by side, else two
        // halves for one tree's levels.
        const int64_t rows = seg.flat && seg.count >= kLanes ? kLanes : 2;
        dotWords_ = std::max(dotWords_, rows * seg.leaves);
    }
}

TapeExecutor::TapeExecutor(const Tape &tape)
    : tape_(tape), scratch_(tape.image_)
{
    if (!tape.hasGradientRegion())
        gradBuf_.resize(tape.regionGradSlots_.size());
    dotBuf_.resize(tape.dotWords_);
}

template <Numeric N>
void
TapeExecutor::loadModel(const double *model)
{
    double *m = scratch_.data() + tape_.modelBase_;
    const int64_t words = tape_.tr_->modelWords;
    if constexpr (N == Numeric::Q16) {
        for (int64_t i = 0; i < words; ++i)
            m[i] = roundQ16(model[i]);
    } else {
        std::copy_n(model, words, m);
    }
}

template <Numeric N>
void
TapeExecutor::runRecord(const double *record)
{
    double *s = scratch_.data();
    const Tape &t = tape_;

    double *d = s + t.dataBase_;
    const int64_t words = t.tr_->recordWords;
    if constexpr (N == Numeric::Q16) {
        for (int64_t i = 0; i < words; ++i)
            d[i] = roundQ16(record[i]);
    } else {
        std::copy_n(record, words, d);
    }

    for (const TapeSegment &seg : t.segments_) {
        if (seg.leaves > 0) {
            runDot<N>(seg, s, dotBuf_.data());
            continue;
        }
        // A lone instruction skips the loop set-up.
        if (seg.count == 1) {
            double v = evaluateOp(seg.op, s[seg.a], s[seg.b], s[seg.c]);
            s[seg.dst] = roundTo<N>(v);
            continue;
        }
        if constexpr (N == Numeric::F64)
            if (seg.flat && runFlat(seg, s))
                continue;
        runStrided<N>(seg, s);
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

    if (tape_.numeric_ == Numeric::Q16) {
        loadModel<Numeric::Q16>(model.data());
        runRecord<Numeric::Q16>(record.data());
    } else {
        loadModel<Numeric::F64>(model.data());
        runRecord<Numeric::F64>(record.data());
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

    if (tape_.numeric_ == Numeric::Q16)
        accumulate<Numeric::Q16>(records.data(), record_count,
                                 model.data(), grad_accum.data());
    else
        accumulate<Numeric::F64>(records.data(), record_count,
                                 model.data(), grad_accum.data());
}

template <Numeric N>
void
TapeExecutor::accumulate(const double *records, int64_t record_count,
                         const double *model, double *grad_accum)
{
    if (record_count <= 0)
        return;
    const int64_t stride = tape_.tr_->recordWords;
    const size_t grads = tape_.regionGradSlots_.size();
    // The model is frozen for the whole batch: load it once.
    loadModel<N>(model);
    for (int64_t r = 0; r < record_count; ++r) {
        runRecord<N>(records + r * stride);
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

    const double *rec = records.data();
    double *mod = model.data();
    const size_t grads = tape_.regionGradSlots_.size();
    if (tape_.numeric_ == Numeric::Q16) {
        // The raw model stays in the caller's array and is rounded
        // into the model region before every record.
        for (int64_t r = 0; r < record_count; ++r, rec += tr.recordWords) {
            loadModel<Numeric::Q16>(mod);
            runRecord<Numeric::Q16>(rec);
            sgdStep(mod, gradients(), grads, learning_rate);
        }
        return;
    }
    // F64: the model lives in its region for the whole sweep, so a
    // step is one update over two contiguous regions.
    double *resident = scratch_.data() + tape_.modelBase_;
    loadModel<Numeric::F64>(mod);
    for (int64_t r = 0; r < record_count; ++r, rec += tr.recordWords) {
        runRecord<Numeric::F64>(rec);
        sgdStep(resident, gradients(), grads, learning_rate);
    }
    std::copy_n(resident, tr.modelWords, mod);
}

} // namespace cosmic::dfg
