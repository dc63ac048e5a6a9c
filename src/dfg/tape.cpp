#include "dfg/tape.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.h"
#include "dfg/interp.h"

namespace cosmic::dfg {

using accel::Numeric;
using accel::roundQ16;
using accel::roundTo;

namespace {

/** Unit dst stride and, in every row, no operand reading a slot the
 *  row writes: each row's operations are independent, so a vectorized
 *  loop computes exactly what the in-order loop does. Rows still run
 *  one after another, so a row may read what an earlier row wrote. */
bool
isFlat(const TapeSegment &seg)
{
    if (seg.dstStride != 1)
        return false;
    const int64_t n = seg.count;
    const int32_t stride[3] = {seg.aStride, seg.bStride, seg.cStride};
    for (int64_t r = 0; r < seg.rows; ++r) {
        const int64_t dst = seg.dst + r * seg.rowDst;
        const int64_t operand[3] = {seg.a + r * seg.rowA,
                                    seg.b + r * seg.rowB,
                                    seg.c + r * seg.rowC};
        for (int k = 0; k < 3; ++k) {
            const int64_t last = operand[k] + (n - 1) * stride[k];
            const int64_t lo = std::min(operand[k], last);
            const int64_t hi = std::max(operand[k], last) + 1;
            if (lo < dst + n && dst < hi)
                return false;
        }
    }
    return true;
}

/** Calls @p row(d, a, b, c) with the first slots of each of @p seg's
 *  rows, in row order. */
template <typename Row>
inline void
forRows(const TapeSegment &seg, double *s, Row row)
{
    int64_t d = seg.dst, a = seg.a, b = seg.b, c = seg.c;
    for (int32_t r = 0; r < seg.rows; ++r) {
        row(s + d, s + a, s + b, s + c);
        d += seg.rowDst;
        a += seg.rowA;
        b += seg.rowB;
        c += seg.rowC;
    }
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

/** Runs a flat segment of an F64 tape as one vectorizable loop per
 *  row; false for opcodes without one. */
inline bool
runFlat(const TapeSegment &seg, double *s)
{
    const int64_t n = seg.count;
    const int64_t sa = seg.aStride;
    const int64_t sb = seg.bStride;
    const auto binary = [&](auto f) {
        forRows(seg, s,
                [&](double *d, const double *a, const double *b,
                    const double *) { flatBinary(d, a, sa, b, sb, n, f); });
        return true;
    };
    switch (seg.op) {
      case OpKind::Add:
        return binary([](double x, double y) { return x + y; });
      case OpKind::Sub:
        return binary([](double x, double y) { return x - y; });
      case OpKind::Mul:
        return binary([](double x, double y) { return x * y; });
      case OpKind::Select:
        forRows(seg, s,
                [&](double *d, const double *a, const double *b,
                    const double *c) {
                    flatSelect(d, a, sa, b, sb, c, seg.cStride, n);
                });
        return true;
      default:
        return false;
    }
}

/** Runs one segment in order as a strided loop per row: the common
 *  ALU opcodes get dedicated loops, everything else (LUT ops, compares,
 *  select) goes through the shared datapath switch. */
template <Numeric N>
inline void
runStrided(const TapeSegment &seg, double *s)
{
    const int64_t n = seg.count;
    const int64_t sd = seg.dstStride;
    const int64_t sa = seg.aStride;
    const int64_t sb = seg.bStride;
    const int64_t sc = seg.cStride;
    const auto binary = [&](auto f) {
        forRows(seg, s,
                [&](double *d, const double *a, const double *b,
                    const double *) {
                    for (int64_t k = 0; k < n; ++k) {
                        double v = f(a[k * sa], b[k * sb]);
                        d[k * sd] = roundTo<N>(v);
                    }
                });
    };
    switch (seg.op) {
      case OpKind::Add:
        binary([](double x, double y) { return x + y; });
        break;
      case OpKind::Sub:
        binary([](double x, double y) { return x - y; });
        break;
      case OpKind::Mul:
        binary([](double x, double y) { return x * y; });
        break;
      default:
        forRows(seg, s,
                [&](double *d, const double *a, const double *b,
                    const double *c) {
                    for (int64_t k = 0; k < n; ++k) {
                        double v = evaluateOp(seg.op, a[k * sa],
                                              b[k * sb], c[k * sc]);
                        d[k * sd] = roundTo<N>(v);
                    }
                });
        break;
    }
}

/** Dot trees one lane-parallel step runs, one per SIMD lane. */
constexpr int64_t kLanes = 8;
/** A flat dot segment of at least kMinBlock trees runs them in blocks
 *  of at most kBlock trees instead (dotBlock). */
constexpr int64_t kMinBlock = 32;
constexpr int64_t kBlock = 64;

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

/** to[t] = from[t] + to[t], rounded, for t < n. */
template <Numeric N>
inline void
addRow(double *__restrict__ to, const double *__restrict__ from, int64_t n)
{
    for (int64_t t = 0; t < n; ++t) {
        double v = to[t] + from[t];
        to[t] = roundTo<N>(v);
    }
}

/** row[t] = row[t] + x[t * sx] * y[t * sy] for t < n, the product and
 *  the sum each rounded; unit-stride and broadcast operands get their
 *  own loops, as in flatBinary. */
template <Numeric N>
inline void
addProducts(double *__restrict__ row, const double *__restrict__ x,
            int64_t sx, const double *__restrict__ y, int64_t sy,
            int64_t n)
{
    const auto add = [&](int64_t t, double p) {
        double v = row[t] + roundTo<N>(p);
        row[t] = roundTo<N>(v);
    };
    if (sy == 0 && sx == 1) {
        const double c = *y;
        for (int64_t t = 0; t < n; ++t)
            add(t, x[t] * c);
    } else if (sx == 0 && sy == 1) {
        const double c = *x;
        for (int64_t t = 0; t < n; ++t)
            add(t, c * y[t]);
    } else {
        for (int64_t t = 0; t < n; ++t)
            add(t, x[t * sx] * y[t * sy]);
    }
}

/** Rows of dotBlock's buffer for trees of @p leaves leaves: one per
 *  bit of the leaf count, and one for the newest products. */
inline int64_t
blockRows(int64_t leaves)
{
    return std::bit_width(static_cast<uint64_t>(leaves)) + 1;
}

/**
 * Trees k0 .. k0 + w - 1 of flat dot segment @p seg side by side, on a
 * stack of rows of w values in @p buf (blockRows(seg.leaves) rows).
 * Leaf l's w rounded products are pushed as a row; then the top two
 * rows are added once per trailing zero bit of l + 1, as a binary
 * counter carries, and the rows left at the end are added from the top
 * down. That is Translator::buildTree's order: its tree over n leaves
 * is the perfect tree over the first 2^k, 2^k the largest power of two
 * below n, plus its tree over the rest. So each tree performs exactly
 * the scalar tree's operations, and only independent operations (the
 * same step of different trees) run side by side. An odd leaf's
 * products are added to the row below as they are made: the first
 * carry, without storing the row.
 */
template <Numeric N>
inline void
dotBlock(const TapeSegment &seg, int64_t k0, int64_t w, double *s,
         double *buf)
{
    const double *a = s + seg.a + k0 * seg.aStride;
    const double *b = s + seg.b + k0 * seg.bStride;
    const auto mul = [](double x, double y) { return x * y; };
    int64_t depth = 0;
    for (int64_t l = 0; l < seg.leaves; ++l) {
        const double *x = a + l * seg.leafAStride;
        const double *y = b + l * seg.leafBStride;
        if (l % 2 == 1) {
            addProducts<N>(buf + (depth - 1) * w, x, seg.aStride, y,
                           seg.bStride, w);
            for (int64_t c = (l + 1) / 2; c % 2 == 0; c /= 2, --depth)
                addRow<N>(buf + (depth - 2) * w, buf + (depth - 1) * w, w);
            continue;
        }
        double *row = buf + depth++ * w;
        if constexpr (N == Numeric::Q16) {
            for (int64_t t = 0; t < w; ++t)
                row[t] = roundQ16(x[t * seg.aStride] * y[t * seg.bStride]);
        } else {
            flatBinary(row, x, seg.aStride, y, seg.bStride, w, mul);
        }
    }
    for (; depth > 1; --depth)
        addRow<N>(buf + (depth - 2) * w, buf + (depth - 1) * w, w);
    double *d = s + seg.dst + k0 * seg.dstStride;
    for (int64_t t = 0; t < w; ++t)
        d[t * seg.dstStride] = buf[t];
}

/**
 * Runs dot segment @p seg. The trees of a flat segment run side by
 * side: kBlock at a time when there are at least kMinBlock of them, so
 * a leaf's operands across the trees are long runs, else eight at a
 * time, one per lane, and the rest one by one. The trees of a segment
 * that reads its own roots run one by one, in order. @p buf holds
 * Tape::dotWords_ words.
 */
template <Numeric N>
inline void
runDot(const TapeSegment &seg, double *s, double *buf)
{
    int64_t k = 0;
    if (seg.flat && seg.count >= kMinBlock) {
        for (; k < seg.count; k += kBlock)
            dotBlock<N>(seg, k, std::min<int64_t>(kBlock, seg.count - k),
                        s, buf);
        return;
    }
    if (seg.flat)
        for (; k + kLanes <= seg.count; k += kLanes)
            dotLanes<N>(seg, k, s, buf);
    for (; k < seg.count; ++k)
        s[seg.dst + k * seg.dstStride] = dotTree<N>(seg, k, s, buf);
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
 * One execution item, in the node-order numbering: an operation
 * (leaves == 0), or a dot tree (leaves >= 2) whose root is dst and
 * whose leaf l multiplies slots a + l * leafA and b + l * leafB.
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

/** Appends plain segment @p seg to the plain segment @p rows as its
 *  next row, when both have seg's opcode, count and strides and seg's
 *  first slots continue the rows' constant advance. A segment's second
 *  row sets its advances. */
inline bool
continueRows(TapeSegment &rows, const TapeSegment &seg)
{
    if (rows.leaves != 0 || seg.leaves != 0 || rows.op != seg.op ||
        rows.count != seg.count || rows.dstStride != seg.dstStride ||
        rows.aStride != seg.aStride || rows.bStride != seg.bStride ||
        rows.cStride != seg.cStride)
        return false;
    // The last row's first slots.
    const int64_t last = rows.rows - 1;
    const int64_t dst = seg.dst - (rows.dst + last * rows.rowDst);
    const int64_t a = seg.a - (rows.a + last * rows.rowA);
    const int64_t b = seg.b - (rows.b + last * rows.rowB);
    const int64_t c = seg.c - (rows.c + last * rows.rowC);
    if (rows.rows == 1) {
        rows.rowDst = static_cast<int32_t>(dst);
        rows.rowA = static_cast<int32_t>(a);
        rows.rowB = static_cast<int32_t>(b);
        rows.rowC = static_cast<int32_t>(c);
    } else if (dst != rows.rowDst || a != rows.rowA || b != rows.rowB ||
               c != rows.rowC) {
        return false;
    }
    ++rows.rows;
    return true;
}

/** Cuts items, fed in execution order, into segments, and joins
 *  consecutive plain segments of one shape into the rows of one
 *  segment; without an output vector it only counts the segments,
 *  without rows. */
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
        if (out_ && seg_.count > 0 &&
            (out_->empty() || !continueRows(out_->back(), seg_)))
            out_->push_back(seg_);
        seg_.count = 0;
    }

    std::vector<TapeSegment> *out_;
    TapeSegment seg_;
    Item prev_;
    int64_t count_ = 0;
};

/** The node-order instructions, in the node-order numbering. */
using Instrs = std::span<const TapeInstr>;

/** Readers of each node-order operation slot, saturated at 2. */
class Readers
{
  public:
    /** Slots @p base .. base + @p slots - 1; slots below @p base (the
     *  inputs, gradients and constants) are never single-reader. */
    Readers(int32_t base, int64_t slots) : base_(base), count_(slots, 0)
    {
    }

    void read(int32_t s)
    {
        if (s >= base_) {
            uint8_t &c = count_[s - base_];
            c = static_cast<uint8_t>(std::min(c + 1, 2));
        }
    }

    /** Counts slot @p s as read twice: a gradient is read outside the
     *  tape. */
    void pin(int32_t s)
    {
        if (s >= base_)
            count_[s - base_] = 2;
    }

    /** Whether slot @p s has exactly one reader. */
    bool single(int32_t s) const
    {
        return s >= base_ && count_[s - base_] == 1;
    }

  private:
    int32_t base_;
    std::vector<uint8_t> count_;
};

/**
 * The first product of the dot tree whose products end the Mul run
 * x[begin, end), or -1 when the run ends none. The tree's n >= 2
 * products must have a and b slots that each advance by a constant
 * stride, and the n - 1 instructions after the run must be exactly
 * the Adds Translator::buildTree emits over them: its pairing is
 * replayed over the product slots, the odd element carried up a
 * level. Every product and partial sum must have one reader, its
 * tree parent. @p level is scratch.
 */
int64_t
dotTreeStart(Instrs x, int64_t begin, int64_t end, const Readers &readers,
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
            !readers.single(x[t].dst))
            return -1;
        level.push_back(x[t].dst);
    }
    int64_t at = end;
    for (size_t m = level.size(); m > 1; m = (m + 1) / 2) {
        for (size_t p = 0; p < m / 2; ++p, ++at) {
            if (x[at].op != OpKind::Add || x[at].a != level[2 * p] ||
                x[at].b != level[2 * p + 1] ||
                (m > 2 && !readers.single(x[at].dst)))
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
 * read only by their tree parent (@p readers; gradients are pinned)
 * are never written. @p run_starts receives the first item of each
 * node-order segment, cut as the items are made.
 */
std::vector<Item>
fuseDotTrees(Instrs x, const Readers &readers,
             std::vector<int32_t> &run_starts)
{
    // Reserved whole: growing by copies faults in every intermediate
    // buffer, and capacity never written costs no resident memory.
    std::vector<Item> items;
    items.reserve(x.size());
    std::vector<int32_t> level;
    TapeSegment run;
    const auto push = [&](const Item &item) {
        if (items.empty() || !continueSegment(run, items.back(), item)) {
            run = startSegment(item);
            run_starts.push_back(static_cast<int32_t>(items.size()));
        }
        items.push_back(item);
    };
    const auto plain = [&](const TapeInstr &in) {
        push({.op = in.op, .dst = in.dst, .a = in.a, .b = in.b, .c = in.c});
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
        push({.op = OpKind::Add,
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
    int64_t e = i + 1;
    while (e < std::ssize(x) && continueSegment(seg, x[e - 1], x[e]))
        ++e;
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
 * The stretch worth emitting chain by chain that starts at x[i], the
 * start of a node-order segment of @p run items; reps == 0 if none.
 * Chain counts k <= 8 at least as long as the segment are tried in
 * increasing order. A stretch must save at least two segments (so the
 * seams it opens with its neighbours cannot eat the saving; chains
 * count as one segment each, an upper bound), and the one saving the
 * most wins; the search stops at the first winner that repeats three
 * times or more, as a two-repetition template may be half of a longer
 * period (an output's four-step error term, k = 2 against k = 4).
 */
Stretch
stretchAt(Items x, int64_t i, int64_t run)
{
    Stretch best;
    int64_t best_saving = 1;
    for (int64_t k = std::max<int64_t>(2, run);
         k <= kMaxChains && i + 2 * k <= std::ssize(x); ++k) {
        const Stretch s{.begin = i, .chains = k,
                        .reps = stretchReps(x, i, k)};
        if (s.reps < 2)
            continue;
        const int64_t saving = nodeOrderSegments(x, i, s.end()) - k;
        if (saving > best_saving) {
            best = s;
            best_saving = saving;
        }
        if (best.reps >= 3)
            break;
    }
    return best;
}

/**
 * The execution-order numbering of the operation slots. Items arrive
 * in execution order in the node-order numbering; each item's result
 * takes the next operation slot (the slots below the node-order
 * operations: the pinned zero, inputs, gradients and constants, keep
 * their numbers), and its operands are read through the renumbering,
 * so every operand's producer, which comes earlier in execution order,
 * is already renumbered.
 */
struct Renumbering
{
    /** First node-order operation slot. */
    int32_t nodeBase = 0;
    /** The next execution-order operation slot. */
    int32_t next = 0;
    /** New number of node-order slot nodeBase + i, at index i. */
    int32_t *renumbered = nullptr;

    /** The new number of node-order slot @p s, once its producer has
     *  been emitted. */
    int32_t operator()(int32_t s) const
    {
        return s < nodeBase ? s : renumbered[s - nodeBase];
    }

    /** Gives the result in node-order slot @p s its slot. */
    int32_t place(int32_t s)
    {
        return s < nodeBase ? s : (renumbered[s - nodeBase] = next++);
    }

    /** The renumbered stride of the @p leaves slots first + l * stride
     *  into @p out; false if they no longer advance by one. */
    bool leafStride(int32_t first, int32_t stride, int32_t leaves,
                    int32_t &out)
    {
        const int64_t last = first + int64_t{leaves - 1} * stride;
        if (std::max<int64_t>(first, last) < nodeBase) {
            out = stride;
            return true;
        }
        // The trees of a dot segment often all read one vector.
        if (first != checked.first || stride != checked.stride ||
            leaves != checked.leaves) {
            const int32_t head = (*this)(first);
            checked = {.first = first,
                       .stride = stride,
                       .leaves = leaves,
                       .renumbered = (*this)(first + stride) - head,
                       .affine = true};
            for (int32_t l = 2; l < leaves && checked.affine; ++l)
                checked.affine = (*this)(first + l * stride) ==
                                 head + l * checked.renumbered;
        }
        out = checked.renumbered;
        return checked.affine;
    }

    /** A leaf progression and its renumbered stride. */
    struct Leaves
    {
        int32_t first = 0;
        int32_t stride = 0;
        int32_t leaves = 0;
        int32_t renumbered = 0;
        bool affine = false;
    };
    /** The one leafStride last renumbered (none yet: no leaves). */
    Leaves checked;
};

/**
 * Dot tree @p x, whose leaves no longer advance by one stride once
 * renumbered, as Translator::buildTree's operations in @p out: the
 * products, then the pairwise levels, the odd element carried up a
 * level. Only the root keeps x's result; the others take fresh slots.
 * Returns @p rn's next slot after them.
 */
int32_t
expandTree(const Item &x, Renumbering rn, std::vector<Item> &out)
{
    out.clear();
    for (int32_t l = 0; l < x.leaves; ++l)
        out.push_back({.op = OpKind::Mul,
                       .dst = rn.next++,
                       .a = rn(x.a + l * x.leafA),
                       .b = rn(x.b + l * x.leafB)});
    std::vector<int32_t> level;
    for (const Item &product : out)
        level.push_back(product.dst);
    for (size_t m = level.size(); m > 1; m = (m + 1) / 2) {
        for (size_t p = 0; p < m / 2; ++p) {
            const int32_t dst = m == 2 ? rn.place(x.dst) : rn.next++;
            out.push_back({.op = OpKind::Add,
                           .dst = dst,
                           .a = level[2 * p],
                           .b = level[2 * p + 1]});
            level[p] = dst;
        }
        if (m % 2 == 1)
            level[m / 2] = level[m - 1];
    }
    return rn.next;
}

/**
 * Emits the node-order items @p x in execution order through the
 * renumbering @p r into @p segments: a greedy, left-to-right walk over
 * the node-order segments (each starting at an item of @p run_starts)
 * that emits each segment as it is, or the stretch starting there
 * (stretchAt) chain by chain. Trying stretches only where the
 * node-order segment is shorter than a template keeps the walk linear:
 * long same-opcode runs are emitted whole. A dot tree whose leaves no
 * longer advance by one stride once renumbered is emitted as its
 * operations instead (expandTree). Returns the slots in use.
 */
int32_t
emitExecutionOrder(Items x, std::span<const int32_t> run_starts,
                   Renumbering r, std::vector<TapeSegment> &segments)
{
    // r and build are locals, so the renumbering's stores cannot alias
    // their fields, which stay in registers.
    SegmentBuilder build(&segments);
    std::vector<Item> expanded;
    // Emits x[first], x[first + step], ... before end.
    const auto emit = [&](int64_t first, int64_t end, int64_t step) {
        for (int64_t i = first; i < end; i += step) {
            const Item &in = x[i];
            Item y = in;
            y.a = r(in.a);
            y.b = r(in.b);
            y.c = r(in.c);
            if (in.leaves > 0 &&
                !(r.leafStride(in.a, in.leafA, in.leaves, y.leafA) &&
                  r.leafStride(in.b, in.leafB, in.leaves, y.leafB))) {
                r.next = expandTree(in, r, expanded);
                for (const Item &e : expanded)
                    build.add(e);
                continue;
            }
            y.dst = r.place(in.dst);
            build.add(y);
        }
    };
    const int64_t n = std::ssize(x);
    // The node-order segment holding item i starts at run_starts[seg].
    size_t seg = 0;
    for (int64_t i = 0; i < n;) {
        while (seg + 1 < run_starts.size() && run_starts[seg + 1] <= i)
            ++seg;
        const int64_t run =
            run_starts[seg] != i           ? runLength(x, i)
            : seg + 1 < run_starts.size() ? run_starts[seg + 1] - i
                                           : n - i;
        const Stretch st = stretchAt(x, i, run);
        if (st.reps == 0) {
            emit(i, i + run, 1);
            i += run;
            continue;
        }
        for (int64_t j = 0; j < st.chains; ++j)
            emit(st.begin + j, st.end(), st.chains);
        i = st.end();
    }
    build.finish();
    return r.next;
}

} // namespace

Tape::Tape(const Translation &translation, Numeric numeric)
    : tr_(&translation), numeric_(numeric)
{
    const Dfg &dfg = tr_->dfg;
    const int64_t n = dfg.size();
    // Operations and constants, the nodes that are not inputs.
    const int64_t computed =
        n - dfg.dataInputCount() - dfg.modelInputCount();
    const std::vector<NodeId> &grads = dfg.gradientNodes();
    COSMIC_ASSERT(1 + tr_->modelWords + tr_->recordWords + n + computed <
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

    // The constants follow; the operations are numbered in node order
    // first, above every slot the constants may take, and again in
    // execution order below.
    const int32_t node_base = static_cast<int32_t>(next + computed);
    int32_t next_const = next;
    int32_t next_op = node_base;
    std::vector<double> consts;
    Readers readers(node_base, computed);
    instrs_.reserve(computed);
    for (NodeId v = 0; v < n; ++v) {
        const Node &node = dfg.node(v);
        switch (node.op) {
          case OpKind::Const:
            slot[v] = next_const++;
            consts.push_back(roundTo(numeric_, dfg.constValue(v)));
            break;
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
          default: {
            if (slot[v] < 0)
                slot[v] = next_op++;
            // Operands precede their consumer, so their slots are
            // assigned.
            const TapeInstr in{node.op, slot[v], at(node.a), at(node.b),
                               at(node.c)};
            readers.read(in.a);
            readers.read(in.b);
            readers.read(in.c);
            instrs_.push_back(in);
            break;
          }
        }
    }
    opBase_ = next_const;

    regionGradSlots_.reserve(grads.size());
    for (NodeId g : grads) {
        regionGradSlots_.push_back(at(g));
        readers.pin(regionGradSlots_.back());
    }

    // Execution order: node order with each dot tree one item and the
    // interleaved chains transposed. The operations are renumbered in
    // that order, reusing the node slots' storage; the dot trees'
    // products and partial sums get no slot.
    std::vector<int32_t> run_starts;
    const std::vector<Item> items =
        fuseDotTrees(instrs_, readers, run_starts);
    const Renumbering rn{.nodeBase = node_base,
                         .next = opBase_,
                         .renumbered = slot.data(),
                         .checked = {}};
    image_.assign(emitExecutionOrder(items, run_starts, rn, segments_),
                  0.0);
    std::copy(consts.begin(), consts.end(), image_.begin() + next);
    for (int32_t &g : regionGradSlots_)
        g = rn(g);

    for (TapeSegment &seg : segments_) {
        seg.flat = seg.leaves > 0 ? treesIndependent(seg) : isFlat(seg);
        // A block's stack of rows, eight lanes' rows per leaf, or two
        // halves for one tree's levels.
        const int64_t words =
            !seg.flat                 ? 2 * seg.leaves
            : seg.count >= kMinBlock  ? std::min<int64_t>(seg.count, kBlock) *
                                           blockRows(seg.leaves)
            : seg.count >= kLanes     ? kLanes * seg.leaves
                                      : 2 * seg.leaves;
        dotWords_ = std::max(dotWords_, words);
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
        if (seg.count == 1 && seg.rows == 1) {
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
