#include "dfg/rewrite.h"

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "accel/fixed_point.h"
#include "common/error.h"
#include "common/splitmix.h"
#include "dfg/interp.h"

namespace cosmic::dfg {

bool
bitEqualDouble(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool
quantizerSafeConstant(double v)
{
    return !std::isnan(v) && !(v == 0.0 && std::signbit(v));
}

bool
quantizerSafeFold(OpKind op, double va, double vb, double vc,
                  double folded)
{
    if (!quantizerSafeConstant(folded))
        return false;
    using accel::roundQ16;
    double runtime = roundQ16(
        evaluateOp(op, roundQ16(va), roundQ16(vb), roundQ16(vc)));
    return bitEqualDouble(roundQ16(folded), runtime);
}

int64_t
RewriteOutcome::totalHits() const
{
    int64_t total = 0;
    for (const auto &p : patterns)
        total += p.hits;
    return total;
}

namespace {

/**
 * Incremental graph rebuild: walks the source graph in node order and
 * re-emits nodes into a fresh Dfg through the public builder API,
 * tracking old-id -> new-id. Operands precede their consumers in the
 * source order, so every operand is remapped by the time its consumer
 * is visited and the rebuilt graph is again topological.
 */
struct Rebuild
{
    const Dfg &src;
    Dfg out;
    std::vector<NodeId> remap;

    explicit Rebuild(const Dfg &dfg)
        : src(dfg), remap(dfg.size(), kInvalidNode)
    {}

    NodeId
    operand(NodeId v) const
    {
        return v == kInvalidNode ? kInvalidNode : remap[v];
    }

    /** Re-emits node @p v unchanged (operands remapped). */
    void
    copyNode(NodeId v)
    {
        const Node &n = src.node(v);
        switch (n.op) {
          case OpKind::Const:
            remap[v] = out.addConst(src.constValue(v));
            break;
          case OpKind::Input:
            remap[v] = n.category == Category::Data
                           ? out.addDataInput(src.inputPos(v),
                                              src.elementRef(v))
                           : out.addModelInput(src.inputPos(v),
                                               src.elementRef(v));
            break;
          default:
            remap[v] = out.addOp(n.op, remap[n.a], operand(n.b),
                                 operand(n.c));
            break;
        }
    }

    /** Re-marks gradient outputs and hands the rebuilt graph out. */
    Dfg
    finish()
    {
        const auto &grads = src.gradientNodes();
        for (size_t g = 0; g < grads.size(); ++g) {
            NodeId v = grads[g];
            COSMIC_ASSERT(v != kInvalidNode && remap[v] != kInvalidNode,
                          "rewrite dropped gradient output " << g);
            out.markGradient(remap[v], static_cast<int64_t>(g),
                             src.elementRef(v));
        }
        return std::move(out);
    }
};

/**
 * The graph a rewrite run works on: the caller's source, read in
 * place, until the first sweep that changes something; from then on
 * the run's own rebuilt graph.
 */
struct WorkingGraph
{
    const Dfg &source;
    std::optional<Dfg> owned;

    const Dfg &
    current() const
    {
        return owned ? *owned : source;
    }
};

ValueFacts computeFacts(const Dfg &g, NodeId v,
                        const std::vector<ValueFacts> &facts);

/**
 * Per-sweep rewrite context: the graph the sweep is building plus
 * value facts over it, computed lazily (the graph is built in
 * topological order, so a node's operand facts always exist by the
 * time its own are requested).
 *
 * Until the first pattern fires, the graph being built *is* the
 * source graph. Every Dfg is made by the same deduplicating builder,
 * so re-emitting a source graph's nodes in order hands each one back
 * its own id: before the first hit the remap is the identity and the
 * rebuild would be an exact copy. A quiet sweep therefore reads the
 * source in place and copies nothing; the first call to
 * mutableGraph() replays the prefix before the current node into a
 * fresh Dfg, and the sweep continues as a rebuild from there.
 */
struct RewriteCtx
{
    const Dfg &src;
    std::vector<ValueFacts> &facts;
    /** Engaged from the first hit of the sweep on. */
    std::optional<Rebuild> rb;
    /** The source node currently offered to the patterns. */
    NodeId cursor = 0;

    const Dfg &
    graph() const
    {
        return rb ? rb->out : src;
    }

    NodeId
    map(NodeId v) const
    {
        return rb ? rb->operand(v) : v;
    }

    /** The graph for patterns that add nodes; starts the rebuild. */
    Dfg &
    mutableGraph()
    {
        if (!rb) {
            rb.emplace(src);
            for (NodeId u = 0; u < cursor; ++u) {
                rb->copyNode(u);
                COSMIC_ASSERT(rb->remap[u] == u,
                              "prefix replay moved node " << u);
            }
        }
        return rb->out;
    }

    bool
    isConst(NodeId v) const
    {
        return v != kInvalidNode && graph().node(v).op == OpKind::Const;
    }

    double
    constVal(NodeId v) const
    {
        return graph().constValue(v);
    }

    const ValueFacts &
    factsOf(NodeId v)
    {
        while (static_cast<NodeId>(facts.size()) <= v) {
            NodeId u = static_cast<NodeId>(facts.size());
            facts.push_back(computeFacts(graph(), u, facts));
        }
        return facts[v];
    }
};

/**
 * The facts transfer function. Every claim must hold in plain double
 * arithmetic *and* for the quantized slot values of the Q16.16
 * datapath (which, usefully, can never hold NaN or -0.0: the
 * rounding maps NaN to 0 and (double)llround(raw)/65536.0 never
 * produces a negative zero).
 */
ValueFacts
computeFacts(const Dfg &g, NodeId v, const std::vector<ValueFacts> &facts)
{
    const Node &n = g.node(v);
    ValueFacts f;
    if (n.op == OpKind::Const) {
        double value = g.constValue(v);
        f.notNaN = !std::isnan(value);
        f.finite = std::isfinite(value);
        f.nonNegative = std::isnan(value) || !std::signbit(value);
        f.notNegZero = !(value == 0.0 && std::signbit(value));
        return f;
    }
    if (n.op == OpKind::Input)
        return f; // records and model values prove nothing
    const ValueFacts &a = facts[n.a];
    switch (n.op) {
      case OpKind::Add: {
        const ValueFacts &b = facts[n.b];
        f.notNaN = a.finite && b.finite; // inf + -inf is NaN
        f.nonNegative = a.nonNegative && b.nonNegative;
        // A sum is -0 only when both addends are -0 (x + -x rounds
        // to +0 in round-to-nearest).
        f.notNegZero = a.notNegZero || b.notNegZero;
        break;
      }
      case OpKind::Sub: {
        const ValueFacts &b = facts[n.b];
        f.notNaN = a.finite && b.finite;
        // x - y is -0 only for -0 - +0 (x - x is +0).
        f.notNegZero = a.notNegZero;
        break;
      }
      case OpKind::Mul: {
        const ValueFacts &b = facts[n.b];
        f.notNaN = a.finite && b.finite; // inf * 0 is NaN
        f.nonNegative = a.nonNegative && b.nonNegative;
        // Sign bits xor: two clear sign bits can't produce -0.
        f.notNegZero = a.nonNegative && b.nonNegative;
        break;
      }
      case OpKind::Div: {
        const ValueFacts &b = facts[n.b];
        // The runtime guards the divisor (b == 0 -> 1e-12), so
        // finite/finite can't be 0/0; inf/inf would be NaN.
        f.notNaN = a.finite && b.finite;
        f.nonNegative = a.nonNegative && b.nonNegative;
        f.notNegZero = a.nonNegative && b.nonNegative;
        break;
      }
      case OpKind::Neg:
        f.notNaN = a.notNaN;
        f.finite = a.finite;
        break;
      case OpKind::CmpGt:
      case OpKind::CmpLt:
      case OpKind::CmpGe:
      case OpKind::CmpLe:
      case OpKind::CmpEq:
        // Comparison results are exactly 0.0 or 1.0.
        f.notNaN = f.finite = f.nonNegative = f.notNegZero = true;
        break;
      case OpKind::Select: {
        // The result is one of the value operands (a NaN condition
        // compares falsy and picks the else branch — still one of
        // the two), so each fact is the conjunction.
        const ValueFacts &b = facts[n.b];
        const ValueFacts &c = facts[n.c];
        f.notNaN = b.notNaN && c.notNaN;
        f.finite = b.finite && c.finite;
        f.nonNegative = b.nonNegative && c.nonNegative;
        f.notNegZero = b.notNegZero && c.notNegZero;
        break;
      }
      case OpKind::Sigmoid:
      case OpKind::Gaussian:
        // Range (0, 1] / [0, 1]; +-inf arguments still land in range
        // (sigmoid(-inf) underflows to +0, never -0).
        f.notNaN = a.notNaN;
        f.finite = a.notNaN;
        f.nonNegative = true;
        f.notNegZero = true;
        break;
      case OpKind::Log:
        // log(max(x, 1e-12)): NaN passes through std::max; a finite
        // argument is clamped into [1e-12, inf) so the log is finite,
        // and log never returns -0 on that domain.
        f.notNaN = a.notNaN;
        f.finite = a.notNaN && a.finite;
        f.notNegZero = true;
        break;
      case OpKind::Exp:
        f.notNaN = a.notNaN; // exp overflows to +inf, never NaN
        f.nonNegative = true;
        f.notNegZero = true; // underflow gives +0
        break;
      case OpKind::Sqrt:
        // sqrt(max(x, 0.0)): max(-0, 0) keeps -0 and sqrt(-0) is -0,
        // so the -0 hazard of the argument survives the clamp.
        f.notNaN = a.notNaN;
        f.finite = a.finite;
        f.nonNegative = a.notNegZero;
        f.notNegZero = a.notNegZero;
        break;
      case OpKind::Abs:
        f.notNaN = a.notNaN;
        f.finite = a.finite;
        f.nonNegative = true;
        f.notNegZero = true;
        break;
      case OpKind::Min:
      case OpKind::Max: {
        // The result is one of the operands.
        const ValueFacts &b = facts[n.b];
        f.notNaN = a.notNaN && b.notNaN;
        f.finite = a.finite && b.finite;
        f.nonNegative = a.nonNegative && b.nonNegative;
        f.notNegZero = a.notNegZero && b.notNegZero;
        break;
      }
      case OpKind::Pow: {
        const ValueFacts &b = facts[n.b];
        // Integer exponents in [0, 8] take a mul chain from 1.0 (so a
        // NaN-free finite base stays NaN-free); everything else goes
        // through exp(b * log(max(a, 1e-12))), which is NaN only for
        // a NaN or infinite exponent.
        f.notNaN = a.notNaN && b.finite;
        f.nonNegative = a.nonNegative;
        f.notNegZero = a.nonNegative;
        break;
      }
      case OpKind::Const:
      case OpKind::Input:
        break;
    }
    return f;
}

/**
 * One rewrite rule. The engine offers every operation node of the
 * sweep whose op the pattern matches to each enabled pattern in
 * registry order, with its operands already remapped into the graph
 * being built; the first pattern to return a replacement node wins the
 * node. Nodes no pattern claims are copied and then shown to the
 * observing patterns via observe() (how CSE learns its canonical
 * occurrences).
 */
class Pattern
{
  public:
    /** @p root is the one op the pattern matches; nullopt is any. */
    explicit Pattern(std::string name,
                     std::optional<OpKind> root = std::nullopt)
        : root(root), name_(std::move(name))
    {}
    virtual ~Pattern() = default;

    /** Resets per-sweep state for a sweep over @p src. */
    virtual void
    beginSweep(const Dfg &src)
    {
        (void)src;
    }

    /**
     * Offers op node @p n (never Const/Input) with remapped operands;
     * returns a replacement node in ctx.graph() or kInvalidNode. A
     * pattern that adds nodes does so through ctx.mutableGraph().
     */
    virtual NodeId rewrite(RewriteCtx &ctx, const Node &n, NodeId a,
                           NodeId b, NodeId c) = 0;

    /** True when the pattern wants observe() calls. */
    virtual bool
    observes() const
    {
        return false;
    }

    /** Sees the copied node @p id when no pattern claimed it. */
    virtual void
    observe(RewriteCtx &ctx, NodeId id)
    {
        (void)ctx;
        (void)id;
    }

    const std::string &
    name() const
    {
        return name_;
    }

    const std::optional<OpKind> root;
    int64_t hits = 0;

  private:
    std::string name_;
};

/**
 * pow(x, k) for small constant integer k. Only exponents whose
 * expansion is bit-identical in both datapaths qualify:
 *
 *   k == 0: x^0 is 1.0 for *every* x (the runtime's integer-exponent
 *           loop runs zero times), including NaN and the infinities.
 *   k == 1: the runtime evaluates 1.0 * x, which is bitwise x for
 *           every double; quantized, both sides load Q(x).
 *   k == 2: the runtime evaluates (1.0 * x) * x == x * x bitwise, and
 *           the quantized datapath sees Q(Q(x) * Q(x)) either way.
 *
 * k >= 3 is rejected: a mul chain would quantize each intermediate
 * (Q(Q(x*x) * x) != Q(pow(x, 3)) in general), and non-integer or
 * negative exponents take the exp/log path.
 */
class PowExpandPattern final : public Pattern
{
  public:
    PowExpandPattern() : Pattern("pow-expand", OpKind::Pow) {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        (void)n;
        (void)c;
        if (!ctx.isConst(b))
            return kInvalidNode;
        double k = ctx.constVal(b);
        if (k == 0.0)
            return ctx.mutableGraph().addConst(1.0);
        if (k == 1.0)
            return a;
        if (k == 2.0)
            return ctx.mutableGraph().addOp(OpKind::Mul, a, a);
        return kInvalidNode;
    }
};

/** Constant folding under the shared quantizer guard. */
class FoldConstantsPattern final : public Pattern
{
  public:
    FoldConstantsPattern() : Pattern("fold-constants") {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        if (n.op == OpKind::Select) {
            // A constant condition picks its branch at compile time,
            // provided truthiness survives quantization.
            if (ctx.isConst(a) && b != kInvalidNode &&
                c != kInvalidNode) {
                double cond = ctx.constVal(a);
                if ((cond != 0.0) ==
                    (accel::roundQ16(cond) != 0.0))
                    return cond != 0.0 ? b : c;
            }
            return kInvalidNode;
        }
        if (!ctx.isConst(a) || (n.b != kInvalidNode && !ctx.isConst(b)) ||
            (n.c != kInvalidNode && !ctx.isConst(c)))
            return kInvalidNode;
        double va = ctx.constVal(a);
        double vb = b == kInvalidNode ? 0.0 : ctx.constVal(b);
        double vc = c == kInvalidNode ? 0.0 : ctx.constVal(c);
        double folded = evaluateOp(n.op, va, vb, vc);
        if (!quantizerSafeFold(n.op, va, vb, vc, folded))
            return kInvalidNode;
        return ctx.mutableGraph().addConst(folded);
    }
};

/**
 * x * 1 -> x and 1 * x -> x, unconditionally: multiplication by 1.0
 * is exact for every double (sign, payload and all), and quantized
 * both sides reduce to Q(x) since Q is idempotent.
 */
class MulOnePattern final : public Pattern
{
  public:
    MulOnePattern() : Pattern("mul-one", OpKind::Mul) {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        (void)n;
        (void)c;
        if (ctx.isConst(a) && ctx.constVal(a) == 1.0)
            return b;
        if (ctx.isConst(b) && ctx.constVal(b) == 1.0)
            return a;
        return kInvalidNode;
    }
};

/**
 * x + 0 -> x / 0 + x -> x. The one F64 hazard is x == -0.0 (-0 + 0
 * rounds to +0), so a +0.0 addend needs a notNegZero proof for x. A
 * -0.0 addend is unconditionally safe: x + -0 == x bitwise for every
 * x, and quantized slots never hold -0. (Quantized, either zero loads
 * as +0 and Q(Q(x) + 0) == Q(x) by idempotence — safe regardless.)
 */
class AddZeroPattern final : public Pattern
{
  public:
    AddZeroPattern() : Pattern("add-zero", OpKind::Add) {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        (void)n;
        (void)c;
        if (NodeId r = trySide(ctx, a, b); r != kInvalidNode)
            return r;
        return trySide(ctx, b, a);
    }

  private:
    static NodeId
    trySide(RewriteCtx &ctx, NodeId zero, NodeId other)
    {
        if (!ctx.isConst(zero) || ctx.constVal(zero) != 0.0)
            return kInvalidNode;
        if (std::signbit(ctx.constVal(zero)))
            return other;
        if (ctx.factsOf(other).notNegZero)
            return other;
        return kInvalidNode;
    }
};

/**
 * x * (+-0) -> that same zero constant, when x is provably a finite,
 * non-negative, never -0 real: NaN and inf poison the product
 * (NaN * 0 and inf * 0 are NaN) and a negative or -0 x flips the
 * zero's sign bit. Under those facts the product equals the zero
 * operand bit-for-bit in F64, and quantized both sides load +0.
 */
class MulZeroPattern final : public Pattern
{
  public:
    MulZeroPattern() : Pattern("mul-zero", OpKind::Mul) {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        (void)n;
        (void)c;
        if (NodeId r = trySide(ctx, a, b); r != kInvalidNode)
            return r;
        return trySide(ctx, b, a);
    }

  private:
    static NodeId
    trySide(RewriteCtx &ctx, NodeId zero, NodeId other)
    {
        if (!ctx.isConst(zero) || ctx.constVal(zero) != 0.0)
            return kInvalidNode;
        const ValueFacts &f = ctx.factsOf(other);
        if (f.finite && f.nonNegative && f.notNegZero)
            return zero;
        return kInvalidNode;
    }
};

/**
 * -(-x) -> x. Bitwise-exact in doubles (two sign-bit flips, NaN
 * payload preserved), but Q16.16 saturation is asymmetric: negating
 * the most negative fixed value clamps (Q(-(-32768.0)) is
 * 32767.99998...), so the rewrite demands a proof that x never
 * reaches the negative range.
 */
class DoubleNegPattern final : public Pattern
{
  public:
    DoubleNegPattern() : Pattern("double-neg", OpKind::Neg) {}

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        (void)n;
        (void)b;
        (void)c;
        const Node &inner = ctx.graph().node(a);
        if (inner.op != OpKind::Neg)
            return kInvalidNode;
        if (ctx.factsOf(inner.a).nonNegative)
            return inner.a;
        return kInvalidNode;
    }
};

/**
 * Common-subexpression elimination by value numbering: the first
 * occurrence of an (op, operands) tuple is copied and recorded via
 * observe(); later duplicates rewrite to the canonical node. The table
 * is sized for the op nodes of each sweep's source graph (each is
 * recorded at most once) and keeps its allocation across sweeps.
 */
class CsePattern final : public Pattern
{
  public:
    CsePattern() : Pattern("cse") {}

    void
    beginSweep(const Dfg &src) override
    {
        table_.reset(src.operationCount());
    }

    NodeId
    rewrite(RewriteCtx &ctx, const Node &n, NodeId a, NodeId b,
            NodeId c) override
    {
        return table_.find(ctx.graph(), n.op, a, b, c);
    }

    bool
    observes() const override
    {
        return true;
    }

    void
    observe(RewriteCtx &ctx, NodeId id) override
    {
        table_.insert(ctx.graph(), id);
    }

  private:
    ValueNumberTable table_;
};

using PatternFactoryFn = std::unique_ptr<Pattern> (*)();

template <typename P>
std::unique_ptr<Pattern>
makePattern()
{
    return std::make_unique<P>();
}

struct RegistryEntry
{
    const char *name;
    /** Cleanup entries run whole-graph after the node sweep (DCE). */
    bool cleanup;
    PatternFactoryFn make;
};

/**
 * Registry order is match order: pow-expand must precede
 * fold-constants (a Pow over two constants would otherwise fold
 * before it can expand), and the cheap algebraic identities run
 * before CSE so canonical forms are what get value-numbered.
 */
const RegistryEntry kRegistry[] = {
    {"pow-expand", false, makePattern<PowExpandPattern>},
    {"fold-constants", false, makePattern<FoldConstantsPattern>},
    {"mul-one", false, makePattern<MulOnePattern>},
    {"add-zero", false, makePattern<AddZeroPattern>},
    {"mul-zero", false, makePattern<MulZeroPattern>},
    {"double-neg", false, makePattern<DoubleNegPattern>},
    {"cse", false, makePattern<CsePattern>},
    {"dead-node-elim", true, nullptr},
};

/** Empty -> all; else validate, dedup, and impose registry order. */
std::vector<std::string>
canonicalPatternSet(const std::vector<std::string> &requested)
{
    if (requested.empty())
        return registeredPatternNames();
    for (const auto &name : requested) {
        bool known = false;
        for (const auto &entry : kRegistry)
            known = known || name == entry.name;
        if (!known) {
            std::ostringstream all;
            for (const auto &entry : kRegistry)
                all << (&entry == kRegistry ? "" : ", ") << entry.name;
            COSMIC_FATAL("unknown rewrite pattern '"
                         << name << "' (expected one of " << all.str()
                         << ")");
        }
    }
    std::vector<std::string> canonical;
    for (const auto &entry : kRegistry)
        for (const auto &name : requested)
            if (name == entry.name) {
                canonical.push_back(entry.name);
                break;
            }
    return canonical;
}

/**
 * The enabled patterns, registry order, indexed for dispatch: per op
 * kind the patterns whose root matches it, and the observers.
 */
struct PatternSet
{
    std::vector<std::unique_ptr<Pattern>> all;
    std::array<std::vector<Pattern *>,
               static_cast<size_t>(OpKind::Pow) + 1>
        byOp;
    std::vector<Pattern *> observers;

    void
    add(std::unique_ptr<Pattern> p)
    {
        for (size_t op = 0; op < byOp.size(); ++op)
            if (!p->root || static_cast<size_t>(*p->root) == op)
                byOp[op].push_back(p.get());
        if (p->observes())
            observers.push_back(p.get());
        all.push_back(std::move(p));
    }
};

/**
 * One forward sweep: offer every op node to the enabled patterns and
 * copy unclaimed nodes. The rebuilt graph replaces @p graph's current
 * one only when a pattern fired; a quiet sweep copies nothing.
 * Returns the number of pattern firings.
 */
int64_t
runNodeSweep(WorkingGraph &graph, PatternSet &patterns,
             std::vector<ValueFacts> &facts)
{
    const Dfg &dfg = graph.current();
    facts.clear();
    RewriteCtx ctx{dfg, facts, std::nullopt, 0};
    for (auto &p : patterns.all)
        p->beginSweep(dfg);
    int64_t hits = 0;
    for (NodeId v = 0; v < dfg.size(); ++v) {
        ctx.cursor = v;
        const Node &n = dfg.node(v);
        if (n.op == OpKind::Const || n.op == OpKind::Input) {
            if (ctx.rb)
                ctx.rb->copyNode(v);
            continue;
        }
        NodeId a = ctx.map(n.a);
        NodeId b = ctx.map(n.b);
        NodeId c = ctx.map(n.c);
        NodeId replacement = kInvalidNode;
        for (Pattern *p : patterns.byOp[static_cast<size_t>(n.op)]) {
            replacement = p->rewrite(ctx, n, a, b, c);
            if (replacement != kInvalidNode) {
                ++p->hits;
                ++hits;
                break;
            }
        }
        if (replacement != kInvalidNode) {
            // A claimed node ends the identity prefix.
            ctx.mutableGraph();
            ctx.rb->remap[v] = replacement;
            continue;
        }
        NodeId id = v;
        if (ctx.rb)
            id = ctx.rb->remap[v] = ctx.rb->out.addOp(n.op, a, b, c);
        for (Pattern *p : patterns.observers)
            p->observe(ctx, id);
    }
    if (ctx.rb)
        graph.owned = ctx.rb->finish();
    return hits;
}

/**
 * Dead-node elimination: marks every node with a path to a gradient
 * output, and rebuilds the graph without the rest only when at least
 * one node is dead. @p live is scratch kept across sweeps. Returns the
 * number of nodes removed.
 */
int64_t
eliminateDeadNodes(WorkingGraph &graph, std::vector<char> &live)
{
    const Dfg &dfg = graph.current();
    live.assign(static_cast<size_t>(dfg.size()), 0);
    for (NodeId g : dfg.gradientNodes())
        if (g != kInvalidNode)
            live[g] = 1;
    // Operands precede consumers, so one reverse sweep propagates
    // liveness from the gradient outputs to everything they reach.
    int64_t live_count = 0;
    for (NodeId v = dfg.size() - 1; v >= 0; --v) {
        if (!live[v])
            continue;
        ++live_count;
        const Node &n = dfg.node(v);
        if (n.a != kInvalidNode)
            live[n.a] = 1;
        if (n.b != kInvalidNode)
            live[n.b] = 1;
        if (n.c != kInvalidNode)
            live[n.c] = 1;
    }
    if (live_count == dfg.size())
        return 0;
    const int64_t before = dfg.size();
    Rebuild rb(dfg);
    for (NodeId v = 0; v < dfg.size(); ++v)
        if (live[v])
            rb.copyNode(v);
    graph.owned = rb.finish();
    return before - graph.owned->size();
}

} // namespace

int64_t
edgeCount(const Dfg &dfg)
{
    int64_t edges = 0;
    for (NodeId v = 0; v < dfg.size(); ++v) {
        const Node &n = dfg.node(v);
        edges += (n.a != kInvalidNode) + (n.b != kInvalidNode) +
                 (n.c != kInvalidNode);
    }
    return edges;
}

size_t
ValueNumberTable::capacityFor(int64_t nodes)
{
    size_t cap = 16;
    while (cap < 2 * static_cast<size_t>(nodes))
        cap *= 2;
    return cap;
}

uint64_t
ValueNumberTable::hash(OpKind op, NodeId a, NodeId b, NodeId c)
{
    uint64_t ab = static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32 |
                  static_cast<uint32_t>(b);
    uint64_t cop = static_cast<uint64_t>(static_cast<uint32_t>(c)) << 8 |
                   static_cast<uint64_t>(op);
    return splitmix64(ab ^ splitmix64(cop));
}

void
ValueNumberTable::reset(int64_t nodes)
{
    slots_.assign(capacityFor(nodes), kInvalidNode);
    mask_ = slots_.size() - 1;
    entries_ = 0;
}

NodeId
ValueNumberTable::find(const Dfg &g, OpKind op, NodeId a, NodeId b,
                       NodeId c) const
{
    for (size_t i = hash(op, a, b, c) & mask_;; i = (i + 1) & mask_) {
        NodeId id = slots_[i];
        if (id == kInvalidNode)
            return kInvalidNode;
        const Node &m = g.node(id);
        if (m.op == op && m.a == a && m.b == b && m.c == c)
            return id;
    }
}

void
ValueNumberTable::insert(const Dfg &g, NodeId id)
{
    COSMIC_ASSERT(2 * (entries_ + 1) <= slots_.size(),
                  "value-number table over half full");
    ++entries_;
    const Node &m = g.node(id);
    size_t i = hash(m.op, m.a, m.b, m.c) & mask_;
    while (slots_[i] != kInvalidNode)
        i = (i + 1) & mask_;
    slots_[i] = id;
}

const std::vector<std::string> &
registeredPatternNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all;
        for (const auto &entry : kRegistry)
            all.emplace_back(entry.name);
        return all;
    }();
    return names;
}

std::optional<Dfg>
rewriteGraph(const Dfg &source, const RewriteOptions &options,
             RewriteOutcome &outcome)
{
    COSMIC_ASSERT(options.maxSweeps > 0,
                  "rewrite budget must be positive, got "
                      << options.maxSweeps);
    std::vector<std::string> enabled =
        canonicalPatternSet(options.patterns);

    PatternSet patterns;
    bool cleanup = false;
    for (const auto &entry : kRegistry) {
        bool on = false;
        for (const auto &name : enabled)
            on = on || name == entry.name;
        if (!on)
            continue;
        if (entry.cleanup)
            cleanup = true;
        else
            patterns.add(entry.make());
    }

    outcome = RewriteOutcome{};
    outcome.shape.nodesBefore = source.size();
    outcome.shape.edgesBefore = edgeCount(source);

    // Termination: no pattern increases the op-node count, and every
    // firing either removes a node or retires an irreproducible match
    // (a Pow becomes a Mul), so total hits are bounded and a quiet
    // sweep is reached; maxSweeps is the safety valve, not the
    // expected exit.
    WorkingGraph graph{source, std::nullopt};
    std::vector<ValueFacts> facts;
    std::vector<char> live;
    int64_t cleanup_hits = 0;
    bool converged = false;
    while (!converged && outcome.sweeps < options.maxSweeps) {
        ++outcome.sweeps;
        int64_t sweep_hits =
            patterns.all.empty()
                ? 0
                : runNodeSweep(graph, patterns, facts);
        if (cleanup) {
            int64_t dead = eliminateDeadNodes(graph, live);
            cleanup_hits += dead;
            sweep_hits += dead;
        }
        converged = sweep_hits == 0;
    }
    outcome.budgetExhausted = !converged;

    for (const auto &name : enabled) {
        PatternStats stats;
        stats.name = name;
        if (name == "dead-node-elim") {
            stats.hits = cleanup_hits;
        } else {
            for (const auto &p : patterns.all)
                if (p->name() == name)
                    stats.hits = p->hits;
        }
        outcome.patterns.push_back(std::move(stats));
    }
    outcome.shape.nodesAfter = graph.current().size();
    // A run that changed nothing leaves the source as the result, whose
    // edges were just counted.
    outcome.shape.edgesAfter = graph.owned ? edgeCount(*graph.owned)
                                           : outcome.shape.edgesBefore;
    return std::move(graph.owned);
}

RewriteOutcome
rewriteFixpoint(Translation &translation, const RewriteOptions &options)
{
    RewriteOutcome outcome;
    if (std::optional<Dfg> g = rewriteGraph(translation.dfg, options, outcome))
        translation.dfg = std::move(*g);
    return outcome;
}

} // namespace cosmic::dfg
