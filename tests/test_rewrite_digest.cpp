/**
 * @file
 * Post-rewrite graph digests: the optimized DFG of every Table 1
 * program at scales 1 and 16, and of the 200 random fuzz graphs, is
 * held to digests recorded from the engine before its rewrite for
 * speed (open-addressed value numbering, liveness-first dead-node
 * elimination, quiet sweeps). A faster engine must hand the planner,
 * the interpreter and the tape exactly the graph the slower one did.
 *
 * The digest covers the node array (op, category, operands), the
 * constant payloads (bit patterns), the input positions and the
 * gradient marks, in node order.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "compiler/pipeline.h"
#include "dfg/rewrite.h"
#include "ml/workloads.h"
#include "random_dfg.h"

namespace cosmic {
namespace {

class Digest
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ULL;
        }
    }

    uint64_t
    value() const
    {
        return h_;
    }

  private:
    uint64_t h_ = 1469598103934665603ULL;
};

void
addGraph(Digest &d, const dfg::Dfg &g)
{
    d.add(static_cast<uint64_t>(g.size()));
    for (dfg::NodeId v = 0; v < g.size(); ++v) {
        const dfg::Node &n = g.node(v);
        d.add(static_cast<uint64_t>(n.op) |
              static_cast<uint64_t>(n.category) << 8);
        d.add(static_cast<uint32_t>(n.a));
        d.add(static_cast<uint32_t>(n.b));
        d.add(static_cast<uint32_t>(n.c));
        if (n.op == dfg::OpKind::Const) {
            double value = g.constValue(v);
            uint64_t bits;
            std::memcpy(&bits, &value, sizeof bits);
            d.add(bits);
        } else if (n.op == dfg::OpKind::Input) {
            d.add(static_cast<uint64_t>(g.inputPos(v)));
        }
    }
    d.add(g.gradientNodes().size());
    for (dfg::NodeId v : g.gradientNodes())
        d.add(static_cast<uint32_t>(v));
}

TEST(RewriteDigest, SuiteProgramsMatchRecordedGraphs)
{
    struct Golden
    {
        const char *name;
        double scale;
        int64_t nodes;
        uint64_t digest;
    };
    // clang-format off
    const Golden table[] = {
        {"mnist",      1.0, 2508067, 0xed5887c53b9d11bdULL},
        {"mnist",     16.0,   12742, 0x94ef8322deb10aadULL},
        {"acoustic",   1.0, 1646552, 0xe1b11c044d97cf5aULL},
        {"acoustic",  16.0,   20434, 0xffa8763b590212b1ULL},
        {"stock",      1.0,   40001, 0xaa91a4003db10c2bULL},
        {"stock",     16.0,    2501, 0xeec2051567640187ULL},
        {"texture",    1.0,   81921, 0xacd8298ebf98058fULL},
        {"texture",   16.0,    5121, 0x28d333cd8f589fb6ULL},
        {"tumor",      1.0,   10002, 0x88e3a127b584266eULL},
        {"tumor",     16.0,     627, 0xc7cd2f7eaa3f49daULL},
        {"cancer1",    1.0,   30167, 0x4d81dc7d0a445967ULL},
        {"cancer1",   16.0,    1887, 0x03c112ea2fb46249ULL},
        {"movielens",  1.0, 1836151, 0xeb5514d3b63af8c7ULL},
        {"movielens", 16.0,  114731, 0x06d6bf4a367b1624ULL},
        {"netflix",    1.0, 4457016, 0xf430de34a27624abULL},
        {"netflix",   16.0,  278516, 0x4043c2a553b5acc6ULL},
        {"face",       1.0,   10445, 0x81d29c0479e5980bULL},
        {"face",      16.0,     653, 0x85b06d2386ae6552ULL},
        {"cancer2",    1.0,   42779, 0xb9d977afdc1c6c74ULL},
        {"cancer2",   16.0,    2675, 0xbc3efcbcba97ef95ULL},
    };
    // clang-format on
    for (const auto &g : table) {
        SCOPED_TRACE(std::string(g.name) + "@" +
                     std::to_string(static_cast<int>(g.scale)));
        auto tr = compile::translateSource(
            ml::Workload::byName(g.name).dslSource(g.scale));
        Digest d;
        addGraph(d, tr.dfg);
        EXPECT_EQ(tr.dfg.size(), g.nodes);
        EXPECT_EQ(d.value(), g.digest)
            << std::hex << "0x" << d.value() << "ULL";
    }
}

TEST(RewriteDigest, RandomGraphsMatchRecordedGraphs)
{
    Digest d;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        auto tr = fuzz::randomTranslation(seed);
        dfg::rewriteFixpoint(tr);
        addGraph(d, tr.dfg);
    }
    EXPECT_EQ(d.value(), 0x295a1b84596fb793ULL)
        << std::hex << "0x" << d.value() << "ULL";
}

/**
 * Each pattern alone over the same graphs: single-pattern runs put the
 * first hit of a sweep at other nodes than the full set does.
 */
TEST(RewriteDigest, SinglePatternRunsMatchRecordedGraphs)
{
    Digest d;
    for (const auto &name : dfg::registeredPatternNames()) {
        dfg::RewriteOptions options;
        options.patterns = {name};
        for (uint64_t seed = 1; seed <= 200; ++seed) {
            auto tr = fuzz::randomTranslation(seed);
            dfg::rewriteFixpoint(tr, options);
            addGraph(d, tr.dfg);
        }
    }
    EXPECT_EQ(d.value(), 0x27b937877ae7e172ULL)
        << std::hex << "0x" << d.value() << "ULL";
}

} // namespace
} // namespace cosmic
