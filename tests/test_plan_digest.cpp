/**
 * @file
 * Golden planner digests: the full PlanResult of every Table 1 program
 * at scale 16 on the VU9P, static and elastic, plus small programs under
 * tiny FIFO budgets, is held to digests recorded from the planner before
 * its exploration was made cheaper. PlannerEquivalence compares the
 * planner with a reference built on the same Mapper, Scheduler and
 * ElasticSimulator, so a timing change inside those would pass it
 * unnoticed; these digests would not.
 *
 * The digest covers every explored point (doubles as bit patterns), the
 * chosen index and plan, the kernel's mapping and static schedule, and
 * the chosen elastic placement (per link: source, destination,
 * capacity, peak and traffic; plus its cycles, bytes and budget).
 */
#include <gtest/gtest.h>

#include <cstring>

#include "compiler/pipeline.h"
#include "ml/workloads.h"
#include "planner/planner.h"

namespace cosmic::planner {
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

    void
    addDouble(double value)
    {
        uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    uint64_t
    value() const
    {
        return h_;
    }

  private:
    uint64_t h_ = 1469598103934665603ULL;
};

uint64_t
planDigest(const PlanResult &r, const dfg::Dfg &dfg)
{
    Digest d;
    d.add(static_cast<uint64_t>(r.maxThreadsBound));
    d.add(r.explored.size());
    for (const DesignPoint &p : r.explored) {
        d.add(static_cast<uint64_t>(p.threads));
        d.add(static_cast<uint64_t>(p.rowsPerThread));
        d.addDouble(p.cyclesPerRecord);
        d.addDouble(p.recordsPerSecond);
        d.add(p.memoryBound);
        d.add(p.elastic);
        d.add(static_cast<uint64_t>(p.bufferBytes));
    }
    d.add(r.chosenIndex);

    const accel::AcceleratorPlan &plan = r.plan;
    d.add(static_cast<uint64_t>(plan.columns));
    d.add(static_cast<uint64_t>(plan.rowsPerThread));
    d.add(static_cast<uint64_t>(plan.threads));
    d.add(static_cast<uint64_t>(plan.dataBufWordsPerPe));
    d.add(static_cast<uint64_t>(plan.modelBufWordsPerPe));
    d.add(static_cast<uint64_t>(plan.interimBufWordsPerPe));

    const compiler::Mapping &m = r.kernel.mapping;
    d.add(m.peOf.size());
    for (int32_t pe : m.peOf)
        d.add(static_cast<uint32_t>(pe));
    const compiler::EdgeCounts edges = compiler::countEdges(dfg, m);
    d.add(static_cast<uint64_t>(edges.crossPe));
    d.add(static_cast<uint64_t>(edges.total));

    const compiler::ScheduleResult &s = r.kernel.schedule;
    d.add(s.issueCycle.size());
    for (int64_t cycle : s.issueCycle)
        d.add(static_cast<uint64_t>(cycle));
    d.add(static_cast<uint64_t>(s.makespan));
    d.add(static_cast<uint64_t>(s.maxPeBusy));
    d.add(static_cast<uint64_t>(s.maxBusBusy));
    d.add(static_cast<uint64_t>(s.neighborTransfers));
    d.add(static_cast<uint64_t>(s.rowBusTransfers));
    d.add(static_cast<uint64_t>(s.treeBusTransfers));
    d.add(static_cast<uint64_t>(s.sharedBusTransfers));
    d.add(static_cast<uint64_t>(r.kernel.computeCyclesPerRecord));
    d.add(static_cast<uint64_t>(r.kernel.opCount));
    d.add(static_cast<uint64_t>(r.kernel.criticalPath));

    d.add(r.elasticPlacement.has_value());
    if (r.elasticPlacement) {
        const accel::BufferPlacement &p = *r.elasticPlacement;
        d.add(p.links.size());
        for (const auto &link : p.links) {
            d.add(static_cast<uint64_t>(link.srcPe));
            d.add(static_cast<uint64_t>(link.dstPe));
            d.add(static_cast<uint64_t>(link.capacity));
            d.add(static_cast<uint64_t>(link.peakOccupancy));
            d.add(static_cast<uint64_t>(link.traffic));
        }
        d.add(static_cast<uint64_t>(p.bufferBytesPerThread));
        d.add(static_cast<uint64_t>(p.budgetBytesPerThread));
        d.add(p.withinBudget);
        d.add(static_cast<uint64_t>(p.cyclesPerRecord));
        d.addDouble(p.utilization);
        d.add(static_cast<uint64_t>(p.probeRecords));
    }
    return d.value();
}

struct Golden
{
    const char *name;
    uint64_t digest;
    /** CompileOptions::elasticBufferBudgetBytes (0 = the BRAM share). */
    int64_t budgetBytes = 0;
};

void
expectDigests(const Golden *table, size_t count, bool elastic)
{
    for (size_t i = 0; i < count; ++i) {
        const Golden &g = table[i];
        SCOPED_TRACE(std::string(g.name) + "@16");
        const auto tr = compile::translateSource(
            ml::Workload::byName(g.name).dslSource(16.0));
        compiler::CompileOptions options;
        options.elasticMode = elastic;
        options.elasticBufferBudgetBytes = g.budgetBytes;
        const PlanResult r = Planner::plan(
            tr, accel::PlatformSpec::ultrascalePlus(), options);
        const uint64_t got = planDigest(r, tr.dfg);
        EXPECT_EQ(got, g.digest) << std::hex << "0x" << got << "ULL";
    }
}

TEST(PlanDigest, StaticSuiteMatchesRecordedPlans)
{
    // clang-format off
    const Golden table[] = {
        {"mnist",     0x85333a37aebf97b7ULL},
        {"acoustic",  0xb5065616fa7ff9fbULL},
        {"stock",     0x5a067914ced366ecULL},
        {"texture",   0x089b45cde940de7eULL},
        {"tumor",     0xa1f9175897b6a1acULL},
        {"cancer1",   0xadbaf7674eab1d75ULL},
        {"movielens", 0x1e139ec3f5857fc6ULL},
        {"netflix",   0xf39451cd3cdd8ab1ULL},
        {"face",      0x9be83f78344f0672ULL},
        {"cancer2",   0x8f255b30ace94783ULL},
    };
    // clang-format on
    expectDigests(table, std::size(table), false);
}

TEST(PlanDigest, ElasticSuiteMatchesRecordedPlans)
{
    // clang-format off
    const Golden table[] = {
        {"mnist",     0x79db7ebd9fdd304dULL},
        {"acoustic",  0x5ead67e4d5ab7e9bULL},
        {"stock",     0x4458a496aa0a43e7ULL},
        {"texture",   0xdffdf4f8e48db38fULL},
        {"tumor",     0x930292092779f0e1ULL},
        {"cancer1",   0xcfea2d84b92761ffULL},
        {"movielens", 0xb223297eeb07c8c7ULL},
        {"netflix",   0xff18364a4f1c2f05ULL},
        {"face",      0x1852f6d7829425d1ULL},
        {"cancer2",   0x3deea305d4604df2ULL},
    };
    // clang-format on
    expectDigests(table, std::size(table), true);
}

/**
 * FIFO budgets below most peak placements. Across the row groups, fit()
 * keeps some peak placements as they are, re-measures shrunken
 * capacities under backpressure (stock and cancer2 see every candidate
 * deadlock, ok = false; tumor's rows=3 group completes at half
 * capacity) and leaves the rest over budget.
 */
TEST(PlanDigest, TightBudgetElasticPlansMatchRecorded)
{
    // clang-format off
    const Golden table[] = {
        {"stock",   0xc679adcebaeba1f1ULL, 1000},
        {"tumor",   0x943186e8c7cdc742ULL,  700},
        {"cancer2", 0x77525b6530ffd2dcULL, 1500},
    };
    // clang-format on
    expectDigests(table, std::size(table), true);
}

} // namespace
} // namespace cosmic::planner
