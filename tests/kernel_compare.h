/**
 * @file
 * Field-by-field gtest comparisons of compiler artifacts, shared by the
 * tests that check two compile paths agree exactly.
 */
#pragma once

#include <gtest/gtest.h>

#include "accel/plan.h"
#include "compiler/kernel.h"

namespace cosmic::compiler {

inline void
expectSameSchedule(const ScheduleResult &a, const ScheduleResult &b)
{
    EXPECT_EQ(a.issueCycle, b.issueCycle);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.maxPeBusy, b.maxPeBusy);
    EXPECT_EQ(a.maxBusBusy, b.maxBusBusy);
    EXPECT_EQ(a.neighborTransfers, b.neighborTransfers);
    EXPECT_EQ(a.rowBusTransfers, b.rowBusTransfers);
    EXPECT_EQ(a.treeBusTransfers, b.treeBusTransfers);
    EXPECT_EQ(a.sharedBusTransfers, b.sharedBusTransfers);
}

inline void
expectSameEntries(const std::vector<MemoryScheduleEntry> &a,
                  const std::vector<MemoryScheduleEntry> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].basePeRow, b[i].basePeRow) << "entry " << i;
        EXPECT_EQ(a[i].write, b[i].write) << "entry " << i;
        EXPECT_EQ(a[i].broadcast, b[i].broadcast) << "entry " << i;
        EXPECT_EQ(a[i].sizeWords, b[i].sizeWords) << "entry " << i;
    }
}

inline void
expectSameKernel(const CompiledKernel &a, const CompiledKernel &b)
{
    // Equal placements of one DFG have equal countEdges.
    EXPECT_EQ(a.mapping.peOf, b.mapping.peOf);
    EXPECT_EQ(a.mapping.numPes, b.mapping.numPes);
    EXPECT_EQ(a.mapping.columns, b.mapping.columns);
    EXPECT_EQ(a.mapping.rowsPerThread, b.mapping.rowsPerThread);
    expectSameSchedule(a.schedule, b.schedule);

    expectSameEntries(a.memory.recordEntries, b.memory.recordEntries);
    expectSameEntries(a.memory.modelEntries, b.memory.modelEntries);
    expectSameEntries(a.memory.gradientEntries, b.memory.gradientEntries);
    ASSERT_EQ(a.memory.threadTable.size(), b.memory.threadTable.size());
    for (size_t t = 0; t < a.memory.threadTable.size(); ++t) {
        EXPECT_EQ(a.memory.threadTable[t].memAddr,
                  b.memory.threadTable[t].memAddr);
        EXPECT_EQ(a.memory.threadTable[t].peRowOffset,
                  b.memory.threadTable[t].peRowOffset);
    }
    EXPECT_EQ(a.memory.wordsPerRecord, b.memory.wordsPerRecord);

    EXPECT_EQ(a.computeCyclesPerRecord, b.computeCyclesPerRecord);
    EXPECT_EQ(a.streamWordsPerRecord, b.streamWordsPerRecord);
    EXPECT_EQ(a.opCount, b.opCount);
    EXPECT_EQ(a.criticalPath, b.criticalPath);
}

inline void
expectSamePlan(const accel::AcceleratorPlan &a,
               const accel::AcceleratorPlan &b)
{
    EXPECT_EQ(a.platform.name, b.platform.name);
    EXPECT_EQ(a.columns, b.columns);
    EXPECT_EQ(a.rowsPerThread, b.rowsPerThread);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.dataBufWordsPerPe, b.dataBufWordsPerPe);
    EXPECT_EQ(a.modelBufWordsPerPe, b.modelBufWordsPerPe);
    EXPECT_EQ(a.interimBufWordsPerPe, b.interimBufWordsPerPe);
}

} // namespace cosmic::compiler
