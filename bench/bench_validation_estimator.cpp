/**
 * @file
 * Validation of the performance-estimation tool (paper Sec. 4.4 says
 * the Planner's estimator was "validated against the hardware"; our
 * hardware stand-in is the functional cycle simulator). For every
 * benchmark the static schedule's makespan is compared with the cycles
 * the simulator observes while actually moving values — they must
 * agree to within the gradient-accumulation tail the estimator
 * reserves on top.
 */
#include <iostream>

#include "accel/replay.h"
#include "accel/simulator.h"
#include "common/rng.h"
#include "common/table.h"
#include "compiler/pipeline.h"
#include "dfg/interp.h"
#include "ml/dataset.h"
#include "ml/workloads.h"

using namespace cosmic;

int
main()
{
    const double scale = 16.0; // simulator moves real values: keep it
                               // laptop-quick while covering all DFGs
    TablePrinter table("Estimator validation: static schedule vs "
                       "simulated execution (scale 1/16)");
    table.setHeader({"Benchmark", "Plan", "Estimated cycles",
                     "Simulated cycles", "Delta %", "Gradient match",
                     "Replay"});

    for (const auto &w : ml::Workload::suite()) {
        auto artifact = compile::buildCached(
            w.dslSource(scale), accel::PlatformSpec::ultrascalePlus());
        const auto &tr = artifact->build.translation;
        const auto &result = artifact->build.planResult;
        const auto &kernel = result.kernel;

        accel::CycleSimulator simulator(tr, kernel);
        dfg::Interpreter interp(tr);
        Rng rng(71);
        auto ds = ml::DatasetGenerator::generate(w, scale, 1, rng);
        auto model = ml::DatasetGenerator::initialModel(w, scale, rng);

        auto sim = simulator.run(ds.record(0), model);
        std::vector<double> golden;
        interp.run(ds.record(0), model, golden);
        bool match = sim.ok && sim.gradient.size() == golden.size();
        for (size_t i = 0; match && i < golden.size(); ++i)
            match = sim.gradient[i] == golden[i];

        auto replay = accel::ScheduleReplayer::replay(tr, kernel);

        double estimated =
            static_cast<double>(kernel.computeCyclesPerRecord);
        double delta =
            100.0 * (estimated - sim.cycles) / estimated;
        std::string point = "T";
        point += std::to_string(result.plan.threads);
        point += "xR";
        point += std::to_string(result.plan.rowsPerThread);
        table.addRow(
            {w.name, point,
             std::to_string(kernel.computeCyclesPerRecord),
             std::to_string(sim.cycles), TablePrinter::num(delta, 1),
             match ? "exact" : "MISMATCH",
             replay.valid ? "valid" : replay.violation});
    }
    table.print(std::cout);
    std::cout << "\nDelta is the gradient-accumulation tail the "
              << "estimator reserves beyond the last simulated "
              << "writeback; every gradient must be bit-exact against "
              << "the interpreter.\n";
    return 0;
}
