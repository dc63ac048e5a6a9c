/**
 * @file
 * cosmic_perfbench: runs one benchmark workload and prints its
 * metrics, then one JSON result line.
 *
 *   cosmic_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-out <file.json>]
 *
 * Workloads: train-compute, train-wire, compile-suite, service-burst.
 * Exit status 0 means the workload ran (the JSON says whether its
 * outputs were correct); 2 means it could not run, and no JSON line
 * is printed.
 */
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cosmic_perfbench: " << why
              << "\nusage: cosmic_perfbench --workload "
                 "<train-compute|train-wire|compile-suite|service-burst>"
                 " --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-out <file>]\n";
    std::exit(2);
}

/** Whole-token non-negative integer. */
uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (text.empty() || used != text.size() || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opts.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opts.seed = parseCount(flag, value);
        } else if (flag == "--seconds") {
            const uint64_t s = parseCount(flag, value);
            if (s < 1 || s > 600)
                usage("--seconds must be within 1..600");
            opts.seconds = static_cast<int>(s);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--trace-out") {
            opts.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");

    try {
        Result result;
        if (opts.workload == "train-compute")
            result = runTrain(opts, false);
        else if (opts.workload == "train-wire")
            result = runTrain(opts, true);
        else if (opts.workload == "compile-suite")
            result = runCompileSuite(opts);
        else if (opts.workload == "service-burst")
            result = runServiceBurst(opts);
        else
            usage("unknown workload '" + opts.workload + "'");
        std::cout << opts.workload << " seed " << opts.seed
                  << (opts.trace ? " (traced)" : "") << ":\n"
                  << result.table() << result.json() << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "cosmic_perfbench: " << opts.workload
                  << " failed: " << e.what() << "\n";
        return 2;
    }
    return 0;
}
