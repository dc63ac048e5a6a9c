#!/usr/bin/env python3
"""Runs one workload of the cosmic performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call builds the
library and the cosmic_perfbench binary from source into .bench_build/ (CMake,
Release); later calls rebuild incrementally. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the run's spans are
written to .bench_build/traces/ as Chrome trace-event JSON. A traced
run must report every per-layer metric its workload owns (OWN_LAYERS);
the per-layer metrics it does not exercise read 0.

Refuses to run while any COSMIC_* variable is set: those knobs override
what the benchmark pins (COSMIC_TAPE_JIT overrides even an explicit tape
backend). Each run gets its own empty JIT cache directory, removed
afterwards. The workload runs pinned to one CPU (the highest-numbered
one this process may use), so all its threads share one core and its
CPU time carries no cross-core costs that depend on what else the host
runs. Exits non-zero without a result line when the benchmark
cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("train-compute", "train-wire", "compile-suite", "service-burst")
# The per-layer metrics each workload owns: a traced run must report
# every one of them; any other per-layer metric reads 0.
TRACE_LAYERS = ("trace.unattributed_ms", "trace.reconcile_error_ms",
                "trace.overhead_pct", "host.cores_busy", "wall.setup_s",
                "wall.rate_per_s", "wall.p50_ms", "wall.tail_ms")
TRAIN_LAYERS = TRACE_LAYERS + (
    "compiler.frontend_ms", "system.runtime_build_ms",
    "system.node.compute_ms", "system.node.compute_busy_ms",
    "system.aggregation.wait_ms", "system.iteration.unattributed_ms",
    "ml.eval_ms", "ml.final_loss", "ml.loss_ratio",
    "system.buffer_pool.allocs_steady",
    "system.buffer_pool.allocs_steady_traced",
    # Read 0 on train-compute, whose in-process fabric has no wire.
    "net.bytes_per_iter", "net.frames_per_iter", "net.wakeups_per_iter",
    "net.serialize_ms", "net.deserialize_ms", "net.corrupt_frames",
    "net.reconnects")
OWN_LAYERS = {
    "train-compute": TRAIN_LAYERS,
    "train-wire": TRAIN_LAYERS,
    "compile-suite": TRACE_LAYERS + (
        "dsl.parse_ms", "dfg.translate_ms", "dfg.rewrite_ms",
        "planner.plan_ms", "planner.plan_elastic_ms", "compiler.map_ms",
        "dfg.tape_ms", "dfg.nodes_in", "dfg.nodes_out", "dfg.rewrite_hits",
        "planner.points_explored", "dfg.tape_instrs"),
    "service-burst": TRACE_LAYERS + (
        "system.service.submit_ms", "system.scheduler.queue_wait_p50_ms",
        "system.scheduler.queue_wait_p99_ms", "system.session.prepare_ms",
        "system.session.phases_missed", "system.session.train_ms",
        "system.service.result_ms", "compiler.buildcache.hit_ratio",
        "system.scheduler.peak_queue_depth", "system.scheduler.rejected",
        "system.threads_end", "system.threads_per_job"),
}
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def refuse_cosmic_env():
    knobs = sorted(k for k in os.environ if k.startswith("COSMIC_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set; unset "
             "them so the benchmark measures the knobs it pins")


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec


def shape_metrics(result, spec, workload, trace):
    """Checks the binary's metrics against BENCHMARK.json's list for this
    mode. A traced run must report every per-layer metric its workload
    owns; the per-layer metrics it does not exercise read 0."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if trace:
        owned = set().union(*OWN_LAYERS.values())
        if owned != set(units):
            fail("per-layer metrics of BENCHMARK.json and run.py differ: " +
                 ", ".join(sorted(owned ^ set(units))))
    required = OWN_LAYERS[workload] if trace else tuple(units)
    got = result["metrics"]
    extra = sorted(set(got) - set(units))
    if extra:
        fail("cosmic_perfbench reported metrics outside BENCHMARK.json: " +
             ", ".join(extra))
    for name, metric in got.items():
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
        if not isinstance(metric["value"], (int, float)):
            fail("metric %s has no numeric value" % name)
    missing = [name for name in required if name not in got]
    if missing:
        fail("%s did not report %s" % (workload, ", ".join(missing)))
    metrics = {}
    for name in units:
        metrics[name] = got.get(name, {"value": 0.0, "unit": units[name]})
    result["metrics"] = metrics
    return result


def run_binary(args):
    binary = os.path.join(BUILD_DIR, "cosmic_perfbench")
    runs = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs, exist_ok=True)
    # A fresh working and JIT-cache directory per run, removed after.
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, COSMIC_JIT_CACHE_DIR=os.path.join(workdir, "jit"))
    cpu = {max(os.sched_getaffinity(0))}
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpu))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail("%s exited with status %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("cosmic_perfbench's last line is not JSON: " + lines[-1])


def self_test():
    build()
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                          cwd=BUILD_DIR).returncode
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    refuse_cosmic_env()
    if args.self_test:
        self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")
    spec = load_spec()
    build()
    result = shape_metrics(run_binary(args), spec, args.workload,
                           args.trace)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
