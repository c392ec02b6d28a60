#!/usr/bin/env python3
"""fxtraf benchmark: build the harness from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the program's libraries
from src/ plus the harness) in $CARGO_TARGET_DIR, default .bench_build;
later calls only check that the build is current.  The harness's output
is passed through.  Its last line is one JSON object with the keys
correct, attempted, failed and metrics, which this script checks against
BENCHMARK.json: --trace 0 reports every end_to_end metric, --trace 1
every per_layer metric.  Exit status is the harness's (0 only when every
trial passed its checks), or 1 when the build or the output is wrong.

    python3 perfbench/run.py --workload star_10k --seed 7 --emit-pins

prints pin lines for perfbench/pins.txt instead of measuring.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_bus", "star_10k", "star_10k_pdes", "flow_1m")
# Longest a run may take once built; the harness itself stays far below.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures and builds the harness; returns the executable's path."""
    build_dir = os.path.join(build_root, "perfbench")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    # A generated tree reconfigures itself when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    """Returns why the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        return "metric names differ from BENCHMARK.json"
    for metric in wanted:
        if metrics[metric["name"]].get("unit") != metric["unit"]:
            return "unit of %s differs from BENCHMARK.json" % metric["name"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    executable = build(build_root)

    command = [executable, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--pins", os.path.join(HERE, "pins.txt")]
    if args.emit_pins:
        command.append("--emit-pins")
    else:
        command += ["--trace", str(args.trace)]
        if args.trace:
            spans_dir = os.path.join(build_root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            command += ["--spans", os.path.join(
                spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    # Own process group: a timeout takes the harness and its pass
    # processes down together.
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = harness.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if args.emit_pins:
        print("\n".join(lines))
        return harness.returncode
    problem = check_result(lines[-1], args.trace) if lines else "no output"
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem)
    print("\n".join(lines))
    return harness.returncode


if __name__ == "__main__":
    sys.exit(main())
