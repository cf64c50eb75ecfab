#!/usr/bin/env python3
"""Build and run the fmbench wall-clock benchmark (see README.md here).

    python3 fmbench/run.py --workload mpi_stream --seed 1 --trace 0
    python3 fmbench/run.py --selftest

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds, the run length the bounds there were measured at. The first
call configures and builds the simulator and the benchmark under
.bench_build/fmbench (optimised, no sanitizers); later calls only rebuild
what changed. The benchmark's own
output goes to stdout; its last line is the JSON result. Build logs go to
.bench_build/fmbench/build.log. A failed build or run exits non-zero
without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fmbench")
BINARY = os.path.join(BUILD, "fmbench")
WORKLOADS = ("mpi_stream", "fattree_serial", "fattree_sharded")

# Seed used when none is given, and the held-out seed on which any claim
# made against the default seed must also hold.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"fmbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "fmbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def child_env():
    # The workloads pass thread counts explicitly; still, no FMX_* hook
    # (threads, trace or metrics dumps) may change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("FMX_")}


def run_binary(workload, seed, seconds, trace, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans_dir, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"malformed result line: {lines[-1]}")
    return proc.stdout, result


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics():
    bench = benchmark_json()
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def selftest():
    """Short mode of every workload: each declared metric prints with its
    name and unit, clean runs fail nothing, and one tampered expectation
    (a payload byte on mpi_stream, a flow on the fat-trees) is exactly one
    failed operation."""
    declared = declared_metrics()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            _, res = run_binary(w, DEFAULT_SEED, 0.2, trace, ["--short"])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} != "
                                f"declared {declared[trace]}")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: clean run failed "
                                f"{res['failed']}/{res['attempted']}")
        _, res = run_binary(w, DEFAULT_SEED, 0.2, 0, ["--short", "--tamper"])
        if res["failed"] != 1 or res["correct"]:
            problems.append(f"{w}: tampered run reported failed="
                            f"{res['failed']}, correct={res['correct']}")
        print(f"selftest {w}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=benchmark_json()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    build()
    if args.selftest:
        return selftest()
    out, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
