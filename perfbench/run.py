#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
CMake project in perfbench/ (over the repository's src/ libraries) into
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to standard error. The benchmark runs in
.bench_build/perfbench/out/<workload>-seed<n>-trace<t>/, where a traced
run leaves its span file. The last line of standard output is the JSON
result; its metric names are checked against BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, env=None):
    """Runs the built benchmark once; returns (exit code, stdout lines)."""
    out_dir = os.path.join(BUILD, "out", f"{workload}-seed{seed}-trace{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=out_dir, env=env, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, trace):
    """The parsed result line, or None with the reason on standard error."""
    try:
        result = json.loads(line)
    except (json.JSONDecodeError, TypeError):
        print("perfbench: the last output line is not JSON", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: unexpected keys in the result", file=sys.stderr)
        return None
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    code, lines = run(args.workload, args.seed, args.seconds, args.trace == 1)
    if code != 0 or not lines or check_result(lines[-1], args.trace == 1) is None:
        print(f"perfbench: run failed (exit code {code})", file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
