#!/usr/bin/env python3
"""Sensitivity check: does the benchmark see a known slowdown?

Runs every workload N times (seeds first-seed..) as is and N times with
BFCE_THREADS=2, the program's own worker-count setting (the service and
the executor both size themselves from it; the default is the
core count). Prints the median closed-loop throughput of each side.
exact_bigpop and sampled_soak must fall by more than their throughput
bound; wire_fleet (run by hand, not gated) is printed only, since its two
io threads cap it below the worker count anyway.

    python3 perfbench/sensitivity.py [--runs 3] [--first-seed 101]
"""

import argparse
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import run as bench  # noqa: E402
import steady  # noqa: E402

MUST_FALL = ("exact_bigpop", "sampled_soak")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()
    spec = steady.spec()
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "throughput_jobs_per_s")
    workloads = [w["name"] for w in spec["workloads"]] + ["wire_fleet"]
    bench.build()
    env = dict(os.environ)
    env.pop("BFCE_THREADS", None)
    slow_env = dict(env, BFCE_THREADS="2")
    ok = True
    print(f"{'workload':<14}{'default':>10}{'threads=2':>11}{'change':>9}"
          f"{'bound':>7}  verdict")
    for w in workloads:
        base = steady.collect([w], args.runs, args.first_seed, spec["run_seconds"], env)
        slow = steady.collect([w], args.runs, args.first_seed, spec["run_seconds"], slow_env)
        b = statistics.median(base[w]["values"]["throughput_jobs_per_s"])
        s = statistics.median(slow[w]["values"]["throughput_jobs_per_s"])
        change = (s - b) / b
        if w in MUST_FALL:
            held = change < -bound
            verdict = "falls beyond bound" if held else "DOES NOT FALL BEYOND BOUND"
            ok = ok and held
        else:
            verdict = "recorded"
        print(f"{w:<14}{b:>10.1f}{s:>11.1f}{change:>+9.3f}{bound:>7.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
