#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with different seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--save set.json] [--against earlier.json]

--save writes every run's values; --against compares this set's medians
with a saved set's and flags a metric that got worse by more than its
bound. Quartiles follow statistics.quantiles(values, n=4). The spread of
setup_s is shown but not held to its bound; its median drift is.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import run as bench  # noqa: E402


def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(workloads, runs, first_seed, seconds, env=None):
    """{workload: {"values": {metric: [..]}, "attempted": [..], "failed": [..]}}"""
    out = {}
    for w in workloads:
        entry = {"values": {}, "attempted": [], "failed": []}
        for i in range(runs):
            seed = first_seed + i
            code, lines = bench.run(w, seed, seconds, False, env=env)
            result = bench.check_result(lines[-1], False) if code == 0 and lines else None
            if result is None or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed or incorrect (exit code {code})")
            entry["attempted"].append(result["attempted"])
            entry["failed"].append(result["failed"])
            for name, m in result["metrics"].items():
                entry["values"].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed} done", file=sys.stderr)
        out[w] = entry
    return out


def summarize(data, earlier=None):
    """Prints the table; returns False when a spread or drift breaks a bound."""
    metrics = spec()["end_to_end"]
    ok = True
    for w, entry in data.items():
        share = sum(entry["failed"]) / max(1, sum(entry["attempted"]))
        print(f"\n{w}: {len(entry['attempted'])} runs, failed share {share:.6g}")
        print(f"  {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}{'spread ok':>11}{'drift':>9}")
        for m in metrics:
            values = entry["values"][m["name"]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            held = m["name"] == "setup_s" or spread <= m["bound"]
            line = (f"  {m['name']:<24}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{spread:>9.3f}{m['bound']:>7.2f}{'yes' if held else 'NO':>11}")
            if earlier is not None and w in earlier:
                base = statistics.median(earlier[w]["values"][m["name"]])
                worse = (q2 - base) / base if m["better"] == "lower" else (base - q2) / base
                line += f"{worse:>+9.3f}" + ("" if worse <= m["bound"] else " WORSE")
                held = held and worse <= m["bound"]
            print(line)
            ok = ok and held
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    bench.build()
    data = collect(workloads, args.runs, args.first_seed, s["run_seconds"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f, indent=1)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    return 0 if summarize(data, earlier) else 1


if __name__ == "__main__":
    sys.exit(main())
