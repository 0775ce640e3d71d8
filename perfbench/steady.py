#!/usr/bin/env python3
"""Steadiness self-check: runs one workload N times and summarises it.

    python3 perfbench/steady.py --workload NAME [--runs N] [--first-seed S]
                                [--seconds S]

Each run uses its own seed (first-seed, first-seed+1, ...). For every metric
the script prints the median, the quartiles (statistics.quantiles, n=4) and
the inter-quartile spread as a share of the median, next to the bound from
BENCHMARK.json. Per run it prints the op wall-time quartiles (reference
seconds) and the max/min ratio of op times: a small ratio shows the op-time
distribution has a single peak.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for n in range(args.runs):
        seed = args.first_seed + n
        r = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stderr)
            sys.exit(f"steady.py: run with seed {seed} failed "
                     f"(exit {r.returncode})")
        result = json.loads(lines[-1])
        detail = next((json.loads(l[len("detail: "):]) for l in lines
                       if l.startswith("detail: ")), {})
        ops = detail.get("op_wall_s", {})
        ratio = ops["max"] / ops["min"] if ops.get("min") else float("nan")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"ops={detail.get('ops')} op wall p25/p50/p75 "
              f"{ops.get('p25', 0):.4g}/{ops.get('p50', 0):.4g}/"
              f"{ops.get('p75', 0):.4g} s, max/min {ratio:.3f}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                     else (v[0], v[0], v[0]))
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
