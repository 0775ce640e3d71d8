#!/usr/bin/env python3
"""Builds and runs the attack-pipeline benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--seed N]

Run from the root of a source checkout. The repository's libraries (src/)
and perfbench/perfbench.cc are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the binary then runs with the
pinned environment below. The last line of stdout is the result JSON.
Without src/ next to perfbench/ the script exits 1 and prints no result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pool lanes, pinned so op CPU and wall times compare across runs.
LANES_WANTED = 4
RUN_TIMEOUT_S = 170


def lanes():
    return max(1, min(LANES_WANTED, len(os.sched_getaffinity(0))))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def pinned_env(bdir):
    env = dict(os.environ)
    env["SC_THREADS"] = str(lanes())
    env["SC_DATAFLOW"] = "weight_stationary"
    env.pop("SC_METRICS", None)
    env["TMPDIR"] = str(bdir / "tmp")  # compiler and run scratch stay inside
    return env


def build():
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no library sources at {ROOT / 'src'}; "
                 "run from a full source checkout")
    bdir = build_dir()
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    env = pinned_env(bdir)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", str(lanes())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return bdir / "perfbench", env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="one checked op per workload plus the known-defect "
                         "repros")
    args = ap.parse_args()
    if not args.check and not args.workload:
        ap.error("--workload is required")

    binary, env = build()
    out = binary.parent / "runs" / ("check" if args.check else args.workload)
    cmd = [str(binary), "--seed", str(args.seed), "--out", str(out)]
    if args.check:
        cmd.append("--check")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
