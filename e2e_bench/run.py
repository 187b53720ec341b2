#!/usr/bin/env python3
"""Build and run the psclip end-to-end benchmark.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds e2e_bench/ (a CMake project that compiles the library
from src/) into .bench_build/ at the repository root, runs the harness and
passes its standard output through: the last line is the result JSON. A
traced run also writes .bench_build/traces/<workload>-seed<n>.json (Chrome
trace format). Exits non-zero without printing a result when the build or
the run fails. See e2e_bench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "psclip_e2e")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the harness; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "psclip_e2e"],
    ]
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def source_digest():
    """Short sha256 over the library and benchmark sources."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".hpp", ".cpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the smoke test only")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: harness exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: harness printed no result line", file=sys.stderr)
        return 1
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units "
              f"{sorted(k for k in want if k in got and want[k] != got[k])}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
