#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark.

    python3 e2e_bench/smoke_test.py

Runs a tiny-scale seeded pass of every workload in BENCHMARK.json, and of
svc_overlay, through run.py, untraced and traced, and checks that:
  * the result line has correct == true and failed == 0 (error_rate == 0);
  * every metric BENCHMARK.json names is printed, with its unit;
  * each workload exercises the layer it was chosen for (traced run):
    pair_large resolves to the slab engine with 4 x pool-threads slabs and
    spends time serializing, gis_overlay reports slab load imbalance >= 1
    and measures the svc layer, svc_overlay hits the prepared cache and does
    no parsing.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL {what}")

    names = [w["name"] for w in spec["workloads"]]
    # svc_overlay stays runnable though BENCHMARK.json does not list it.
    for name in names + [n for n in ["svc_overlay"] if n not in names]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stamp, res = run(name, trace)
            tag = f"{name} trace={trace}"
            expect(res["correct"] is True, f"{tag}: correct")
            expect(res["attempted"] >= 1, f"{tag}: attempted >= 1")
            expect(res["failed"] == 0, f"{tag}: failed == 0")
            m = res["metrics"]
            for d in spec[key]:
                got = m.get(d["name"])
                expect(got is not None and got["unit"] == d["unit"] and
                       isinstance(got["value"], (int, float)),
                       f"{tag}: metric {d['name']} [{d['unit']}]")
            v = {k: x["value"] for k, x in m.items()}
            if trace == 0:
                expect(v["success_rate"] == 1, f"{tag}: success_rate == 1")
                print(f"done {tag}")
                continue
            expect(v["error_rate"] == 0, f"{tag}: error_rate == 0")
            if name == "pair_large":
                expect(v["psclip.slab_share"] == 1, f"{tag}: resolves to kSlab")
                expect(v["mt.slabs"] == 4 * stamp["pool_threads"],
                       f"{tag}: mt.slabs == 4 x pool threads")
                expect(v["geom.serialize_ms"] > 0, f"{tag}: serialize time")
            elif name == "gis_overlay":
                expect(v["mt.load_imbalance"] >= 1, f"{tag}: load imbalance")
                expect(v["geom.parse_ms"] > 0, f"{tag}: parse time")
                expect(v["svc.cache_hit_ratio"] >= 0.9, f"{tag}: cache hits")
            elif name == "svc_overlay":
                expect(v["svc.cache_hit_ratio"] >= 0.9, f"{tag}: cache hits")
                expect(all(v[k] == 0 for k in v if k.startswith("geom.")),
                       f"{tag}: no geom time")
            print(f"done {tag}")
    print("smoke test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
