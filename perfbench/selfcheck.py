#!/usr/bin/env python3
"""Self-check of the benchmark's own output, at smoke size.

Usage (from the repository root, after `python3 perfbench/run.py` has built
once, or with cargo available to build):

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json with `--smoke` (tiny inputs), once
untraced and once traced, and checks that:

* the last stdout line is a result object with exactly `correct`,
  `attempted`, `failed` and `metrics`, and the run was correct;
* the untraced run emits exactly the `end_to_end` names and the traced run
  exactly the `per_layer` names of BENCHMARK.json, each value a number
  carrying its declared unit. Every run, traced or not, drives all four
  paths, so every metric applies to every workload and must be emitted
  by each; the benchmark writes no placeholder for a metric it did not
  compute, so a metric that goes uncomputed shows here as missing;
* every per-layer metric is described in `perfbench/layers.json`, naming
  the part of the traced run it comes from and declaring the end-to-end
  metric and workload it should move (or, for harness metrics, the
  figures it guards), using only names BENCHMARK.json defines.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PARTS = {"batch", "serve", "restart", "ingest", "serve + ingest", "all"}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.load(open("BENCHMARK.json"))
    layers = json.load(open(os.path.join(HERE, "layers.json")))["metrics"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    for name in per_layer:
        entry = layers.get(name)
        if entry is None:
            problems.append(f"layers.json does not describe {name}")
            continue
        if entry.get("part") not in PARTS:
            problems.append(f"{name} names no part of the traced run ({entry.get('part')!r})")
        claims = entry.get("moves", []) + entry.get("guards", [])
        if not claims and entry.get("layer") != "harness":
            problems.append(f"{name} declares no end-to-end metric it moves")
        for c in claims:
            if c["metric"] not in e2e or c["workload"] not in workloads:
                problems.append(f"{name} names unknown {c['metric']}@{c['workload']}")
        for metric in entry.get("flat", []):
            if metric not in e2e:
                problems.append(f"{name} is flat on unknown metric {metric}")
    for name in layers:
        if name not in per_layer:
            problems.append(f"layers.json describes {name}, which BENCHMARK.json lacks")

    for workload in workloads:
        for trace, declared in ((0, e2e), (1, per_layer)):
            res = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
                problems.append(f"{tag}: run not correct: {res.get('attempted')} attempted, {res.get('failed')} failed")
            got = res.get("metrics", {})
            for name in sorted(set(got) ^ set(declared)):
                problems.append(f"{tag}: {name} {'missing' if name in declared else 'not declared'}")
            for name, v in got.items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{tag}: {name} has no numeric value")
                if v.get("unit") != declared.get(name):
                    problems.append(f"{tag}: {name} unit {v.get('unit')!r}, declared {declared.get(name)!r}")
            print(f"{tag}: {len(got)} metrics, {res.get('attempted')} attempted", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
