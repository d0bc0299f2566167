#!/usr/bin/env python3
"""Steadiness mode: two sets of runs on one commit, and whether they agree.

    python3 bench/steadiness.py [--baseline FILE]

Each run is a separate `bench/run.py` process, as a harness would start it.
Within a set the workloads are interleaved across repeats (repeat 1 of every
workload, then repeat 2, ...), so that a burst of host load lands on all of
them rather than on one.  Each run lasts run_seconds of BENCHMARK.json and
the workloads are those it lists.  Set A uses seeds 1..10 and set B seeds
101..110.  For every end-to-end metric and workload the report gives
each set's median and quartiles, its spread (interquartile distance over the
median) and how much worse B's median is than A's, and checks them against
the bounds in BENCHMARK.json:

* spread within the bound, for every metric ("steady" when it is below a
  third of the bound);
* B's median no worse than A's by more than the bound, for every metric.

Writes .bench_out/steadiness.json and exits 1 if a check fails.  With
`--baseline FILE` it also makes one traced run per workload and writes the
medians and quartiles of both sets together, the per-layer metrics and the
environment to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of bench/run.py; returns (detail, result)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {"A": range(1, RUNS + 1), "B": range(101, 101 + RUNS)}

    values = {s: {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads} for s in sets}
    failed = {w: 0 for w in workloads}
    walls = []
    environment = None
    for set_name, seeds in sets.items():
        for seed in seeds:
            for workload in workloads:
                detail, result = bench_run(workload, seed, seconds, 0)
                environment = {k: v for k, v in detail["environment"].items() if k != "seed"}
                walls.append({"set": set_name, "seed": seed, "workload": workload,
                              "invocation_wall_s": [r["wall_s"] for r in detail["invocations"]],
                              "setup_s": detail["setup_s"]})
                failed[workload] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[set_name][workload][name].append(metric["value"])
                print(f"set {set_name} seed {seed} {workload}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}", flush=True)

    rows, ok = [], True
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary(values["A"][workload][name])
            b = summary(values["B"][workload][name])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread_ok = max(a["spread"], b["spread"]) <= bound
            agree = worse <= bound
            ok &= spread_ok and agree
            rows.append({
                "workload": workload, "metric": name, "bound": bound, "A": a, "B": b,
                "b_worse_by": worse, "spread_ok": spread_ok, "medians_agree": agree,
                "steady": max(a["spread"], b["spread"]) < bound / 3,
            })
            print(f"{workload:15s} {name:12s} A {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                  f"spread {a['spread']:.3f} | B {b['median']:.4g} spread {b['spread']:.3f} | "
                  f"B worse by {worse:+.3f} (bound {bound}) "
                  f"{'ok' if spread_ok and agree else 'FAIL'}{'' if rows[-1]['steady'] else ' (not steady)'}")
    for workload, n in failed.items():
        if n:
            ok = False
            print(f"{workload}: {n} failed operations")

    OUT_DIR.mkdir(exist_ok=True)
    report = {"seconds": seconds, "runs": RUNS, "environment": environment,
              "failed": failed, "rows": rows, "values": values, "runs_detail": walls, "ok": ok}
    (OUT_DIR / "steadiness.json").write_text(json.dumps(report, indent=1))

    if args.baseline:
        per_layer = {}
        for workload in workloads:
            _, result = bench_run(workload, 1, seconds, 1)
            per_layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        end_to_end = {
            w: {m["name"]: summary(values["A"][w][m["name"]] + values["B"][w][m["name"]])
                for m in spec["end_to_end"]}
            for w in workloads
        }
        baseline = {"environment": environment, "seconds": seconds, "runs_per_set": RUNS,
                    "end_to_end": end_to_end, "per_layer_seed1": per_layer}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
