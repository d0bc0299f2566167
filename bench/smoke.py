#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (1e3 proposals or rows, 20 draws).

    python3 bench/smoke.py

Checks, for every workload, through the code run.py uses:
* an invocation exits 0 and passes its output check, and the check rejects a
  corrupted copy of that output;
* an untraced and a traced run succeed and report exactly the end-to-end or
  per-layer metrics that BENCHMARK.json names, each a finite number;
and across workloads that every module's self time is nonzero somewhere, and
that run.py exits nonzero without printing a result in a directory that holds
only BENCHMARK.json and bench/.  Takes about three minutes; exits 1 on failure.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import MODULES  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

TINY = {"verify-n4": 1000, "verify-n6": 1000, "sample-2p2": 1000, "haar-states-n4": 20}
SEED = 7


def _bump_density(p):
    p["normalized_density"] = [[1.01 * x for x in row] if isinstance(row, list) else 1.01 * row
                               for row in p["normalized_density"]]


def _bump_count(p):
    p["counts"][0][0] += 1


CORRUPTIONS = {
    "verify-n4": [lambda p: p.update(verification_passed=False), _bump_count, _bump_density],
    "verify-n6": [_bump_density],
    "sample-2p2": [lambda p: p["samples"].__setitem__(0, [0.5, 1.5]),
                   lambda p: p["samples"].__setitem__(0, [3.0, 2.5]),
                   lambda p: p["samples"].pop()],
    "haar-states-n4": [lambda p: p["draws"][0]["state"]["covariance"][0].__setitem__(1, 0.1),
                       lambda p: p["draws"].pop()],
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL {message}")


def check_metrics(result: dict, names: list[str], label: str) -> None:
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']} of {result['attempted']} operations failed")
    check(sorted(result["metrics"]) == sorted(names), f"{label}: metric names differ")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}={value!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names an unknown workload")
    run.TMP_ROOT.mkdir(exist_ok=True)
    module_seen = {m: 0.0 for m in MODULES}
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
        tmp = Path(tmp)
        for name, workload in WORKLOADS.items():
            count = TINY[name]
            record = run.invoke(workload, SEED, count, tmp, 120)
            check("problem" not in record, f"{name}: {record.get('problem')}")
            payload = json.loads((tmp / "output.json").read_text())
            for corrupt in CORRUPTIONS[name]:
                bad = copy.deepcopy(payload)
                corrupt(bad)
                try:
                    workload.check(bad, count)
                except CheckFailed:
                    continue
                check(False, f"{name}: check accepted a corrupted output")

            _, result = run.run(name, SEED, 1, False, count)
            check_metrics(result, [m["name"] for m in spec["end_to_end"]], f"{name} untraced")
            _, result = run.run(name, SEED, 1, True, count)
            check_metrics(result, [m["name"] for m in spec["per_layer"]], f"{name} traced")
            for module in MODULES:
                module_seen[module] = max(module_seen[module], result["metrics"][f"{module}.self_s"]["value"])
            print(f"smoke: {name} ok", flush=True)
        check(all(v > 0 for v in module_seen.values()), f"a module was never traced: {module_seen}")

        bare = tmp / "bare"
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-n4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
