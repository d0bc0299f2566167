#!/usr/bin/env python3
"""Benchmark of the gausshaar command line, run from the source tree next to it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one client in a closed loop.  Each operation is a fresh
`python -m gausshaar.cli ...` process, run to completion before the next one
starts, writing its output to a file that the benchmark then checks.  The seed
is passed through to every invocation as `--seed`, so a run repeats one
command and the seed picks the inputs.

Every run starts with one warm-up invocation, which is checked but not
timed.  With `--trace 0` the run measures, for `--seconds` seconds, the
end-to-end metrics: `wall_rel`, the median over invocations of the
invocation's wall time over the mean wall time of the REFERENCE process run
just before and just after it (a fixed script that uses numpy and scipy but
no gausshaar code, so its time follows the host's speed and no change to the
program moves it); `peak_rss_mb`, the median over invocations; and `setup_s`,
the median of fresh-process `--version` probes, one every PROBE_EVERY rounds,
so they spread over the whole run like the invocations.
With `--trace 1` every round makes one untraced and one traced invocation
(bench/traced_cli.py), in an order that alternates from round to round, and
it reports the per-layer metrics of tracer.py, as
medians over the traced invocations, plus `process.wall_s` and
`montecarlo.ess_per_s` from the untraced ones and `trace.overhead_frac`.
Spans are written to .bench_out/spans-<workload>-seed<seed>.json.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it holds the per-invocation detail and the
environment.  Exit status 2 means the run could not be made (no program to
measure, or a bad argument) and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

PROBE_EVERY = 2
# Host-speed reference: the numpy and scipy imports the program makes, batched
# 4x4 QR and JSON of nested lists, in a fresh interpreter, about 1.5 s on the
# 2-core host measured in NOTES.md.
REFERENCE = """\
import json
import numpy as np
import scipy.integrate, scipy.linalg, scipy.special, scipy.stats

rng = np.random.default_rng(0)
for _ in range(40):
    np.linalg.qr(rng.standard_normal((500, 4, 4)))
json.dumps([{"row": [float(v) for v in row]} for row in rng.standard_normal((20000, 4))])
"""
MIN_ROUNDS = 5
RUN_DEADLINE_S = 170.0


class SetupFailed(Exception):
    """The program cannot even start, so nothing can be measured."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], cwd: Path, timeout: float) -> tuple[float, object, int, str]:
    """Run a process to completion; returns (wall s, its rusage, exit code, stderr tail)."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(errors="replace")[-500:]
    return wall, usage, proc.returncode, tail


def probe_setup(cwd: Path, timeout: float) -> float:
    wall, _, code, tail = run_child(
        [sys.executable, "-m", "gausshaar.cli", "--version"], cwd, timeout
    )
    if code != 0:
        raise SetupFailed(f"`gausshaar --version` exited {code}: {tail}")
    return wall


def time_reference(cwd: Path, timeout: float) -> float:
    wall, _, code, tail = run_child([sys.executable, "-c", REFERENCE], cwd, timeout)
    if code != 0:
        raise SetupFailed(f"the reference process exited {code}: {tail}")
    return wall


def invoke(workload, seed, count, cwd, timeout, spans_path=None) -> dict:
    """One operation: run the CLI (traced if ``spans_path``) and check its output."""
    n = workload.count if count is None else count
    output = cwd / "output.json"
    output.unlink(missing_ok=True)
    argv = workload.argv(seed, str(output), n)
    if spans_path is None:
        cmd = [sys.executable, "-m", "gausshaar.cli", *argv]
    else:
        run_id = f"{workload.name}-seed{seed}-{spans_path.stem}"
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), run_id, "--", *argv]
    wall, usage, code, tail = run_child(cmd, cwd, timeout)
    record = {
        "traced": spans_path is not None,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": code,
    }
    if code != 0:
        record["problem"] = f"exit {code}: {tail.strip()}"
        return record
    try:
        record["bytes_written"] = output.stat().st_size
        with open(output) as fh:
            payload = json.load(fh)
        record["ess"] = workload.check(payload, n)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        record["problem"] = f"{type(exc).__name__}: {exc}"
        return record
    meta = payload.get("metadata", {})
    if "effective_sample_size" in meta:
        accepted = meta["acceptance_rate"] * meta["proposal_count"]
        record["acceptance_rate"] = meta["acceptance_rate"]
        record["ess_fraction"] = meta["effective_sample_size"] / accepted
    return record


def measure(workload, seed: int, seconds: float, trace: bool, count: int | None = None):
    """Closed loop for ``seconds``; returns (setup probe times, invocation records, spans).

    The first record is the warm-up invocation.  Untraced, every round ends
    with a reference process, and one runs before the first round, so each
    invocation gets the mean of the references either side of it as
    ``reference_s``.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    setup, invocations, spans = [], [], []
    try:
        start = time.perf_counter()
        invocations.append({**invoke(workload, seed, count, tmp, deadline - time.monotonic()),
                            "warmup": True})
        references = [] if trace else [time_reference(tmp, deadline - time.monotonic())]
        round_times = []
        while True:
            began = time.perf_counter()
            rnd = len(round_times)
            if not trace and rnd % PROBE_EVERY == 0:
                setup.append(probe_setup(tmp, deadline - time.monotonic()))
            # traced first on odd rounds, so that order effects and host drift
            # fall on both kinds of invocation alike in trace.overhead_frac
            kinds = [None, tmp / f"spans{rnd}.json"] if trace else [None]
            for spans_path in kinds[::-1] if rnd % 2 else kinds:
                invocations.append(
                    invoke(workload, seed, count, tmp, deadline - time.monotonic(), spans_path)
                )
                if spans_path is not None and spans_path.exists():
                    with open(spans_path) as fh:
                        spans.append(json.load(fh))
            if not trace:
                references.append(time_reference(tmp, deadline - time.monotonic()))
                invocations[-1]["reference_s"] = (references[-2] + references[-1]) / 2
            round_times.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if time.monotonic() >= deadline:
                break
            if len(round_times) >= MIN_ROUNDS and elapsed + statistics.median(round_times) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return setup, invocations, spans


def end_to_end_metrics(setup: list[float], invocations: list[dict]) -> dict:
    timed = [r for r in invocations if "warmup" not in r]
    return {
        "wall_rel": {
            "value": statistics.median(r["wall_s"] / r["reference_s"] for r in timed),
            "unit": "ratio",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in timed),
            "unit": "MB",
        },
    }


def per_layer_metrics(invocations: list[dict], spans: list[list[dict]]) -> dict:
    timed = [r for r in invocations if "warmup" not in r]
    traced = [r for r in timed if r["traced"] and "problem" not in r]
    untraced = [r for r in timed if not r["traced"]]
    runs = [layer_metrics(s) for s in spans] or [layer_metrics([])]
    values = {k: statistics.median(run[k] for run in runs) for k in runs[0]}
    ok = traced[0] if traced else {}
    values["serialization.bytes_written"] = ok.get("bytes_written", 0)
    values["montecarlo.acceptance_rate"] = ok.get("acceptance_rate", 0.0)
    values["montecarlo.ess"] = ok.get("ess", 0.0) if "ess_fraction" in ok else 0.0
    values["montecarlo.ess_fraction"] = ok.get("ess_fraction", 0.0)
    values["montecarlo.ess_per_s"] = statistics.median(
        r.get("ess", 0.0) / r["wall_s"] if "ess_fraction" in r else 0.0 for r in untraced
    )
    traced_wall = statistics.median(r["wall_s"] for r in timed if r["traced"])
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["process.wall_s"] = untraced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, count: int | None = None):
    """Measure one workload; returns (detail, result) as printed by main."""
    workload = WORKLOADS[workload_name]
    setup, invocations, spans = measure(workload, seed, seconds, trace, count)
    failed = sum("problem" in r for r in invocations)
    if trace:
        metrics = per_layer_metrics(invocations, spans)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload_name}-seed{seed}.json", "w") as fh:
            json.dump([s for run_spans in spans for s in run_spans], fh)
    else:
        metrics = end_to_end_metrics(setup, invocations)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "count": workload.count if count is None else count,
        "environment": environment(seed),
        "setup_s": setup,
        "invocations": invocations,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gausshaar" / "cli.py").is_file():
        print(f"no gausshaar source tree at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
