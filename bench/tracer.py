"""Span tracer interposed on the names gausshaar modules share, and per-layer metrics.

The program itself carries no spans.  `interpose` replaces, in every
`gausshaar` module that binds it, each function listed in TRACED with a
wrapper that records a span (name, start, end, parent span, run id and a few
counts taken from the arguments or the result).  `GaussianPureState` is a
class that other modules construct, so its `__init__` is wrapped instead.
Spans stay in memory until `Tracer.write`.

`vandermonde_repulsion` is deliberately not traced: its cost inside the
shell-band estimator counts as `montecarlo` time and inside the repulsion
sampler as `haar.sample_repulsive` time, which is where an optimisation of
either would show.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "serialization", "montecarlo", "haar", "densities", "symplectic")


def _matrices(result) -> dict:
    return {"matrices": 1 if result.ndim == 2 else int(result.shape[0])}


TRACED = {
    "haar.sample_haar_unitary": _matrices,
    "haar.sample_repulsive": lambda r: {"count": int(r[0].shape[0]), "rate": float(r[1])},
    "haar.sample_lambda": None,
    "haar.sample_homogeneous_gaussian_unitary": None,
    "haar.euler_to_symplectic": None,
    "haar.apply_to_vacuum": None,
    "densities.density_2p2": lambda r: {"points": int(np.size(r))},
    "montecarlo.verify_constrained_density": None,
    "montecarlo.sample_density_2p2": lambda r: {"rows": int(r.shape[0])},
    "montecarlo.weighted_ks_statistic": None,
    "montecarlo.weighted_chi2": None,
    "serialization.dump_output": None,
    "serialization.report_to_json_dict": None,
    "serialization.samples_csv_text": None,
    "serialization.state_to_json_dict": None,
    "symplectic.symplectic_form": None,
}
TRACED_CLASSES = ("symplectic.GaussianPureState",)


class Tracer:
    """Collects the spans of one run in memory; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "run": self.run_id,
                        **(attrs(result) if attrs and result is not None else {}),
                    }
                )

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def interpose(tracer: Tracer) -> None:
    """Install span wrappers on every binding of the TRACED names."""
    modules = {m: sys.modules[f"gausshaar.{m}"] for m in MODULES}
    for name, attrs in TRACED.items():
        home, attr = name.split(".")
        original = getattr(modules[home], attr)
        wrapper = tracer.wrap(name, original, attrs)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    for name in TRACED_CLASSES:
        home, attr = name.split(".")
        cls = getattr(modules[home], attr)
        cls.__init__ = tracer.wrap(name, cls.__init__)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Spans of one run come from one thread, so children never overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run; a function never called reads 0."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)
    children = defaultdict(list)
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
        for key in ("matrices", "points", "rows", "count"):
            total[f"{s['name']}.{key}"] += s.get(key, 0)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    # rows kept by the 2+2 rejection sampler over density evaluations made
    # for its proposals; the first evaluation of each call is the envelope grid
    proposals = 0
    for s in spans:
        if s["name"] == "montecarlo.sample_density_2p2":
            evals = sorted(
                (c for c in children[s["id"]] if c["name"] == "densities.density_2p2"),
                key=lambda c: c["start"],
            )
            proposals += sum(c.get("points", 0) for c in evals[1:])
    rows = total["montecarlo.sample_density_2p2.rows"]

    # the rate sample_repulsive returns, pooled over calls by draws requested
    repulsive = [s for s in spans if s["name"] == "haar.sample_repulsive" and "rate" in s]
    repulsive_proposed = sum(s["count"] / s["rate"] for s in repulsive)

    density_calls = [s for s in spans if s["name"] == "densities.density_2p2"]
    first = min(density_calls, key=lambda s: s["start"]) if density_calls else None

    metrics = {f"{m}.self_s": 0.0 for m in MODULES}
    for name, value in self_s.items():
        metrics[f"{name.split('.')[0]}.self_s"] += value
    metrics.update(
        {
            "serialization.dump_output.self_s": self_s["serialization.dump_output"],
            "serialization.state_to_json_dict.self_s": self_s[
                "serialization.state_to_json_dict"
            ],
            "montecarlo.verify_constrained_density.self_s": self_s[
                "montecarlo.verify_constrained_density"
            ],
            "montecarlo.sample_density_2p2.self_s": self_s["montecarlo.sample_density_2p2"],
            "montecarlo.sample_density_2p2.acceptance": rows / proposals if proposals else 0.0,
            "montecarlo.stats.self_s": self_s["montecarlo.weighted_ks_statistic"]
            + self_s["montecarlo.weighted_chi2"],
            "haar.sample_haar_unitary.self_s": self_s["haar.sample_haar_unitary"],
            "haar.sample_haar_unitary.calls": calls["haar.sample_haar_unitary"],
            "haar.sample_haar_unitary.matrices": total["haar.sample_haar_unitary.matrices"],
            "haar.sample_repulsive.self_s": self_s["haar.sample_repulsive"],
            "haar.sample_repulsive.acceptance": (
                total["haar.sample_repulsive.count"] / repulsive_proposed
                if repulsive
                else 0.0
            ),
            "haar.apply_to_vacuum.self_s": self_s["haar.apply_to_vacuum"],
            "haar.euler_to_symplectic.self_s": self_s["haar.euler_to_symplectic"],
            "densities.density_2p2.self_s": self_s["densities.density_2p2"],
            "densities.density_2p2.points": total["densities.density_2p2.points"],
            "densities.density_2p2.first_call_s": (
                first["end"] - first["start"] if first else 0.0
            ),
            "symplectic.GaussianPureState.self_s": self_s["symplectic.GaussianPureState"],
            "symplectic.GaussianPureState.calls": calls["symplectic.GaussianPureState"],
            "symplectic.symplectic_form.calls": calls["symplectic.symplectic_form"],
        }
    )
    return metrics
