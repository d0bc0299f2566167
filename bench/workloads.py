"""The four benchmark workloads: CLI arguments, default sizes and output checks.

Each workload is one `gausshaar` subcommand whose cost sits in a different
module (see NOTES.md for the profile behind each choice).  BENCHMARK.json
gates on `verify-n4` and `haar-states-n4`; `verify-n6` and `sample-2p2` run
the same way by hand and in the smoke test (NOTES.md says why).

A check reads the JSON file the invocation wrote and raises CheckFailed if
the output is wrong; otherwise it returns the effective sample size of the
output, which is the importance-weighted ESS for `verify` and the row or draw
count for the exact samplers (unit weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ENERGY = ("--EA", "2.5", "--EB", "2.5")
MIN_ENERGY = 2.5
NORMALIZATION_TOL = 1e-9


class CheckFailed(Exception):
    """The output of an invocation is missing or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _histogram_mass(payload: dict) -> float:
    import numpy as np

    edges = [np.asarray(e, dtype=float) for e in payload["bin_edges"]]
    cell = np.diff(edges[0])
    for e in edges[1:]:
        cell = np.multiply.outer(cell, np.diff(e))
    return float(np.sum(np.asarray(payload["normalized_density"]) * cell))


def _check_histogram(payload: dict) -> float:
    meta = payload["metadata"]
    _require(meta["sample_count"] > 0, "no accepted samples")
    mass = _histogram_mass(payload)
    _require(abs(mass - 1.0) <= NORMALIZATION_TOL, f"histogram integrates to {mass!r}")
    return float(meta["effective_sample_size"])


def check_verify_n4(payload: dict, count: int) -> float:
    import numpy as np

    _require(payload.get("verification_passed") is True, "verification_passed is not true")
    total = int(np.asarray(payload["counts"]).sum())
    expected = payload["metadata"]["sample_count"]
    _require(total == expected, f"counts sum to {total}, sample_count is {expected}")
    return _check_histogram(payload)


def check_verify_n6(payload: dict, count: int) -> float:
    return _check_histogram(payload)


def check_sample_2p2(payload: dict, count: int) -> float:
    import numpy as np

    rows = np.asarray(payload["samples"], dtype=float)
    _require(rows.shape == (count, 2), f"samples have shape {rows.shape}, wanted ({count}, 2)")
    _require(bool(np.all(rows >= 1.0)), "a sample has nu < 1")
    _require(
        bool(np.all(rows.sum(axis=1) <= 2.0 * MIN_ENERGY)),
        "a sample has nu1 + nu2 > 2 min(E)",
    )
    return float(count)


def check_haar_states(payload: dict, count: int) -> float:
    from gausshaar.serialization import state_from_json_dict
    from gausshaar.symplectic import NotAGaussianPureStateError

    draws = payload["draws"]
    _require(len(draws) == count, f"{len(draws)} draws, wanted {count}")
    for i, draw in enumerate(draws):
        try:
            state_from_json_dict(draw["state"])
        except (NotAGaussianPureStateError, ValueError, KeyError) as exc:
            raise CheckFailed(f"draw {i}: state does not reload: {exc}") from exc
    return float(count)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    count: int
    check: Callable[[dict, int], float]

    def argv(self, seed: int, output: str, count: int | None = None) -> list[str]:
        """CLI arguments of one invocation; ``count`` overrides the size."""
        n = self.count if count is None else count
        return [*self.args, "--count", str(n), "--seed", str(seed), "--output", output]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n4", ("verify", "--n", "4", *ENERGY), 300_000, check_verify_n4),
        Workload("verify-n6", ("verify", "--n", "6", *ENERGY), 300_000, check_verify_n6),
        Workload(
            "sample-2p2",
            ("sample", "--kind", "2p2", *ENERGY, "--format", "json"),
            100_000,
            check_sample_2p2,
        ),
        Workload("haar-states-n4", ("haar-sample", "--n", "4"), 1_000, check_haar_states),
    )
}
