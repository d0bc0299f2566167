"""Command-line front-end: reproducible runs with config files and JSON output.

Configuration precedence is flags > environment > config file > defaults.
The one environment override is GAUSSHAAR_SEED (seed).  ``verify`` passes
when the chi-square p-value of its comparison exceeds ``--p-threshold``, for
every n.  A ``verify`` run whose effective sample size is below
MIN_EXPECTED_PER_BIN (5) times its number of histogram bins of positive
expected mass (275 at n = 4, where 55 of the 10 x 10 bins lie below
nu1 + nu2 = 2 min(E); 100 at n = 2; at most 50 otherwise) is a degenerate
estimate and gives no verdict: its report is still written, with
``degenerate`` true in the metadata and ``verification_passed`` null.
``verify`` and ``haar-sample`` write JSON only.  Exit codes: 0 success,
2 invalid configuration, 3 numerical failure (including a degenerate
``verify`` estimate), 4 statistical verification failure (the report is
still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict
from typing import Callable, Optional

import numpy as np

from . import __version__
from .densities import (
    EnergyConstraint,
    density_1p1,
    density_2p2,
    density_submanifold_energy,
    log_density_submanifold,
    log_density_unconstrained,
)
from .haar import (
    euler_to_symplectic,
    apply_to_vacuum,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
    sample_lambda,
)
from .montecarlo import (
    sample_density_2p2,
    sample_submanifold_energy,
    verify_constrained_density,
)
from .serialization import (
    dump_output,
    read_state,
    report_to_json_dict,
    samples_csv_text,
    state_to_json_dict,
    write_density_grid_csv,
)
from .symplectic import Bipartition, entanglement_entropy, williamson_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

# commands whose output has no CSV form
JSON_ONLY = ("verify", "haar-sample")

DEFAULTS = {
    "cutoff": 10.0,
    "count": 100_000,
    "format": "json",
    "seed": 0,
    "grid": 100,
    "p_threshold": 0.01,
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Fully resolved parameters of one CLI invocation."""

    command: str
    n_A: Optional[int] = None
    n_B: Optional[int] = None
    E_A: Optional[float] = None
    E_B: Optional[float] = None
    E: Optional[float] = None
    n: Optional[int] = None
    kind: Optional[str] = None
    cutoff: float = DEFAULTS["cutoff"]
    count: int = DEFAULTS["count"]
    seed: int = DEFAULTS["seed"]
    grid: int = DEFAULTS["grid"]
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    format: str = DEFAULTS["format"]
    self_test: bool = False
    unitary_only: bool = False
    p_threshold: float = DEFAULTS["p_threshold"]

    def require(self, *names):
        missing = [x for x in names if getattr(self, x) is None]
        if missing:
            raise ConfigError(
                f"command {self.command!r} requires: {', '.join(missing)}"
            )

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (overridden by flags)")
    p.add_argument("--output", dest="output_path", default=argparse.SUPPRESS)
    p.add_argument(
        "--format", choices=["csv", "json"], default=argparse.SUPPRESS
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausshaar",
        description="Invariant measures on Gaussian pure states: "
        "decomposition, densities, sampling and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("williamson", help="symplectic spectrum of a covariance file")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--nA", dest="n_A", type=int, required=True)
    p.add_argument("--nB", dest="n_B", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("entropy", help="entanglement entropy of a covariance file")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--nA", dest="n_A", type=int, required=True)
    p.add_argument("--nB", dest="n_B", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("density", help="evaluate an analytic density on a grid")
    p.add_argument(
        "--kind",
        required=True,
        choices=["unconstrained", "1p1", "2p2", "submanifold", "submanifold-energy"],
    )
    p.add_argument("--nA", dest="n_A", type=int, default=argparse.SUPPRESS)
    p.add_argument("--nB", dest="n_B", type=int, default=argparse.SUPPRESS)
    p.add_argument("--EA", dest="E_A", type=float, default=argparse.SUPPRESS)
    p.add_argument("--EB", dest="E_B", type=float, default=argparse.SUPPRESS)
    p.add_argument("--E", type=float, default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--grid", type=int, default=argparse.SUPPRESS)
    p.add_argument("--numax", dest="cutoff", type=float, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("sample", help="draw from a closed-form density")
    p.add_argument(
        "--kind", required=True, choices=["2p2", "submanifold-energy", "lambda"]
    )
    p.add_argument("--EA", dest="E_A", type=float, default=argparse.SUPPRESS)
    p.add_argument("--EB", dest="E_B", type=float, default=argparse.SUPPRESS)
    p.add_argument("--E", type=float, default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--cutoff", type=float, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser(
        "verify", help="Monte Carlo verification of a constrained density"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--EA", dest="E_A", type=float, required=True)
    p.add_argument("--EB", dest="E_B", type=float, required=True)
    p.add_argument("--count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--cutoff", type=float, default=argparse.SUPPRESS)
    p.add_argument("--self-test", dest="self_test", action="store_true",
                   default=argparse.SUPPRESS)
    p.add_argument("--p-threshold", dest="p_threshold", type=float,
                   default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser(
        "haar-sample", help="sample Haar unitaries or Gaussian unitaries"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--cutoff", type=float, default=argparse.SUPPRESS)
    p.add_argument(
        "--unitary-only",
        dest="unitary_only",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit plain Haar unitaries instead of full Gaussian unitaries",
    )
    _add_common(p)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < environment < flags into a RunConfig.

    Raises ConfigError (exit 2) on a malformed value, including a seed or
    count that is not an integer.
    """
    merged = dict(DEFAULTS)
    ns = vars(args).copy()
    config_path = ns.pop("config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(file_conf, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(file_conf)
    if "GAUSSHAAR_SEED" in os.environ:
        try:
            merged["seed"] = int(os.environ["GAUSSHAAR_SEED"])
        except ValueError:
            raise ConfigError("GAUSSHAAR_SEED must be an integer")
    merged.update({k: v for k, v in ns.items() if v is not None})
    for name in ("seed", "count"):
        if type(merged[name]) is not int:
            raise ConfigError(f"{name} must be an integer, got {merged[name]!r}")
    if merged["count"] < 1:
        raise ConfigError("count must be positive")
    # the seed is echoed in JSON, whose encoder takes 64-bit integers
    if not 0 <= merged["seed"] < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = set(merged) - allowed
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))


def _metadata(config: RunConfig) -> dict:
    return {"tool_version": __version__, "config": config.echo(), "seed": config.seed}


def _emit(
    payload: dict, config: RunConfig, csv_text: Callable[[], str] | None = None
) -> None:
    """Write the JSON payload, or in CSV mode the text ``csv_text()`` builds."""
    if config.format == "csv":
        text = csv_text()
        if config.output_path:
            with open(config.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    data = dump_output(payload, config.output_path)
    if not config.output_path:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _cmd_williamson(config: RunConfig) -> int:
    config.require("input_path", "n_A", "n_B")
    state = read_state(config.input_path)
    spectrum = williamson_spectrum(state, Bipartition(config.n_A, config.n_B))
    payload = {
        "nu": spectrum.nu,
        "r": spectrum.r,
        "metadata": _metadata(config),
    }

    def csv_text() -> str:
        rows = zip(spectrum.nu, spectrum.r)
        return "nu,r\n" + "".join(f"{nu:.17g},{r:.17g}\n" for nu, r in rows)

    _emit(payload, config, csv_text)
    return EXIT_OK


def _cmd_entropy(config: RunConfig) -> int:
    config.require("input_path", "n_A", "n_B")
    state = read_state(config.input_path)
    spectrum = williamson_spectrum(state, Bipartition(config.n_A, config.n_B))
    entropy = entanglement_entropy(spectrum)
    payload = {
        "entropy_nats": entropy,
        "nu": spectrum.nu,
        "metadata": _metadata(config),
    }
    _emit(payload, config, lambda: f"entropy_nats\n{entropy:.17g}\n")
    return EXIT_OK


def _density_grid(config: RunConfig) -> dict:
    kind = config.kind
    if kind == "1p1":
        config.require("E_A", "E_B")
        constraint = EnergyConstraint(config.E_A, config.E_B)
        nu = np.linspace(1.0, 2.0 * constraint.min_energy, config.grid)
        return {"nu": nu, "density": density_1p1(nu, constraint)}
    if kind == "2p2":
        config.require("E_A", "E_B")
        constraint = EnergyConstraint(config.E_A, config.E_B)
        axis = np.linspace(1.0, 2.0 * constraint.min_energy - 1.0, config.grid)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        return {"nu_1": X, "nu_2": Y, "density": density_2p2(X, Y, constraint)}
    if kind == "submanifold-energy":
        config.require("E", "n")
        if config.n != 4:
            raise ConfigError("grid output is implemented for --n 4")
        nu1 = np.linspace(1.0, 2.0 * config.E - 1.0, config.grid)
        nu2 = 2.0 * config.E - nu1
        dens = np.array(
            [density_submanifold_energy([a, b], config.E, 4) for a, b in zip(nu1, nu2)]
        )
        return {"nu_1": nu1, "nu_2": nu2, "density": dens}
    # unnormalized log densities over [1, numax]^{n_A}
    config.require("n_A", "n_B")
    fn = log_density_unconstrained if kind == "unconstrained" else log_density_submanifold
    if config.n_A == 1:
        nu = np.linspace(1.0, config.cutoff, config.grid)
        return {"nu": nu, "log_density": fn(nu[:, np.newaxis], config.n_A, config.n_B)}
    if config.n_A == 2:
        axis = np.linspace(1.0, config.cutoff, config.grid)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        vals = fn(np.stack([X, Y], axis=-1), config.n_A, config.n_B)
        return {"nu_1": X, "nu_2": Y, "log_density": vals}
    raise ConfigError("grid output is implemented for n_A in {1, 2}")


def _cmd_density(config: RunConfig) -> int:
    grid = _density_grid(config)
    if config.format == "csv" or (
        config.output_path and str(config.output_path).endswith(".csv")
    ):
        if not config.output_path:
            raise ConfigError("csv density grids require --output")
        write_density_grid_csv(grid, config.output_path)
        return EXIT_OK
    payload = {name: np.asarray(col).ravel() for name, col in grid.items()}
    payload["metadata"] = _metadata(config)
    _emit(payload, config)
    return EXIT_OK


def _cmd_sample(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    if config.kind == "2p2":
        config.require("E_A", "E_B")
        constraint = EnergyConstraint(config.E_A, config.E_B)
        samples = sample_density_2p2(constraint, config.count, rng)
        energies = (config.E_A, config.E_B)
    elif config.kind == "submanifold-energy":
        config.require("E", "n")
        samples = sample_submanifold_energy(config.n, config.E, config.count, rng)
        energies = (config.E, config.E)
    else:  # lambda
        config.require("n")
        samples = sample_lambda(config.n, config.cutoff, rng, size=config.count)
        energies = (float("nan"), float("nan"))
    payload = {
        "samples": np.asarray(samples),
        "metadata": _metadata(config),
    }
    _emit(payload, config, lambda: samples_csv_text(samples, energies))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    config.require("n", "E_A", "E_B")
    constraint = EnergyConstraint(config.E_A, config.E_B)
    report = verify_constrained_density(
        config.n,
        constraint,
        config.count,
        cutoff=config.cutoff,
        seed=config.seed,
        self_test=config.self_test,
    )
    payload = report_to_json_dict(report)
    payload["metadata"] = {**payload["metadata"], **_metadata(config)}
    meta = report.metadata
    degenerate = meta.get("degenerate", False)
    passed = report.comparison["p_value"] > config.p_threshold
    payload["verification_passed"] = None if degenerate else bool(passed)
    _emit(payload, config)
    if degenerate:
        _error_json(
            EXIT_NUMERICAL,
            f"degenerate estimate: effective sample size "
            f"{meta['effective_sample_size']:.4g} is below {meta['ess_floor']:g}, "
            "so there is no verdict; raise the count",
        )
        return EXIT_NUMERICAL
    return EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_haar_sample(config: RunConfig) -> int:
    config.require("n")
    rng = np.random.default_rng(config.seed)
    if config.unitary_only:
        U = sample_haar_unitary(config.n, rng, size=config.count)
        stacks = {"U_re": U.real, "U_im": U.imag}
    else:
        g = sample_homogeneous_gaussian_unitary(
            config.n, config.cutoff, rng, size=config.count
        )
        state = apply_to_vacuum(euler_to_symplectic(g))
        stacks = {
            "theta": g.theta,
            "U_re": g.U.real,
            "U_im": g.U.imag,
            "s": g.s,
            "U_prime_re": g.U_prime.real,
            "U_prime_im": g.U_prime.imag,
        }
    # each draw holds row views of C-contiguous stacks, which dump_output
    # encodes without a Python float per number
    columns = {key: np.ascontiguousarray(a) for key, a in stacks.items()}
    if not config.unitary_only:
        columns["state"] = state_to_json_dict(state)
    draws = [dict(zip(columns, row)) for row in zip(*columns.values())]
    payload = {"draws": draws, "metadata": _metadata(config)}
    _emit(payload, config)
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    if config.format == "csv" and config.command in JSON_ONLY:
        raise ConfigError(f"command {config.command!r} writes JSON only, not csv")
    handlers = {
        "williamson": _cmd_williamson,
        "entropy": _cmd_entropy,
        "density": _cmd_density,
        "sample": _cmd_sample,
        "verify": _cmd_verify,
        "haar-sample": _cmd_haar_sample,
    }
    return handlers[config.command](config)


def _error_json(code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        _error_json(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    try:
        return run(config)
    except ConfigError as exc:
        _error_json(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        _error_json(EXIT_NUMERICAL, str(exc))
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        _error_json(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
