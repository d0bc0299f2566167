"""Command-line front-end: reproducible runs with config files and JSON output.

Every setting of a command is one of its argparse options, which states the
setting's default, type and choices.  Configuration precedence is flags >
environment > config file > defaults.  A ``--config`` file holds a JSON
object of ``{dest: value}`` pairs of the command's own options, such as
``{"p_threshold": 0.05}`` for ``--p-threshold 0.05``.  Its pairs become flags
just after the command, followed by ``--seed`` from GAUSSHAAR_SEED (the one
environment override) and then the flags as given, so argparse's last-wins
rule gives the precedence and checks every value's type and choices.  Only
the commands that draw (``sample``, ``verify``, ``haar-sample``) take
``--seed`` and read GAUSSHAAR_SEED; ``williamson``, ``entropy`` and
``density`` reject a ``--seed`` flag or ``seed`` key and ignore the
variable.  A file
value must also have its option's JSON type: an integer (not a boolean) for
an int option, a number for a float option, a string for a path or a
choice, and a boolean for ``--self-test`` and ``--unitary-only``.  A key the
command has no option for is rejected.  Every float setting must be
finite, ``--count`` and ``--grid`` at least 1, ``--p-threshold`` in [0, 1],
and a ``haar-sample`` ``--cutoff`` at most STATE_CUTOFF.  The file is read before
the flags parse, so it may also set a flag the command requires, such as
``{"n": 4}`` for ``verify``.  Every invalid setting, from a flag, the file
or the environment, exits 2 with a JSON error on stderr; so do argparse's usage
errors, such as a missing required flag or an abbreviated one.  An option
that a ``--kind``, or ``haar-sample --unitary-only``, does not read
(KIND_OPTIONS) must keep its default.  ``metadata.config`` of an output
echoes only values a user can set, and of those only what the run read; it
is the one record of the seed of a command that draws.  The CLI, not the
encoder, adds ``metadata.timestamp``, the one field that
differs between runs of one configuration.  Every output, JSON or CSV, goes
to ``--output`` or stdout as bytes, in one write.

``verify`` imposes the energy constraint exactly and takes no cutoff.  It
passes when the chi-square p-value of its comparison exceeds
``--p-threshold``, for every n.  A ``verify`` run whose effective sample size
is below MIN_EXPECTED_PER_BIN (5) times its number of histogram bins of
positive expected mass (275 at n = 4, where 55 of the 10 x 10 bins lie below
nu1 + nu2 = 2 min(E); 100 at n = 2; 50 otherwise) is a degenerate
estimate and gives no verdict: its report is still written, with
``degenerate`` true in the metadata and ``verification_passed`` null.
``verify`` and ``haar-sample`` write JSON only and take no ``--format``.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(including a degenerate ``verify`` estimate, and a ``--count`` whose arrays
do not fit in memory), 4 statistical verification
failure (the report is still written), 5 missing or broken runtime
dependency (numpy or orjson fails to import).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

# the submodules are read through their lazily loaded module objects, and
# numpy is imported by the handlers that use it, so a command runs only the
# modules it uses and --version, --help and usage errors import none of them
from . import __version__, densities, haar, montecarlo, serialization, symplectic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4
EXIT_DEPENDENCY = 5

# what a command reads besides --output/--format/--seed, by the flags that
# pick what it computes (see _kind)
KIND_OPTIONS = {
    ("density", "--kind unconstrained"): ("n_A", "n_B", "grid", "numax"),
    ("density", "--kind submanifold"): ("n_A", "n_B", "grid", "numax"),
    ("density", "--kind 1p1"): ("E_A", "E_B", "grid"),
    ("density", "--kind 2p2"): ("E_A", "E_B", "grid"),
    ("density", "--kind submanifold-energy"): ("E", "n", "grid"),
    ("sample", "--kind 2p2"): ("E_A", "E_B", "count"),
    ("sample", "--kind submanifold-energy"): ("E", "n", "count"),
    ("sample", "--kind lambda"): ("n", "count", "cutoff"),
    ("haar-sample", "--unitary-only"): ("n", "count"),
}

# haar-sample's largest --cutoff: a state's covariance has eigenvalues near
# 2 lambda and 1/(2 lambda), and from lambda = 3e7 round-off fails its checks
STATE_CUTOFF = 1e7

# the JSON type a config-file value must have, by the type of its option
# (bool for the store_true flags)
JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    None: (str, "a string"),
    bool: (bool, "a boolean"),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError; it reads no abbreviation.

    ``settable`` maps the dest of each option a config file may set to its
    Action; ``commands`` maps each command to its subparser.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.settable: dict[str, argparse.Action] = {}
        self.commands: dict[str, _Parser] = {}

    def option(self, *flags, **kwargs) -> argparse.Action:
        """``add_argument`` for a setting that a config file may also give."""
        action = self.add_argument(*flags, **kwargs)
        self.settable[action.dest] = action
        return action

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser, csv: bool, seed: bool):
    """--config and --output; --format if the command writes CSV, --seed if it draws."""
    p.add_argument("--config", help="JSON config file of {dest: value} settings")
    p.option("--output", dest="output_path", help="output file (default: stdout)")
    if csv:
        p.option("--format", choices=["csv", "json"], default="json")
    if seed:
        p.option("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gausshaar",
        description="Invariant measures on Gaussian pure states: "
        "decomposition, densities, sampling and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> _Parser:
        p = parser.commands[name] = sub.add_parser(name, help=help)
        return p

    for name, what in (
        ("williamson", "symplectic spectrum"),
        ("entropy", "entanglement entropy"),
    ):
        p = command(name, f"{what} of a covariance file")
        p.option("--input", dest="input_path", required=True)
        p.option("--nA", dest="n_A", type=int, required=True)
        p.option("--nB", dest="n_B", type=int, required=True)
        _add_common(p, csv=True, seed=False)

    p = command("density", "evaluate an analytic density on a grid")
    p.option(
        "--kind",
        required=True,
        choices=["unconstrained", "1p1", "2p2", "submanifold", "submanifold-energy"],
    )
    p.option("--nA", dest="n_A", type=int)
    p.option("--nB", dest="n_B", type=int)
    p.option("--EA", dest="E_A", type=float)
    p.option("--EB", dest="E_B", type=float)
    p.option("--E", type=float)
    p.option("--n", type=int)
    p.option("--grid", type=int, default=100)
    p.option("--numax", type=float, default=10.0,
             help="upper end of the nu axes of the unconstrained and submanifold grids")
    _add_common(p, csv=True, seed=False)

    p = command("sample", "draw from a closed-form density")
    p.option("--kind", required=True, choices=["2p2", "submanifold-energy", "lambda"])
    p.option("--EA", dest="E_A", type=float)
    p.option("--EB", dest="E_B", type=float)
    p.option("--E", type=float)
    p.option("--n", type=int)
    p.option("--count", type=int, default=100_000)
    p.option("--cutoff", type=float, default=10.0)
    _add_common(p, csv=True, seed=True)

    p = command("verify", "Monte Carlo verification of a constrained density")
    p.option("--n", type=int, required=True)
    p.option("--EA", dest="E_A", type=float, required=True)
    p.option("--EB", dest="E_B", type=float, required=True)
    p.option("--count", type=int, default=100_000)
    p.option("--self-test", dest="self_test", action="store_true")
    p.option("--p-threshold", dest="p_threshold", type=float, default=0.01)
    _add_common(p, csv=False, seed=True)

    p = command("haar-sample", "sample Haar unitaries or Gaussian unitaries")
    p.option("--n", type=int, required=True)
    p.option("--count", type=int, default=100_000)
    p.option("--cutoff", type=float, default=10.0)
    p.option(
        "--unitary-only",
        dest="unitary_only",
        action="store_true",
        help="emit plain Haar unitaries instead of full Gaussian unitaries",
    )
    _add_common(p, csv=False, seed=True)
    return parser


def _file_flags(command: _Parser, path: str) -> list[str]:
    """The flags of ``command`` that the settings in the JSON file ``path`` stand for."""
    try:
        with open(path) as fh:
            settings = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(settings, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for dest, value in settings.items():
        action = command.settable.get(dest)
        if action is None:
            raise ConfigError(f"unknown configuration key {dest!r} for {command.prog!r}")
        flag = action.option_strings[0]
        kind, name = JSON_TYPES[bool if action.nargs == 0 else action.type]
        # a JSON true is a Python int too
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise ConfigError(f"configuration key {dest!r} must be {name}, got {value!r}")
        if kind is not bool:
            flags.append(f"{flag}={value}")
        elif value:
            flags.append(flag)
    return flags


def parse_config(argv=None) -> argparse.Namespace:
    """The run configuration of ``argv``: flags > GAUSSHAAR_SEED > config file > defaults.

    Raises ConfigError (exit 2) on any invalid setting.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = []
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        # the file is read before the one parse, so it can set a required flag
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        flags = _file_flags(command, path) if path else []
        if "seed" in command.settable and "GAUSSHAAR_SEED" in os.environ:
            try:
                flags.append(f"--seed={int(os.environ['GAUSSHAAR_SEED'])}")
            except ValueError:
                raise ConfigError("GAUSSHAAR_SEED must be an integer") from None
    # flags go just after the command: no top-level option takes a value
    args = parser.parse_args([*argv[:1], *flags, *argv[1:]])
    del args.config
    command = parser.commands[args.command]
    for action in command.settable.values():
        value = getattr(args, action.dest)
        if action.type is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{action.option_strings[0]} ({action.dest}) must be finite")
    _check_kind_options(command, args)
    for dest in ("count", "grid"):
        if dest in args and getattr(args, dest) < 1:
            raise ConfigError(f"{dest} must be positive")
    if "p_threshold" in args and not 0.0 <= args.p_threshold <= 1.0:
        raise ConfigError("--p-threshold must be in [0, 1]")
    if args.command == "haar-sample" and "cutoff" in args and args.cutoff > STATE_CUTOFF:
        raise ConfigError(f"--cutoff above {STATE_CUTOFF:g} gives unrepresentable states")
    # the seed is echoed in JSON, whose encoder takes 64-bit integers
    if "seed" in args and not 0 <= args.seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    return args


def _kind(args: argparse.Namespace) -> str:
    """The flags that pick what ``args.command`` computes: ``--kind K``, or ``--unitary-only``."""
    if "kind" in args:
        return f"--kind {args.kind}"
    return "--unitary-only" if getattr(args, "unitary_only", False) else ""


def _check_kind_options(command: _Parser, args: argparse.Namespace) -> None:
    """Require what the kind of ``args`` reads (KIND_OPTIONS), and reject the rest
    unless it is at its default; then drop the rest from ``args``."""
    kind = f"{args.command} {_kind(args)}"
    reads = KIND_OPTIONS.get((args.command, _kind(args)))
    if reads is None:
        return
    common = ("kind", "unitary_only", "output_path", "format", "seed")
    unread = [a for a in command.settable.values() if a.dest not in (*reads, *common)]
    given = [f"{a.option_strings[0]} ({a.dest})" for a in unread
             if getattr(args, a.dest) != a.default]
    if given:
        raise ConfigError(f"{kind} does not read {', '.join(given)}")
    missing = [dest for dest in reads if getattr(args, dest) is None]
    if missing:
        raise ConfigError(f"{kind} requires: {', '.join(missing)}")
    for action in unread:
        delattr(args, action.dest)


def _metadata(config: argparse.Namespace) -> dict:
    settings = {k: v for k, v in vars(config).items() if v is not None}
    time = datetime.now(timezone.utc).isoformat()
    return {"tool_version": __version__, "config": settings, "timestamp": time}


def _emit(
    payload: dict, config: argparse.Namespace, csv_text: Callable[[], str] | None = None
) -> None:
    """Write the JSON payload, or in CSV mode the text ``csv_text()`` builds, in one write."""
    if getattr(config, "format", "json") == "csv":
        data = csv_text().encode()
    else:
        data = serialization.dump_output(payload)
    if config.output_path:
        with open(config.output_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _cmd_spectrum(config: argparse.Namespace) -> int:
    """``williamson`` (nu and r) or ``entropy`` (its value, and nu) of a covariance file."""
    state = serialization.read_state(config.input_path)
    spectrum = symplectic.williamson_spectrum(
        state, symplectic.Bipartition(config.n_A, config.n_B)
    )
    if config.command == "entropy":
        entropy = symplectic.entanglement_entropy(spectrum)
        payload = {"entropy_nats": entropy, "nu": spectrum.nu}
        columns = {"entropy_nats": [entropy]}
    else:
        payload = columns = {"nu": spectrum.nu, "r": spectrum.r}
    payload = {**payload, "metadata": _metadata(config)}
    _emit(payload, config, lambda: serialization.density_grid_csv_text(columns))
    return EXIT_OK


def _grid_axes(hi: float, points: int, m: int) -> tuple[dict, np.ndarray]:
    """The grid [1, hi]^m: its named coordinate columns and its stack (..., m) of nu."""
    import numpy as np

    axes = np.meshgrid(*[np.linspace(1.0, hi, points)] * m, indexing="ij")
    names = ["nu"] if m == 1 else [f"nu_{k + 1}" for k in range(m)]
    return dict(zip(names, axes)), np.stack(axes, axis=-1)


def _density_grid(config: argparse.Namespace) -> dict:
    import numpy as np

    kind = config.kind
    if kind in ("1p1", "2p2"):
        constraint = densities.EnergyConstraint(config.E_A, config.E_B)
        m = 1 if kind == "1p1" else 2
        # the balanced law's support reaches nu_k = 2 min(E) - (m - 1)
        grid, nu = _grid_axes(2.0 * constraint.min_energy - (m - 1), config.grid, m)
        return {**grid, "density": densities.density_balanced(nu, constraint)}
    if kind == "submanifold-energy":
        if config.n != 4:
            raise ConfigError("grid output is implemented for --n 4")
        nu1 = np.linspace(1.0, 2.0 * config.E - 1.0, config.grid)
        nu2 = 2.0 * config.E - nu1
        dens = densities.density_submanifold_energy(np.stack([nu1, nu2], axis=-1), config.E, 4)
        return {"nu_1": nu1, "nu_2": nu2, "density": dens}
    # unnormalized log densities over [1, numax]^{n_A}
    if config.n_A not in (1, 2):
        raise ConfigError("grid output is implemented for n_A in {1, 2}")
    fn = (
        densities.log_density_unconstrained
        if kind == "unconstrained"
        else densities.log_density_submanifold
    )
    grid, nu = _grid_axes(config.numax, config.grid, config.n_A)
    return {**grid, "log_density": fn(nu, config.n_A, config.n_B)}


def _cmd_density(config: argparse.Namespace) -> int:
    import numpy as np

    grid = _density_grid(config)
    payload = {name: np.asarray(col).ravel() for name, col in grid.items()}
    payload["metadata"] = _metadata(config)
    _emit(payload, config, lambda: serialization.density_grid_csv_text(grid))
    return EXIT_OK


def _cmd_sample(config: argparse.Namespace) -> int:
    import numpy as np

    rng = np.random.default_rng(config.seed)
    if config.kind == "2p2":
        constraint = densities.EnergyConstraint(config.E_A, config.E_B)
        samples = montecarlo.sample_balanced(2, constraint, config.count, rng)
        energies = (config.E_A, config.E_B)
    elif config.kind == "submanifold-energy":
        samples = montecarlo.sample_submanifold_energy(config.n, config.E, config.count, rng)
        energies = (config.E, config.E)
    else:  # lambda
        samples = haar.sample_lambda(config.n, config.cutoff, rng, size=config.count)
        energies = (float("nan"), float("nan"))
    payload = {
        "samples": np.asarray(samples),
        "metadata": _metadata(config),
    }
    _emit(payload, config, lambda: serialization.samples_csv_text(samples, energies))
    return EXIT_OK


def _cmd_verify(config: argparse.Namespace) -> int:
    constraint = densities.EnergyConstraint(config.E_A, config.E_B)
    report = montecarlo.verify_constrained_density(
        config.n,
        constraint,
        config.count,
        seed=config.seed,
        self_test=config.self_test,
    )
    payload = serialization.report_to_json_dict(report)
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


def _cmd_haar_sample(config: argparse.Namespace) -> int:
    import numpy as np

    rng = np.random.default_rng(config.seed)
    if config.unitary_only:
        U = haar.sample_haar_unitary(config.n, rng, size=config.count)
        stacks = {"U_re": U.real, "U_im": U.imag}
    else:
        g = haar.sample_homogeneous_gaussian_unitary(
            config.n, config.cutoff, rng, size=config.count
        )
        state = haar.apply_to_vacuum(haar.euler_to_symplectic(g))
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
        columns["state"] = serialization.state_to_json_dict(state)
    draws = [dict(zip(columns, row)) for row in zip(*columns.values())]
    payload = {"draws": draws, "metadata": _metadata(config)}
    _emit(payload, config)
    return EXIT_OK


COMMANDS = {
    "williamson": _cmd_spectrum,
    "entropy": _cmd_spectrum,
    "density": _cmd_density,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "haar-sample": _cmd_haar_sample,
}


def _error_json(code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


def _is_numerical(exc: Exception) -> bool:
    """Whether ``exc`` is a numerical failure: RuntimeError, MemoryError or LinAlgError.

    numpy raises a MemoryError subclass for an array too large for memory,
    such as one sized by a huge ``--count``.  numpy's LinAlgError subclasses
    ValueError, so it is tested before the configuration errors; it can only
    come from code that imported numpy.
    """
    numpy = sys.modules.get("numpy")
    return isinstance(exc, (RuntimeError, MemoryError)) or (
        numpy is not None and isinstance(exc, numpy.linalg.LinAlgError)
    )


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        return COMMANDS[config.command](config)
    # ConfigError, LinAlgError and numpy's out-of-memory error included
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        code = EXIT_NUMERICAL if _is_numerical(exc) else EXIT_CONFIG
        _error_json(code, str(exc))
        return code
    except ImportError as exc:  # a lazily loaded module's numpy or orjson import
        _error_json(EXIT_DEPENDENCY, f"missing or broken runtime dependency: {exc}")
        return EXIT_DEPENDENCY


def entry() -> int:
    """The process entry: ``main()``, then ``gc.freeze()``.

    The ``gausshaar`` script and ``python -m gausshaar.cli`` call it.  The
    frozen heap sits in the permanent generation, which the interpreter's
    exit-time collections skip; atexit handlers, the flushing of the standard
    streams and module teardown still run.  The freeze also follows
    argparse's SystemExit (``--version``, ``--help``) and an uncaught
    exception.  ``main(argv)``, the in-process API, never freezes: a
    long-lived process must keep collecting its cycles.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
