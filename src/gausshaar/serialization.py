"""File formats: covariance matrices as CSV/JSON, reports and samples.

Every number round-trips bit-exactly: the CSV writers use 17 significant
digits, and JSON holds the shortest digits that parse back to the same
double.  Results are encoded here and written by the caller: ``dump_output``
returns JSON bytes and the CSV builders return text, and none reads the
clock.  The CLI embeds the configuration that produced an output, and the
timestamp, its only non-reproducible field, under metadata.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import orjson

from .symplectic import GaussianPureState

FLOAT_FMT = "%.17g"


def write_covariance_csv(state: GaussianPureState, path) -> None:
    """Row-major covariance CSV with a self-describing header line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# n_modes={state.n_modes} ordering=interleaved\n")
        writer = csv.writer(fh)
        for row in state.covariance:
            writer.writerow([FLOAT_FMT % x for x in row])


def read_covariance_csv(path) -> GaussianPureState:
    """Read a covariance CSV produced by :func:`write_covariance_csv`."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing header line '# n_modes=<n> ordering=interleaved'")
        fields = dict(
            part.split("=", 1) for part in header.lstrip("#").split() if "=" in part
        )
        if "n_modes" not in fields:
            raise ValueError("covariance CSV header has no n_modes=<n> field")
        n_modes = int(fields["n_modes"])
        if fields.get("ordering", "interleaved") != "interleaved":
            raise ValueError(f"unsupported quadrature ordering {fields['ordering']!r}")
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    return GaussianPureState(n_modes=n_modes, covariance=np.array(rows))


def state_to_json_dict(state: GaussianPureState) -> dict | list[dict]:
    """{"n_modes", "covariance", "displacement"}; a list of them for a stack of states.

    A single state holds nested lists, so any JSON encoder (the stdlib's
    included) takes the dict.  A stack holds row views of C-contiguous
    stacks, which :func:`dump_output` encodes straight from numpy: a
    1000-state list would otherwise keep a Python float for every number.
    """
    if state.covariance.ndim == 2:
        return {
            "n_modes": state.n_modes,
            "covariance": state.covariance.tolist(),
            "displacement": state.displacement.tolist(),
        }
    covariance = np.ascontiguousarray(state.covariance)
    displacement = np.ascontiguousarray(state.displacement)
    return [
        {"n_modes": state.n_modes, "covariance": cov, "displacement": disp}
        for cov, disp in zip(covariance, displacement)
    ]


def state_from_json_dict(data: dict) -> GaussianPureState:
    """The state of a :func:`state_to_json_dict` object; ValueError names a missing field."""
    if not isinstance(data, dict):
        raise ValueError("a JSON state must be an object with fields n_modes and covariance")
    for name in ("n_modes", "covariance"):
        if data.get(name) is None:
            raise ValueError(f"JSON state has no {name!r} field")
    return GaussianPureState(
        n_modes=int(data["n_modes"]),
        covariance=np.array(data["covariance"], dtype=float),
        displacement=np.array(data.get("displacement", []), dtype=float)
        if data.get("displacement")
        else None,
    )


def read_state(path) -> GaussianPureState:
    """Read a state from CSV or JSON, dispatching on the file suffix."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return state_from_json_dict(json.load(fh))
    return read_covariance_csv(path)


def report_to_json_dict(report) -> dict:
    """The fields of a ``montecarlo.HistogramReport`` as a JSON object."""
    return {
        "bin_edges": [np.asarray(e).tolist() for e in report.bin_edges],
        "counts": np.asarray(report.counts).tolist(),
        "normalized_density": np.asarray(report.normalized_density).tolist(),
        "comparison": report.comparison,
        "metadata": report.metadata,
    }


def _contiguous(obj):
    """orjson ``default``: a non-contiguous array, such as a transposed or
    ``.real`` view, as a C-contiguous copy, which orjson encodes natively."""
    if isinstance(obj, np.ndarray) and not obj.flags.c_contiguous:
        return np.ascontiguousarray(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_output(payload: dict) -> bytes:
    """Encode a result payload as one line of UTF-8 JSON.

    Returns the encoded bytes, undecoded: a decoded copy would only double
    the memory held while a large document is written.

    orjson writes sorted keys, no spaces and the shortest round-trip digits
    of every float; non-finite floats become ``null`` (RFC 8259 has no
    token for them).  The stdlib encoder took most of a 1000-draw
    ``haar-sample`` run formatting floats.  float64 and int64 numpy arrays
    are encoded as they stand, in the same bytes as their ``tolist()``, so
    bulk payloads pass arrays and no Python float is made per number;
    non-contiguous arrays are copied to C order first.
    """
    return orjson.dumps(
        payload,
        default=_contiguous,
        option=orjson.OPT_SORT_KEYS
        | orjson.OPT_APPEND_NEWLINE
        | orjson.OPT_SERIALIZE_NUMPY,
    )


def samples_csv_text(samples: np.ndarray, energies) -> str:
    """One sample per row: nu_1 ... nu_m, E_A, E_B, as ``density_grid_csv_text`` writes it."""
    samples = np.atleast_2d(samples)
    columns = {f"nu_{k + 1}": samples[:, k] for k in range(samples.shape[1])}
    for name, energy in zip(("E_A", "E_B"), energies):
        columns[name] = np.full(len(samples), energy)
    return density_grid_csv_text(columns)


def density_grid_csv_text(columns: dict) -> str:
    """CSV of named columns of equal size, such as the nu axes and the density of a grid.

    One row per entry, each number with 17 significant digits, and CRLF line
    ends, as csv writes; every ``--format csv`` output is built here.
    """
    names = list(columns)
    values = [np.asarray(columns[name]).ravel().tolist() for name in names]
    row = ",".join([FLOAT_FMT] * len(names)) + "\r\n"
    return ",".join(names) + "\r\n" + "".join(row % r for r in zip(*values))
