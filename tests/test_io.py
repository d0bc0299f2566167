import json

import numpy as np
import pytest

from gausshaar.cli import main
from gausshaar.densities import EnergyConstraint
from gausshaar.montecarlo import verify_constrained_density
from gausshaar.serialization import (
    density_grid_csv_text,
    dump_output,
    read_covariance_csv,
    read_state,
    report_to_json_dict,
    samples_csv_text,
    state_from_json_dict,
    state_to_json_dict,
    write_covariance_csv,
)
from gausshaar.symplectic import (
    Bipartition,
    GaussianPureState,
    canonical_state,
    tmsv_state,
)


class TestCovarianceCsv:
    def test_round_trip_values(self, tmp_path):
        state = tmsv_state(0.8)
        path = tmp_path / "cov.csv"
        write_covariance_csv(state, path)
        back = read_covariance_csv(path)
        assert back.n_modes == 2
        assert np.array_equal(back.covariance, state.covariance)

    def test_header_is_self_describing(self, tmp_path):
        state = canonical_state([0.3], Bipartition(1, 2))
        path = tmp_path / "cov.csv"
        write_covariance_csv(state, path)
        header = path.read_text().splitlines()[0]
        assert header == "# n_modes=3 ordering=interleaved"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_covariance_csv(path)

    def test_write_is_deterministic(self, tmp_path):
        state = tmsv_state(0.37)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_covariance_csv(state, p1)
        write_covariance_csv(state, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestStateJson:
    def test_round_trip(self):
        state = tmsv_state(0.5)
        back = state_from_json_dict(state_to_json_dict(state))
        assert np.array_equal(back.covariance, state.covariance)
        assert np.array_equal(back.displacement, state.displacement)

    def test_read_state_dispatches_on_suffix(self, tmp_path):
        state = tmsv_state(0.4)
        jpath = tmp_path / "state.json"
        jpath.write_text(json.dumps(state_to_json_dict(state)))
        cpath = tmp_path / "state.csv"
        write_covariance_csv(state, cpath)
        assert np.array_equal(read_state(jpath).covariance, state.covariance)
        assert np.array_equal(read_state(cpath).covariance, state.covariance)


class TestReportJson:
    def test_report_serializes(self):
        rep = verify_constrained_density(
            2, EnergyConstraint(3.0, 3.0), 5_000, seed=1, self_test=True
        )
        doc = report_to_json_dict(rep)
        text = json.dumps(doc)  # must be JSON-serializable as-is
        parsed = json.loads(text)
        assert parsed["metadata"]["seed"] == 1
        assert len(parsed["bin_edges"][0]) == len(parsed["counts"]) + 1

    def test_dump_output_timestamp_only_in_metadata(self, capsys):
        # the encoder reads no clock; the CLI stamps metadata.timestamp, and
        # nothing else differs between two runs
        payload = {"x": 1, "metadata": {"seed": 5}}
        assert dump_output(payload) == b'{"metadata":{"seed":5},"x":1}\n'
        docs = []
        for _ in range(2):
            assert main(["sample", "--kind", "lambda", "--n", "1", "--count", "2"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        for doc in docs:
            assert isinstance(doc["metadata"].pop("timestamp"), str)
        assert docs[0] == docs[1]
        assert "timestamp" not in json.dumps(docs[0])


class TestDumpOutput:
    def test_floats_round_trip_bit_exactly(self):
        edge = [5e-324, -0.0, 0.1, 1e-7, 1e16, 1.7976931348623157e308]
        normals = np.random.default_rng(40).standard_normal(10_000).tolist()
        payload = {"edge": edge, "normals": normals, "metadata": {"seed": 40}}
        back = json.loads(dump_output(payload))
        for key in ("edge", "normals"):
            sent = np.array(payload[key])
            got = np.array(back[key])
            assert got.dtype == np.float64
            assert np.array_equal(sent.view(np.int64), got.view(np.int64))
        assert back == json.loads(json.dumps(payload, sort_keys=True))

    def test_arrays_encode_as_their_lists(self):
        rng = np.random.default_rng(41)
        wide = rng.standard_normal((50, 4, 4)) * 10.0 ** rng.uniform(-300, 300, (50, 4, 4))
        special = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1.7976931348623157e308]
        )
        arrays = {
            "stack": wide,
            "special": special,
            "special_grid": np.tile(special, (3, 1)),
            "ints": np.arange(-2**62, 2**62, 2**59, dtype=np.int64),
            "empty": np.zeros((2, 0)),
            "transposed": wide.swapaxes(-1, -2),
            "strided": special[::3],
        }
        payload = {**arrays, "rows": list(wide), "metadata": {"seed": 41}}
        twin = {k: v.tolist() for k, v in arrays.items()}
        twin.update(rows=[row.tolist() for row in wide], metadata={"seed": 41})
        assert dump_output(payload) == dump_output(twin)

    @pytest.mark.parametrize("view", ["transposed", "real", "imag"])
    def test_non_contiguous_view_encodes_as_its_list(self, view):
        rng = np.random.default_rng(42)
        z = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
        a = {
            "transposed": z.real.copy().swapaxes(-1, -2),
            "real": z.real,
            "imag": z.imag,
        }[view]
        assert not a.flags.c_contiguous
        assert dump_output({"a": a}) == dump_output({"a": a.tolist()})

    def test_unencodable_array_raises_type_error(self):
        with pytest.raises(TypeError):
            dump_output({"z": np.ones(3, dtype=complex)})

    def test_state_stack_encodes_as_its_lists(self):
        states = [tmsv_state(r) for r in (0.1, 0.5, 0.9)]
        stack = GaussianPureState(2, np.stack([s.covariance for s in states]))
        rows = state_to_json_dict(stack)
        assert all(isinstance(row["covariance"], np.ndarray) for row in rows)
        assert dump_output({"s": rows}) == dump_output(
            {"s": [state_to_json_dict(s) for s in states]}
        )


class TestSampleAndGridCsv:
    def test_samples_csv_layout(self):
        text = samples_csv_text(np.array([[1.5, 2.5], [1.1, 1.9]]), (2.5, 2.5))
        lines = text.splitlines()
        assert lines[0] == "nu_1,nu_2,E_A,E_B"
        assert len(lines) == 3
        assert [float(x) for x in lines[1].split(",")] == [1.5, 2.5, 2.5, 2.5]

    def test_grid_csv_round_trip_precision(self):
        nu = np.array([1.0 + 1e-16 + 0.1, 2.0 / 3.0])
        text = density_grid_csv_text({"nu": nu, "density": nu**2})
        assert text.count("\r\n") == 3
        lines = text.splitlines()
        assert lines[0] == "nu,density"
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed[:, 0], nu)
        assert np.array_equal(parsed[:, 1], nu**2)
