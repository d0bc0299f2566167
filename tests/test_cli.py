import ast
import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gausshaar
from gausshaar import cli, montecarlo, symplectic
from gausshaar.cli import STATE_CUTOFF, build_parser, main
from gausshaar.densities import EnergyConstraint
from gausshaar.haar import (
    apply_to_vacuum,
    euler_to_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
)
from gausshaar.montecarlo import sample_density_2p2
from gausshaar.serialization import (
    state_from_json_dict,
    state_to_json_dict,
    write_covariance_csv,
)
from gausshaar.symplectic import Bipartition, canonical_state


@pytest.fixture
def canonical_csv(tmp_path):
    state = canonical_state([0.8, 0.3], Bipartition(2, 2))
    path = tmp_path / "cov.csv"
    write_covariance_csv(state, path)
    return path


def _strip_timestamp(text: str) -> dict:
    doc = json.loads(text)
    doc.get("metadata", {}).pop("timestamp", None)
    return doc


class TestWilliamsonCommand:
    def test_recovers_cosh_2r(self, canonical_csv, capsys):
        code = main(
            ["williamson", "--input", str(canonical_csv), "--nA", "2", "--nB", "2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["nu"], np.cosh([1.6, 0.6]), atol=1e-10)

    def test_csv_format(self, canonical_csv, capsys):
        code = main(
            [
                "williamson", "--input", str(canonical_csv),
                "--nA", "2", "--nB", "2", "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "nu,r"
        assert float(out[1].split(",")[0]) == pytest.approx(np.cosh(1.6), abs=1e-10)

    def test_output_file(self, canonical_csv, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            [
                "williamson", "--input", str(canonical_csv),
                "--nA", "2", "--nB", "2", "--output", str(out),
            ]
        )
        assert code == 0
        assert "nu" in json.loads(out.read_text())


class TestEntropyCommand:
    def test_entropy_value(self, canonical_csv, capsys):
        code = main(
            ["entropy", "--input", str(canonical_csv), "--nA", "2", "--nB", "2"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entropy_nats"] > 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["williamson", "entropy"])
def test_state_file_displacement_key_is_ignored(command, fmt, tmp_path, capsys):
    # earlier haar-sample versions wrote an all-zero "displacement" with each
    # state; a spectrum does not depend on first moments, so the file still
    # loads and gives the same output
    state = state_to_json_dict(canonical_state([0.8, 0.3], Bipartition(2, 2)))
    path = tmp_path / "state.json"
    argv = [command, "--input", str(path), "--nA", "2", "--nB", "2", "--format", fmt]
    outputs = []
    for doc in (state, {**state, "displacement": [0.0] * 8}):
        path.write_text(json.dumps(doc))
        assert main(argv) == 0
        out = capsys.readouterr().out
        outputs.append(_strip_timestamp(out) if fmt == "json" else out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["cov.csv", "cov.json"])
@pytest.mark.parametrize("command", ["williamson", "entropy"])
def test_covariance_whose_square_overflows_rejected(command, name, tmp_path):
    # 1e160 I (det 1e640) is not symplectic, though max|cov|^2 overflows: the
    # error is the only line on stderr, with no numpy warning before it
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text('{"n_modes": 1, "covariance": [[1e160, 0.0], [0.0, 1e160]]}')
    else:
        path.write_text("# n_modes=1 ordering=interleaved\n1e160,0\n0,1e160\n")
    proc = _run_python(
        "-m", "gausshaar.cli", command, "--input", str(path), "--nA", "1", "--nB", "0",
        check=False,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "not symplectic" in json.loads(line)["error"]


def test_spectrum_of_a_block_not_positive_definite_is_a_config_error(
    canonical_csv, capsys, monkeypatch
):
    # a LinAlgError would exit 3; the spectrum raises ValueError instead
    monkeypatch.setattr(symplectic, "reduced_covariance", lambda state, modes: -np.eye(4))
    code = main(["williamson", "--input", str(canonical_csv), "--nA", "2", "--nB", "2"])
    assert "not positive definite" in _assert_config_error(code, capsys)


class TestDensityCommand:
    def test_2p2_grid_zero_on_diagonal(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "density", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5",
                "--grid", "30", "--format", "csv", "--output", str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for nu1, nu2, dens in ((float(a), float(b), float(c)) for a, b, c in rows):
            if nu1 == nu2:
                assert dens == 0.0

    def test_1p1_grid_json(self, capsys):
        code = main(["density", "--kind", "1p1", "--EA", "2", "--EB", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # uniform on [1, 2 min(E)] = [1, 4]
        assert max(doc["density"]) == pytest.approx(1.0 / 3.0)
        assert doc["nu"][-1] == pytest.approx(4.0)

    def test_unconstrained_grid_is_strict_json(self, capsys):
        # the log density is -inf where two eigenvalues coincide; strict JSON
        # has no token for it, so those entries are null
        code = main(
            ["density", "--kind", "unconstrained", "--nA", "2", "--nB", "2",
             "--grid", "12"]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        nulls = [v is None for v in doc["log_density"]]
        diagonal = [a == b for a, b in zip(doc["nu_1"], doc["nu_2"])]
        assert len(nulls) == 144
        assert nulls == diagonal

    def test_csv_to_stdout_equals_csv_file(self, tmp_path, capsys):
        argv = ["density", "--kind", "submanifold-energy", "--n", "4", "--E", "2.5",
                "--grid", "7", "--format", "csv"]
        out = tmp_path / "grid.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith("nu_1,nu_2,density\r\n")
        assert out.read_bytes() == text.encode()

    def test_2p2_grid_at_huge_energies_is_finite(self, capsys):
        # the bracket (2E_A - S)(2E_B - S) overflowed here: a RuntimeWarning
        # and null at the three grid points strictly inside the support
        code = main(
            ["density", "--kind", "2p2", "--EA", "1e200", "--EB", "1e200", "--grid", "3"]
        )
        assert code == 0
        density = json.loads(capsys.readouterr().out)["density"]
        assert len(density) == 9
        assert all(v is not None and math.isfinite(v) and v >= 0.0 for v in density)

    def test_missing_energy_is_config_error(self, capsys):
        code = main(["density", "--kind", "2p2", "--EA", "2.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "E_B" in err["error"]


class TestSampleCommand:
    def test_2p2_sample_csv(self, capsys):
        code = main(
            [
                "sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5",
                "--count", "50", "--seed", "3", "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nu_1,nu_2,E_A,E_B"
        assert len(lines) == 51

    def test_lambda_sample(self, capsys):
        code = main(
            ["sample", "--kind", "lambda", "--n", "2", "--count", "10", "--seed", "1"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["samples"]) == 10

    def test_2p2_samples_equal_library_draws(self, capsys):
        code = main(
            [
                "sample", "--kind", "2p2", "--EA", "2.5", "--EB", "3",
                "--count", "50", "--seed", "6",
            ]
        )
        assert code == 0
        rng = np.random.default_rng(6)
        rows = sample_density_2p2(EnergyConstraint(2.5, 3.0), 50, rng)
        assert json.loads(capsys.readouterr().out)["samples"] == rows.tolist()


class TestVerifyCommand:
    def test_self_test_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "--n", "4", "--EA", "2.5", "--EB", "2.5",
                "--count", "20000", "--seed", "5", "--self-test",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verification_passed"] is True
        assert doc["metadata"]["config"]["seed"] == 5
        assert doc["metadata"]["sample_count"] == 20000
        assert doc["metadata"]["acceptance_rate"] == 1.0

    def test_settings_are_echoed_once(self, tmp_path):
        # metadata.config echoes the settings, the seed included; the top
        # level keeps the run's own counts
        out = tmp_path / "report.json"
        argv = ["verify", "--n", "2", "--EA", "3", "--EB", "3", "--count", "2000"]
        assert main([*argv, "--seed", "4", "--output", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert not {"n", "E_A", "E_B", "self_test", "seed"} & set(meta)
        config = meta["config"]
        assert (config["n"], config["E_A"], config["E_B"]) == (2, 3.0, 3.0)
        assert config["self_test"] is False
        assert config["seed"] == 4 and meta["proposal_count"] == 2000
        # every proposal lies in the support and is weighted
        assert meta["sample_count"] == 2000 and meta["acceptance_rate"] == 1.0

    def test_too_few_proposals_give_no_verdict(self, tmp_path, capsys):
        # 100 proposals hold an ESS of at most 100, below the floor of 5 per
        # bin over the 55 bins of positive mass at n = 4, whatever the weights
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "--n", "4", "--EA", "2.5", "--EB", "2.5",
                "--count", "100", "--seed", "5", "--output", str(out),
            ]
        )
        assert code == 3
        assert "degenerate" in json.loads(capsys.readouterr().err)["error"]
        doc = json.loads(out.read_text())
        assert doc["verification_passed"] is None
        assert doc["metadata"]["degenerate"] is True
        assert doc["metadata"]["ess_floor"] == 275

    @pytest.mark.parametrize("n, E", [(4, "1e154"), (20, "1e31")])
    def test_huge_energies_neither_crash_nor_pass(self, n, E, tmp_path, capsys):
        # (2 min(E))^2 overflows at n = 4, which is rejected with exit 2, and
        # (2 min(E) - 1)^m overflowed at n = 20, which may end in exit 3;
        # either ends with one JSON line, but no traceback, and no verdict
        # of true beside a statistic that is not finite
        out = tmp_path / "r.json"
        code = main(
            [
                "verify", "--n", str(n), "--EA", E, "--EB", E,
                "--count", "100", "--output", str(out),
            ]
        )
        assert code in ((2,) if n == 4 else (0, 3))
        lines = capsys.readouterr().err.splitlines()
        if code != 0:
            assert len(lines) == 1
            assert json.loads(lines[0])["exit_code"] == code
        if out.exists():
            doc = json.loads(out.read_text())
            if doc["verification_passed"] is True:
                assert all(
                    v is not None and math.isfinite(v) for v in doc["comparison"].values()
                )
        else:
            assert code in (2, 3)

    def test_energies_whose_square_overflows_rejected_before_sampling(
        self, tmp_path, monkeypatch, capsys
    ):
        # from n = 4 the weights square nu, which reaches 2 min(E); at 1e200
        # the run warned, then exited 3 on a largest log-weight of nan
        def fail(*args, **kwargs):
            raise AssertionError("sampled before rejecting the energies")

        monkeypatch.setattr(montecarlo, "_pipeline_block", fail)
        out = tmp_path / "r.json"
        code = main(
            [
                "verify", "--n", "4", "--EA", "1e200", "--EB", "1e200",
                "--count", "100", "--output", str(out),
            ]
        )
        assert "at most 1.34078e+154" in _assert_config_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, codes",
        [
            (["--n", "4", "--EA", "6e153", "--EB", "6e153", "--count", "300000",
              "--seed", "0"], (0, 4)),
            (["--n", "2", "--EA", "1e200", "--EB", "1e200", "--count", "2000"], (0,)),
            (["--n", "6", "--EA", "3", "--EB", "1e300", "--count", "2000"], (0,)),
        ],
        ids=["n4-below-the-limit", "n2-any-energy", "n6-only-the-smaller-energy-bounded"],
    )
    def test_energies_within_the_limit_give_a_normalized_report(self, argv, codes, tmp_path):
        # at 6e153 the sum of the weights times the cell area overflowed, the
        # density read 0 and the run exited 2; n = 2 never squares its one
        # eigenvalue into a Vandermonde, and only the smaller energy is bounded
        out = tmp_path / "r.json"
        assert main(["verify", *argv, "--output", str(out)]) in codes
        doc = json.loads(out.read_text())
        widths = [np.diff(edges) for edges in doc["bin_edges"]]
        volume = widths[0] if len(widths) == 1 else np.multiply.outer(*widths)
        assert np.sum(np.asarray(doc["normalized_density"]) * volume) == pytest.approx(1.0)

    def test_energies_whose_double_overflows_rejected(self, tmp_path, capsys):
        # 2 min(E) = inf ended in an OverflowError traceback from the draw
        # of the uniform share
        out = tmp_path / "r.json"
        code = main(
            [
                "verify", "--n", "2", "--EA", "1e308", "--EB", "1e308",
                "--count", "100", "--output", str(out),
            ]
        )
        assert "largest double" in _assert_config_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("n", [46, 48])
    def test_n_beyond_the_law_of_the_sum_rejected_before_sampling(
        self, n, tmp_path, monkeypatch, capsys
    ):
        # from n = 46 the binomials of the law of sum(nu) exceed a double
        def fail(*args, **kwargs):
            raise AssertionError("sampled before rejecting n")

        monkeypatch.setattr(montecarlo, "_pipeline_block", fail)
        out = tmp_path / "r.json"
        code = main(
            [
                "verify", "--n", str(n), "--EA", "30", "--EB", "30",
                "--count", "10", "--output", str(out),
            ]
        )
        assert f"n = {n}" in _assert_config_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, code",
        [
            (np.linalg.LinAlgError, 3), (RuntimeError, 3), (ValueError, 2),
            (MemoryError, 3),
        ],
        ids=["linalg-error", "runtime-error", "value-error", "memory-error"],
    )
    def test_exit_code_of_an_error_in_the_command(
        self, error, code, tmp_path, monkeypatch, capsys
    ):
        # LinAlgError subclasses ValueError, yet it is a numerical failure;
        # so is numpy's MemoryError for arrays a huge --count sizes
        def fail(*args, **kwargs):
            raise error("raised by the sampler")

        monkeypatch.setattr("gausshaar.montecarlo.verify_constrained_density", fail)
        out = tmp_path / "r.json"
        argv = ["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--output", str(out)]
        assert main(argv) == code
        assert json.loads(capsys.readouterr().err) == {
            "error": "raised by the sampler", "exit_code": code,
        }
        assert not out.exists()

    def test_statistical_failure_still_writes_report(self, tmp_path):
        # no p-value exceeds 1, so a p threshold of 1 fails verification with
        # exit code 4
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "--n", "2", "--EA", "3", "--EB", "3",
                "--count", "100000", "--seed", "5", "--p-threshold", "1",
                "--output", str(out),
            ]
        )
        assert code == 4
        doc = json.loads(out.read_text())
        assert doc["verification_passed"] is False
        threshold = doc["metadata"]["config"]["p_threshold"]
        assert threshold == 1.0
        assert doc["comparison"]["p_value"] <= threshold

    def test_twelve_modes_give_a_finite_p_value(self, tmp_path):
        # at m = 6 the binomials of the S CDF exceed int64
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "--n", "12", "--EA", "7", "--EB", "7",
                "--count", "2000", "--output", str(out),
            ]
        )
        # the ESS of this run is about 930, above the floor of 50; a run
        # below it would exit 3 with no verdict
        assert code in (0, 3, 4)
        doc = json.loads(out.read_text())
        assert math.isfinite(doc["comparison"]["p_value"])
        assert (code == 3) == doc["metadata"].get("degenerate", False)
        assert (code == 3) == (doc["verification_passed"] is None)

    @pytest.mark.parametrize(
        "argv, sampler",
        [
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5"],
             "gausshaar.montecarlo.verify_constrained_density"),
            (["haar-sample", "--n", "4"], "gausshaar.haar.sample_homogeneous_gaussian_unitary"),
        ],
        ids=["verify", "haar-sample"],
    )
    def test_csv_format_rejected_before_sampling(
        self, argv, sampler, tmp_path, monkeypatch, capsys
    ):
        # these commands write JSON only, so they take no --format at all
        def fail(*args, **kwargs):
            raise AssertionError("sampled before rejecting --format")

        monkeypatch.setattr(sampler, fail)
        out = tmp_path / "out.csv"
        for fmt in ("csv", "json"):
            code = main([*argv, "--format", fmt, "--output", str(out)])
            assert code == 2
            assert not out.exists()
            assert "--format" in json.loads(capsys.readouterr().err)["error"]


class TestHaarSampleCommand:
    def test_draw_structure(self, capsys):
        code = main(
            ["haar-sample", "--n", "2", "--count", "2", "--cutoff", "5", "--seed", "9"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["draws"]) == 2
        assert doc["draws"][0]["state"]["n_modes"] == 2

    def test_every_state_reloads(self, tmp_path):
        out = tmp_path / "draws.json"
        assert main(["haar-sample", "--n", "4", "--count", "200", "--output", str(out)]) == 0
        draws = json.loads(out.read_text())["draws"]
        assert len(draws) == 200
        for draw in draws:
            assert np.array(draw["U_prime_im"]).shape == (4, 4) and len(draw["s"]) == 4
            assert state_from_json_dict(draw["state"]).covariance.shape == (8, 8)

    def test_unitary_only(self, capsys):
        code = main(["haar-sample", "--n", "3", "--count", "1", "--unitary-only"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        U = np.array(doc["draws"][0]["U_re"]) + 1j * np.array(doc["draws"][0]["U_im"])
        assert np.abs(U.conj().T @ U - np.eye(3)).max() < 1e-12

    def test_draws_equal_library_draws(self, capsys):
        assert main(["haar-sample", "--n", "3", "--count", "5", "--seed", "12"]) == 0
        rng = np.random.default_rng(12)
        g = sample_homogeneous_gaussian_unitary(3, 10.0, rng, size=5)
        state = apply_to_vacuum(euler_to_symplectic(g))
        stacks = {
            "theta": g.theta,
            "U_re": g.U.real,
            "U_im": g.U.imag,
            "s": g.s,
            "U_prime_re": g.U_prime.real,
            "U_prime_im": g.U_prime.imag,
        }
        expected = [
            {
                **{k: v[i].tolist() for k, v in stacks.items()},
                "state": {
                    "n_modes": 3,
                    "covariance": state.covariance[i].tolist(),
                },
            }
            for i in range(5)
        ]
        assert json.loads(capsys.readouterr().out)["draws"] == expected

    def test_unitary_draws_equal_library_draws(self, capsys):
        argv = ["haar-sample", "--n", "3", "--count", "5", "--seed", "12", "--unitary-only"]
        assert main(argv) == 0
        U = sample_haar_unitary(3, np.random.default_rng(12), size=5)
        expected = [{"U_re": u.real.tolist(), "U_im": u.imag.tolist()} for u in U]
        assert json.loads(capsys.readouterr().out)["draws"] == expected

    def test_traced_peak_memory_per_draw(self, tmp_path):
        # the rows are encoded straight from C-contiguous numpy stacks: about
        # 7.2 kB per draw, of which 2.8 kB is the encoded document; nested
        # Python-float lists of every draw took 12.3 kB
        out = str(tmp_path / "draws.json")
        count = 2_000
        main(["haar-sample", "--n", "4", "--count", "20", "--output", out])
        tracemalloc.start()
        try:
            assert main(["haar-sample", "--n", "4", "--count", str(count), "--output", out]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / count < 9_500

    def test_cutoff_bound(self, monkeypatch, capsys):
        # every state validates at the bound (1e4 draws at n = 1, 4 and 8);
        # beyond it the run is rejected before any draw
        argv = ["haar-sample", "--n", "1", "--count", "200", "--output", os.devnull]
        assert main([*argv, "--cutoff", str(STATE_CUTOFF)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("sampled before rejecting --cutoff")

        monkeypatch.setattr("gausshaar.haar.sample_homogeneous_gaussian_unitary", fail)
        error = _assert_config_error(main([*argv, "--cutoff", "1.01e7"]), capsys)
        assert f"{STATE_CUTOFF:g}" in error

    def test_byte_identical_excluding_timestamp(self, capsys):
        args = ["haar-sample", "--n", "2", "--count", "1", "--seed", "11"]
        main(args)
        first = _strip_timestamp(capsys.readouterr().out)
        main(args)
        second = _strip_timestamp(capsys.readouterr().out)
        assert first == second

    def test_unrepresentable_cutoff_leaves_one_error_line(self):
        # at cutoff 1e300 a covariance reaches 1e300, so its square overflows:
        # the error is the only line on stderr, with no numpy warning before it
        proc = _run_python(
            "-m", "gausshaar.cli", "haar-sample", "--n", "1", "--count", "2",
            "--cutoff", "1e300", check=False,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["exit_code"] == 2


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"count": 7, "seed": 2}))
        code = main(
            [
                "sample", "--kind", "lambda", "--n", "1",
                "--config", str(conf),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["samples"]) == 7
        assert doc["metadata"]["config"]["seed"] == 2

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"count": 7}))
        code = main(
            [
                "sample", "--kind", "lambda", "--n", "1",
                "--config", str(conf), "--count", "3",
            ]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["samples"]) == 3

    def test_env_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 2}))
        monkeypatch.setenv("GAUSSHAAR_SEED", "99")
        code = main(
            ["sample", "--kind", "lambda", "--n", "1", "--count", "2",
             "--config", str(conf)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"]["seed"] == 99

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSSHAAR_SEED", "99")
        code = main(
            ["sample", "--kind", "lambda", "--n", "1", "--count", "2", "--seed", "4"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"]["seed"] == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["sample", "--kind", "lambda", "--n", "1", "--config", str(conf)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [(None, "cannot read config file"), ("{not json", "cannot read config file"),
         ("[1, 2]", "must hold a JSON object")],
        ids=["missing", "invalid-json", "array"],
    )
    def test_unreadable_config_file_rejected(self, text, message, tmp_path, capsys):
        path = tmp_path / "conf.json"
        if text is not None:
            path.write_text(text)
        code = main(["sample", "--kind", "lambda", "--n", "1", "--config", str(path)])
        assert message in _assert_config_error(code, capsys)

    def test_invalid_count_rejected(self, capsys):
        code = main(["sample", "--kind", "lambda", "--n", "1", "--count", "0"])
        assert code == 2

    def test_non_integer_seed_in_environment_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSSHAAR_SEED", "abc")
        code = main(["sample", "--kind", "lambda", "--n", "1", "--count", "2"])
        assert code == 2
        assert "GAUSSHAAR_SEED" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "conf",
        [{"count": "abc"}, {"count": 2.5}, {"seed": 1.5}],
        ids=["count-string", "count-float", "seed-float"],
    )
    def test_non_integer_config_value_rejected(self, conf, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        code = main(["sample", "--kind", "lambda", "--n", "1", "--config", str(path)])
        assert code == 2
        assert next(iter(conf)) in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "argv, conf, sampler",
        [
            (["sample", "--kind", "lambda", "--n", "1"], {"cutoff": "abc"},
             "gausshaar.haar.sample_lambda"),
            (["sample", "--kind", "lambda", "--n", "1"], {"format": "xml"},
             "gausshaar.haar.sample_lambda"),
            (["sample", "--kind", "lambda", "--n", "1"], {"count": "7"},
             "gausshaar.haar.sample_lambda"),
            (["sample", "--kind", "lambda", "--n", "1"], {"count": True},
             "gausshaar.haar.sample_lambda"),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--count", "20000"],
             {"self_test": "no"}, "gausshaar.montecarlo.verify_constrained_density"),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5"],
             {"p_threshold": "0.5"}, "gausshaar.montecarlo.verify_constrained_density"),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5"],
             {"grid": 5}, "gausshaar.montecarlo.verify_constrained_density"),
            (["density", "--kind", "1p1", "--EA", "2", "--EB", "3"],
             {"grid": "abc"}, "gausshaar.densities.density_balanced"),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5"],
             {"format": "json"}, "gausshaar.montecarlo.verify_constrained_density"),
            (["haar-sample", "--n", "4"],
             {"format": "json"}, "gausshaar.haar.sample_homogeneous_gaussian_unitary"),
        ],
        ids=["cutoff-string", "format-choice", "count-string", "count-boolean",
             "self-test-string", "p-threshold-string", "key-of-another-command",
             "grid-string", "format-of-verify", "format-of-haar-sample"],
    )
    def test_invalid_config_value_rejected_before_sampling(
        self, argv, conf, sampler, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("sampled with an invalid configuration")

        monkeypatch.setattr(sampler, fail)
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "out.json"
        code = main([*argv, "--config", str(path), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        error = json.loads(capsys.readouterr().err)
        assert error["exit_code"] == 2
        assert next(iter(conf)) in error["error"]

    def test_flag_overrides_config_file_float(self, tmp_path, capsys):
        # the cutoff bounds the squeezing weights, so s = arccosh(lambda) / 4
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"cutoff": 1.5}))
        argv = ["haar-sample", "--n", "3", "--count", "50", "--config", str(conf)]
        assert main(argv) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main([*argv, "--cutoff", "200"]) == 0
        from_flag = json.loads(capsys.readouterr().out)
        assert from_file["metadata"]["config"]["cutoff"] == 1.5
        assert from_flag["metadata"]["config"]["cutoff"] == 200.0
        s_file = np.array([draw["s"] for draw in from_file["draws"]])
        s_flag = np.array([draw["s"] for draw in from_flag["draws"]])
        assert s_file.max() <= np.arccosh(1.5) / 4
        assert s_flag.max() > np.arccosh(1.5) / 4

    def test_config_file_sets_required_flag(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 4, "count": 5000}))
        argv = ["verify", "--EA", "2.5", "--EB", "2.5", "--self-test", "--config", str(conf)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"]["n"] == 4

    def test_flag_overrides_config_file_required_flag(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 4, "count": 5000}))
        argv = ["verify", "--EA", "2.5", "--EB", "2.5", "--self-test",
                "--config", str(conf), "--n", "2"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"]["n"] == 2

    def test_config_without_value_rejected(self, capsys):
        code = main(["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--config"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["exit_code"] == 2 and "--config" in error["error"]

    def test_config_file_sets_boolean_flag(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"unitary_only": True, "count": 2}))
        assert main(["haar-sample", "--n", "2", "--config", str(conf)]) == 0
        draws = json.loads(capsys.readouterr().out)["draws"]
        assert [sorted(draw) for draw in draws] == [["U_im", "U_re"]] * 2

    def test_usage_error_is_json(self, capsys):
        code = main(["verify", "--n", "4", "--EA", "2.5"])
        assert code == 2
        assert "--EB" in json.loads(capsys.readouterr().err)["error"]

    def test_seed_beyond_64_bits_rejected(self, capsys):
        code = main(
            ["sample", "--kind", "lambda", "--n", "1", "--seed", str(2**64)]
        )
        assert code == 2
        assert "seed" in json.loads(capsys.readouterr().err)["error"]


    @pytest.mark.parametrize("flag", [["--c", "5"], ["--conf", "x.json"]], ids=["c", "conf"])
    def test_abbreviated_flag_rejected(self, flag, capsys):
        # --c could be --count, --cutoff or --config, and --conf --config:
        # no parser reads an abbreviation, so neither is taken as a file
        code = main(["sample", "--kind", "lambda", "--n", "2", *flag])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error.startswith("unrecognized arguments") and flag[0] in error


class TestKindOptions:
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["density", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--numax", "50",
              "--nA", "3"], ["--numax (numax)", "--nA (n_A)"]),
            (["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--cutoff", "3",
              "--n", "9"], ["--cutoff (cutoff)", "--n (n)"]),
            (["sample", "--kind", "lambda", "--n", "2", "--EA", "2.5"], ["--EA (E_A)"]),
            (["haar-sample", "--n", "2", "--count", "1", "--unitary-only", "--cutoff", "5"],
             ["--cutoff (cutoff)"]),
        ],
        ids=["density-2p2", "sample-2p2", "sample-lambda", "haar-sample-unitary-only"],
    )
    def test_option_the_kind_does_not_read_rejected(self, argv, flags, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main([*argv, "--output", str(out)])
        assert code == 2
        assert not out.exists()
        error = json.loads(capsys.readouterr().err)
        assert error["exit_code"] == 2
        assert "does not read" in error["error"]
        assert all(flag in error["error"] for flag in flags)

    def test_config_key_the_kind_does_not_read_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n_A": 3}))
        code = main(["density", "--kind", "1p1", "--EA", "2", "--EB", "3",
                     "--config", str(conf)])
        assert code == 2
        assert "n_A" in json.loads(capsys.readouterr().err)["error"]
        conf.write_text(json.dumps({"cutoff": 5.0}))
        code = main(["haar-sample", "--n", "2", "--count", "1", "--unitary-only",
                     "--config", str(conf)])
        assert code == 2
        assert "--cutoff (cutoff)" in json.loads(capsys.readouterr().err)["error"]

    def test_unread_options_left_out_of_the_echoed_config(self, capsys):
        # an unread option given at its default is accepted and not echoed
        assert main(["density", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5",
                     "--grid", "3", "--numax", "10"]) == 0
        config = json.loads(capsys.readouterr().out)["metadata"]["config"]
        assert sorted(config) == ["E_A", "E_B", "command", "format", "grid", "kind"]
        assert main(["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5",
                     "--count", "5", "--format", "json"]) == 0
        config = json.loads(capsys.readouterr().out)["metadata"]["config"]
        assert sorted(config) == ["E_A", "E_B", "command", "count", "format", "kind", "seed"]
        assert main(["sample", "--kind", "lambda", "--n", "2", "--count", "5"]) == 0
        config = json.loads(capsys.readouterr().out)["metadata"]["config"]
        assert config["cutoff"] == 10.0 and "E_A" not in config
        argv = ["haar-sample", "--n", "2", "--count", "1", "--cutoff", "10", "--unitary-only"]
        assert main(argv) == 0
        assert "cutoff" not in json.loads(capsys.readouterr().out)["metadata"]["config"]
        assert main(argv[:-1]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["config"]["cutoff"] == 10.0


class TestSeed:
    DRAWS = [
        ["sample", "--kind", "lambda", "--n", "2", "--count", "3"],
        ["verify", "--n", "2", "--EA", "3", "--EB", "3", "--count", "500", "--self-test"],
        ["haar-sample", "--n", "2", "--count", "2"],
    ]
    DRAWS_NOTHING = [
        ["williamson", "--input", "{cov}", "--nA", "2", "--nB", "2"],
        ["entropy", "--input", "{cov}", "--nA", "2", "--nB", "2"],
        ["density", "--kind", "1p1", "--EA", "2", "--EB", "3", "--grid", "4"],
    ]

    def test_settable_values_of_each_command(self):
        settable = {name: len(p.settable) for name, p in build_parser().commands.items()}
        assert settable == {"williamson": 5, "entropy": 5, "density": 11, "sample": 10,
                            "verify": 8, "haar-sample": 6}

    @pytest.mark.parametrize("argv", DRAWS_NOTHING, ids=lambda argv: argv[0])
    def test_commands_that_draw_nothing_take_no_seed(
        self, argv, canonical_csv, tmp_path, capsys, monkeypatch
    ):
        argv = [arg.format(cov=canonical_csv) for arg in argv]
        assert "seed" in _assert_config_error(main([*argv, "--seed", "3"]), capsys)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 3}))
        assert "seed" in _assert_config_error(main([*argv, "--config", str(conf)]), capsys)
        assert main(argv) == 0
        plain = _strip_timestamp(capsys.readouterr().out)
        assert "seed" not in plain["metadata"] and "seed" not in plain["metadata"]["config"]
        for value in ("5", "abc"):
            monkeypatch.setenv("GAUSSHAAR_SEED", value)
            assert main(argv) == 0
            assert _strip_timestamp(capsys.readouterr().out) == plain

    @pytest.mark.parametrize("argv", DRAWS, ids=lambda argv: argv[0])
    def test_commands_that_draw_honour_flag_and_environment(self, argv, capsys, monkeypatch):
        assert main([*argv, "--seed", "5"]) == 0
        flagged = _strip_timestamp(capsys.readouterr().out)
        assert "seed" not in flagged["metadata"]
        assert flagged["metadata"]["config"]["seed"] == 5
        monkeypatch.setenv("GAUSSHAAR_SEED", "5")
        assert main(argv) == 0
        assert _strip_timestamp(capsys.readouterr().out) == flagged
        assert main([*argv, "--seed", "6"]) == 0
        assert _strip_timestamp(capsys.readouterr().out)["metadata"]["config"]["seed"] == 6


def _assert_config_error(code, capsys):
    """Exit 2, nothing on stdout, and one JSON error line on stderr."""
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == 2
    return json.loads(lines[0])["error"]


class TestInvalidValues:
    @pytest.mark.parametrize(
        "argv, conf",
        [
            (["verify", "--n", "4", "--EA", "nan", "--EB", "2.5", "--count", "10"], None),
            (["verify", "--n", "4", "--EA", "inf", "--EB", "inf", "--count", "10"], None),
            (["haar-sample", "--n", "2", "--count", "2", "--cutoff", "nan"], None),
            (["haar-sample", "--n", "2", "--count", "2", "--cutoff", "1e400"], None),
            (["sample", "--kind", "lambda", "--n", "2", "--count", "2", "--cutoff", "inf"], None),
            (["density", "--kind", "2p2", "--EA", "inf", "--EB", "3", "--grid", "3"], None),
            (["density", "--kind", "2p2", "--EB", "3", "--grid", "3"], '{"E_A": NaN}'),
            (["density", "--kind", "unconstrained", "--nA", "1", "--nB", "1",
              "--numax", "nan"], None),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--count", "10",
              "--p-threshold", "nan"], None),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--count", "10",
              "--p-threshold", "-1"], None),
            (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--count", "10",
              "--p-threshold", "5"], None),
            (["density", "--kind", "1p1", "--EA", "2", "--EB", "3", "--grid", "0"], None),
            (["density", "--kind", "1p1", "--EA", "2", "--EB", "3", "--grid", "-3"], None),
            (["sample", "--kind", "lambda", "--n", "0"], None),
        ],
        ids=["verify-nan", "verify-inf", "cutoff-nan", "cutoff-overflow", "cutoff-inf",
             "density-inf", "config-nan", "numax-nan", "p-threshold-nan",
             "p-threshold-negative", "p-threshold-above-1", "grid-0",
             "grid-negative", "lambda-n-0"],
    )
    def test_rejected_as_configuration(self, argv, conf, tmp_path, capsys):
        # a RuntimeWarning, such as eigvalsh's on a nan cutoff, is an error
        # under the pytest settings, so it fails the test too
        if conf is not None:
            path = tmp_path / "conf.json"
            path.write_text(conf)
            argv = [*argv, "--config", str(path)]
        _assert_config_error(main(argv), capsys)

    @pytest.mark.parametrize("command", ["williamson", "entropy"])
    @pytest.mark.parametrize(
        "name, text",
        [
            ("empty.json", "{}"),
            ("null.json", '{"n_modes": null, "covariance": [[1.0, 0.0], [0.0, 1.0]]}'),
            ("draws.json", None),
            ("array.json", "[[1.0, 0.0], [0.0, 1.0]]"),
            ("cov.csv", "# ordering=interleaved\n1,0\n0,1\n"),
        ],
        ids=["empty-object", "null-n-modes", "haar-sample-output", "array",
             "csv-without-n-modes"],
    )
    def test_malformed_state_file_rejected(self, command, name, text, tmp_path, capsys):
        # a haar-sample output file (text None) holds draws, not a state
        path = tmp_path / name
        if text is None:
            assert main(["haar-sample", "--n", "1", "--count", "1", "--output", str(path)]) == 0
        else:
            path.write_text(text)
        code = main([command, "--input", str(path), "--nA", "1", "--nB", "0"])
        assert "n_modes" in _assert_config_error(code, capsys)

    @pytest.mark.parametrize("command", ["williamson", "entropy"])
    @pytest.mark.parametrize(
        "name, value",
        [("cov.csv", "nan"), ("cov.csv", "inf"), ("cov.json", "NaN"),
         ("cov.json", "Infinity")],
        ids=["csv-nan", "csv-inf", "json-nan", "json-infinity"],
    )
    def test_non_finite_covariance_rejected(self, command, name, value, tmp_path, capsys):
        # a non-finite entry fails every tolerance comparison, so it must be
        # caught before them; here it sits in the B block of a vacuum
        rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                ["0", "0", value, "0"], ["0", "0", "0", "1"]]
        path = tmp_path / name
        if name.endswith(".json"):
            cov = ", ".join(f"[{', '.join(row)}]" for row in rows)
            path.write_text(f'{{"n_modes": 2, "covariance": [{cov}]}}')
        else:
            lines = [",".join(row) for row in rows]
            path.write_text("# n_modes=2 ordering=interleaved\n" + "\n".join(lines) + "\n")
        code = main([command, "--input", str(path), "--nA", "1", "--nB", "1"])
        assert "non-finite" in _assert_config_error(code, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["williamson", "--input", "{cov}", "--nA", "2", "--nB", "2"],
        ["entropy", "--input", "{cov}", "--nA", "2", "--nB", "2"],
        ["density", "--kind", "2p2", "--EA", "2.5", "--EB", "2.9", "--grid", "4"],
        ["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.9", "--count", "4"],
    ],
    ids=["williamson", "entropy", "density", "sample"],
)
def test_csv_outputs_end_lines_in_crlf(argv, canonical_csv, capsys):
    argv = [arg.format(cov=canonical_csv) for arg in argv]
    assert main([*argv, "--format", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.split("\r\n")
    assert lines[-1] == "" and all("\n" not in line for line in lines)
    for line in lines[1:-1]:
        for field in line.split(","):
            assert "%.17g" % float(field) == field


class TestSeededReproducibility:
    def test_verify_outputs_identical_for_same_seed(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "verify", "--n", "2", "--EA", "3", "--EB", "3",
                    "--count", "20000", "--seed", "8", "--self-test",
                    "--output", str(out),
                ]
            )
            assert code == 0
            doc = json.loads(out.read_text())
            doc["metadata"].pop("timestamp", None)
            # the output path is part of the config echo; normalize it
            doc["metadata"]["config"].pop("output_path", None)
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


def _run_python(*args: str, check: bool = True, text: bool = True) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout; ``text=False`` keeps raw bytes.

    The 60 s timeout turns a sampler that stalls into a failure, not a hang.
    """
    src = Path(gausshaar.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=text, check=check, timeout=60,
    )


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs every CLI start ~0.9 s
    probe = (
        "import sys, gausshaar.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert _run_python("-c", probe).stdout.strip() == "[]"


# Runs `cli.main(argv)` (nothing when argv is null) and prints which modules
# of the package have run their code, whether logging is imported, and whether
# numpy and orjson are.  A lazily registered module's namespace gains
# __builtins__ only when its code runs, and reading it through
# object.__getattribute__ does not run it.
_LOADS_PROBE = """
import json, sys
from gausshaar import cli
argv = json.loads(sys.argv[1])
if argv is not None:
    try:
        cli.main(argv)
    except SystemExit:  # --version, --help
        pass
def ran(name):
    module = sys.modules["gausshaar." + name]
    return "__builtins__" in object.__getattribute__(module, "__dict__")
print(json.dumps([[name for name in json.loads(sys.argv[2]) if ran(name)],
                  "logging" in sys.modules, "numpy" in sys.modules,
                  "orjson" in sys.modules]))
"""
_MODULES = ["symplectic", "haar", "densities", "montecarlo", "serialization"]
# every module reaches its siblings through their lazily loaded module
# objects, so only the code a command calls runs: a state (symplectic) is
# made only by haar-sample without --unitary-only, and montecarlo calls haar
# only for the Haar draws of verify from n = 6
_GROUP = ["symplectic", "haar", "serialization"]
_UNITARIES = ["haar", "serialization"]
_CLOSED_FORM = ["densities", "serialization"]
_PIPELINE = ["densities", "montecarlo", "serialization"]


@pytest.mark.parametrize(
    "argv, modules, numeric",
    [
        (None, [], False),
        (["--version"], [], False),
        (["--help"], [], False),
        (["verify", "--n", "4"], [], False),
        (["haar-sample", "--n", "2", "--config", "CONFIG"], [], False),
        (["haar-sample", "--n", "2", "--count", "3", "--output", os.devnull], _GROUP, True),
        (["haar-sample", "--n", "2", "--count", "3", "--unitary-only",
          "--output", os.devnull], _UNITARIES, True),
        (["verify", "--n", "2", "--EA", "2", "--EB", "2", "--count", "2000",
          "--output", os.devnull], _PIPELINE, True),
        (["verify", "--n", "4", "--EA", "2.5", "--EB", "2.5", "--count", "2000",
          "--output", os.devnull], _PIPELINE, True),
        (["verify", "--n", "6", "--EA", "3", "--EB", "3", "--count", "2000",
          "--output", os.devnull], ["haar", *_PIPELINE], True),
        (["density", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--grid", "5",
          "--output", os.devnull], _CLOSED_FORM, True),
        (["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--count", "3",
          "--output", os.devnull], _PIPELINE, True),
    ],
    ids=["import", "version", "help", "usage-error", "config-error", "haar-sample",
         "haar-sample-unitary-only", "verify", "verify-n4", "verify-n6", "density",
         "sample"],
)
def test_a_command_runs_only_the_modules_it_uses(argv, modules, numeric, tmp_path):
    # every module costs a process its compile; --version uses none, density
    # and verify below n = 6 run neither haar nor symplectic, and no command
    # imports logging.  numpy and orjson cost more than the interpreter's
    # start; --version, --help and every exit-2 error use neither
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"no_such_key": 1}))
    if argv is not None:
        argv = [str(config) if a == "CONFIG" else a for a in argv]
    out = _run_python("-c", _LOADS_PROBE, json.dumps(argv), json.dumps(_MODULES)).stdout
    assert json.loads(out.splitlines()[-1]) == [modules, False, numeric, numeric]


def test_a_module_that_failed_to_load_reraises_its_error():
    # the lazy module stays in sys.modules after its code raises; a second
    # read must not report a missing attribute in place of the import error
    probe = """
import sys
sys.modules["orjson"] = None
import gausshaar
for _ in range(2):
    try:
        gausshaar.serialization.dump_output
    except ImportError as exc:
        print(type(exc).__name__, exc)
"""
    out = _run_python("-c", probe).stdout.splitlines()
    assert len(out) == 2
    assert all("orjson" in line for line in out), out


@pytest.mark.parametrize(
    "module, argv",
    [
        ("numpy", ["verify", "--n", "4", "--EA", "2", "--EB", "2", "--count", "100"]),
        ("orjson", ["haar-sample", "--n", "2", "--count", "3"]),
    ],
    ids=["verify-numpy", "haar-sample-orjson"],
)
def test_a_missing_dependency_is_a_json_error(module, argv):
    # the configuration is valid, so the exit code is not 2 but its own, 5
    probe = f"""
import sys
sys.modules[{module!r}] = None
from gausshaar import cli
print(cli.main({argv!r}))
"""
    run = _run_python("-c", probe)
    assert run.stdout.splitlines() == [str(cli.EXIT_DEPENDENCY)]
    [line] = run.stderr.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == cli.EXIT_DEPENDENCY
    assert module in error["error"]


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["verify", "--n", "4"],
     ["haar-sample", "--n", "2", "--count", "3", "--output", os.devnull]],
    ids=["version", "usage-error", "haar-sample"],
)
def test_main_leaves_the_heap_unfrozen(argv, capsys):
    # a long-lived process (a test session, a notebook) keeps collecting cycles
    before = gc.get_freeze_count()
    try:
        main(argv)
    except SystemExit:  # --version
        pass
    assert gc.get_freeze_count() == before


# Sets sys.argv, runs `cli.entry()` and prints its exit code and the number of
# frozen objects as the last line of stdout.
_ENTRY_PROBE = """
import gc, json, sys
from gausshaar import cli
sys.argv = ["gausshaar", *json.loads(sys.argv[1])]
try:
    code = cli.entry()
except SystemExit as exc:  # --version
    code = exc.code
print(json.dumps([code, gc.get_freeze_count()]))
"""


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["haar-sample", "--n", "2", "--count", "3", "--output", os.devnull]],
    ids=["version", "haar-sample"],
)
def test_entry_freezes_the_heap(argv):
    out = _run_python("-c", _ENTRY_PROBE, json.dumps(argv)).stdout
    code, frozen = json.loads(out.splitlines()[-1])
    assert code == 0
    assert frozen > 0


@pytest.mark.parametrize(
    "argv, size",
    [
        # several MB of JSON through a pipe
        (["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--count", "100000"],
         2_000_000),
        (["sample", "--kind", "2p2", "--EA", "2.5", "--EB", "2.5", "--count", "1000",
          "--format", "csv"], 10_000),
    ],
    ids=["json", "csv"],
)
def test_module_entry_writes_what_main_writes(argv, size, capsysbinary):
    def strip(out: bytes) -> bytes:
        return re.sub(rb'"timestamp":"[^"]*"', b"", out)

    assert main(argv) == 0
    expected = capsysbinary.readouterr().out
    assert len(expected) > size
    run = _run_python("-m", "gausshaar.cli", *argv, text=False)
    assert strip(run.stdout) == strip(expected)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["haar-sample", "--n", "2", "--count", "3", "--output", os.devnull], 0),
        (["--help"], 0),
        (["verify", "--n", "4"], 2),
        (["verify", "--n", "2", "--EA", "2", "--EB", "2", "--count", "2000",
          "--p-threshold", "1", "--output", os.devnull], 4),
    ],
    ids=["success", "help", "usage-error", "verification-failure"],
)
def test_module_entry_exit_codes(argv, code):
    run = _run_python("-m", "gausshaar.cli", *argv, check=False)
    assert run.returncode == code, run.stderr
    if code == 2:
        assert json.loads(run.stderr)["exit_code"] == code
    else:
        assert run.stderr == ""


def test_runtime_imports_are_declared_dependencies():
    # every third-party module the package imports must be installed with it;
    # scipy, a test-only dependency, fails this like any undeclared import
    tomllib = pytest.importorskip("tomllib")
    package = Path(gausshaar.__file__).resolve().parent
    root = package.parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gausshaar"}
    assert {"numpy", "orjson"} <= third_party <= declared


def test_haar_sample_six_modes_finishes():
    out = _run_python("-m", "gausshaar.cli", "haar-sample", "--n", "6", "--count", "20")
    s = np.array([draw["s"] for draw in json.loads(out.stdout)["draws"]])
    assert s.shape == (20, 6)
    assert np.all(np.isfinite(s)) and np.all(s >= 0)


def test_submanifold_sample_eight_modes_finishes():
    out = _run_python(
        "-m", "gausshaar.cli", "sample", "--kind", "submanifold-energy",
        "--n", "8", "--E", "4", "--count", "10",
    )
    rows = np.array(json.loads(out.stdout)["samples"])
    assert rows.shape == (10, 4)
    assert np.allclose(rows.sum(axis=1), 8.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("E_A, exit_code", [("11", 3), ("6", 0)], ids=["11", "6"])
def test_very_unequal_energies_give_finite_statistics(E_A, exit_code, tmp_path):
    # at E_B = 1e6 the raw importance weights pass 1e154, so their squares
    # overflow, and at E_A = 6 the Beta-mixture weights of the law overflow.
    # At E_A = 11 the ESS is about 3, so the estimate is degenerate: the
    # report is written with no verdict and the exit code is 3; the floor is
    # at most 5 x 10 bins, fewer where a bin of S has no mass to round-off.
    # At E_A = 6 the averaged lambda-weights leave an ESS of about 115.
    out = tmp_path / "report.json"
    run = _run_python(
        "-m", "gausshaar.cli", "verify", "--n", "20", "--EA", E_A,
        "--EB", "1000000", "--count", "200", "--output", str(out), check=False,
    )
    assert run.returncode == exit_code, run.stderr
    assert "Traceback" not in run.stderr and "overflow" not in run.stderr
    doc = json.loads(out.read_text())
    if exit_code == 3:
        assert "degenerate" in json.loads(run.stderr)["error"]
        assert doc["verification_passed"] is None
        assert doc["metadata"]["degenerate"] is True
        assert doc["metadata"]["effective_sample_size"] < doc["metadata"]["ess_floor"] <= 50
    else:
        assert doc["verification_passed"] is True
        assert "degenerate" not in doc["metadata"]
    for value in (
        doc["comparison"]["chi2"],
        doc["comparison"]["p_value"],
        doc["metadata"]["effective_sample_size"],
    ):
        assert isinstance(value, float) and math.isfinite(value)


def test_readme_cli_examples_parse():
    # a flag deleted from the parser must not linger in the README examples
    root = Path(gausshaar.__file__).resolve().parent.parent.parent
    readme = (root / "README.md").read_text()
    block = re.search(r"## CLI examples\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("gausshaar ")]
    assert commands
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
