"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criterion 3 compares the end-to-end exactly constrained pipeline for a 1 + 1
bipartition against the uniform reference density on [1, 2 min(E_A, E_B)].
Under the convention E = tr(sigma_X)/4, a one-mode subsystem has
E >= nu/2, so the support reaches 2 min(E_A, E_B).
"""

import time

import numpy as np
from scipy import stats

from gausshaar.densities import (
    EnergyConstraint,
    density_2p2,
    energy_mixing_parameters,
    g_2p2,
    mean_energy,
    mean_energy_from_state,
)
from gausshaar.haar import (
    euler_to_symplectic,
    passive_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
)
from gausshaar.montecarlo import (
    g_constraint_mc,
    sample_submanifold_energy,
    verify_constrained_density,
)
from gausshaar.symplectic import (
    Bipartition,
    GaussianPureState,
    canonical_state,
    entanglement_entropy,
    reduced_spectrum,
    williamson_spectrum,
)


def _verdict(number: int, description: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_canonical_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = rng.integers(1, 4)
        r = np.sort(rng.uniform(0.0, 1.5, n))[::-1]
        bp = Bipartition(n, n)
        spectrum = williamson_spectrum(canonical_state(r, bp), bp)
        worst = max(worst, np.abs(spectrum.nu - np.cosh(2 * r)).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _verdict(
        1,
        "canonical round-trip recovers cosh(2r)",
        ok,
        f"max error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_local_passive_invariance():
    rng = np.random.default_rng(102)
    bp = Bipartition(2, 2)
    state = canonical_state([1.1, 0.4], bp)
    nu0 = williamson_spectrum(state, bp).nu
    worst = 0.0
    for _ in range(100):
        K = passive_symplectic(sample_haar_unitary(2, rng))
        Kp = passive_symplectic(sample_haar_unitary(2, rng))
        S = np.zeros((8, 8))
        S[:4, :4], S[4:, 4:] = K, Kp
        moved = GaussianPureState(4, S @ state.covariance @ S.T)
        worst = max(worst, np.abs(williamson_spectrum(moved, bp).nu - nu0).max())
    ok = worst < 1e-8
    _verdict(
        2,
        "spectrum invariant under local passive conjugation",
        ok,
        f"max deviation {worst:.2e}",
    )


def test_criterion_3_one_plus_one_constrained_law():
    constraint = EnergyConstraint(3.0, 3.0, 0.05)
    report = verify_constrained_density(
        2, constraint, 1_000_000, cutoff=10.0, seed=103
    )
    ks = report.comparison["ks_statistic"]
    ok = ks < 0.03
    _verdict(
        3,
        "1+1 pipeline histogram matches uniform on [1, 2 min(E)]",
        ok,
        f"KS {ks:.3f} vs threshold 0.03",
    )


def test_criterion_4_two_plus_two_constrained_law():
    constraint = EnergyConstraint(2.5, 2.5, 0.05)
    report = verify_constrained_density(
        4, constraint, 300_000, cutoff=10.0, seed=104
    )
    p = report.comparison["p_value"]
    accepted = report.metadata["sample_count"]
    ess = report.metadata["effective_sample_size"]
    ok = p > 0.01 and accepted >= 10_000 and ess >= 10_000
    _verdict(
        4,
        "2+2 pipeline matches the closed-form density",
        ok,
        f"chi2 p {p:.3f}, accepted {accepted}, ESS {ess:.0f}",
    )


def test_criterion_5_g_function_oracles():
    rng = np.random.default_rng(105)
    nus = np.array([1.2, 1.6, 2.2, 3.0])
    logs = []
    for nu in nus:
        est, _ = g_constraint_mc([nu], 3.0, 2, 1_000_000, 0.05, 10.0, rng)
        logs.append(np.log(est))
    slope = np.polyfit(np.log(nus), logs, 1)[0]
    slope_ok = abs(slope + 1.0) < 0.05

    points = [(1.2, 1.8), (1.0, 2.0)]
    ests = [
        g_constraint_mc(list(p), 2.5, 4, 2_000_000, 0.05, 10.0, rng) for p in points
    ]
    ratio = ests[0][0] / ests[1][0]
    stderr = ratio * np.hypot(ests[0][1] / ests[0][0], ests[1][1] / ests[1][0])
    target = g_2p2(*points[0], 2.5) / g_2p2(*points[1], 2.5)
    ratio_ok = abs(ratio - target) < 3 * stderr
    ok = slope_ok and ratio_ok
    _verdict(
        5,
        "shell estimator reproduces the closed-form g functions",
        ok,
        f"slope {slope:.3f} (want -1 +/- 0.05), ratio {ratio:.3f} vs "
        f"{target:.3f} +/- {3 * stderr:.3f}",
    )


def test_criterion_6_two_plus_two_density_structure():
    constraint = EnergyConstraint(2.5, 2.5)
    axis = np.linspace(1.0, 4.0, 200)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    dens = density_2p2(X, Y, constraint)
    diagonal_zero = np.all(np.diag(dens) == 0.0)
    i, j = np.unravel_index(np.argmax(dens), dens.shape)
    argmax_on_edge = min(axis[i], axis[j]) == 1.0
    ok = diagonal_zero and argmax_on_edge
    _verdict(
        6,
        "closed-form density vanishes on equal eigenvalues and peaks at nu=1",
        ok,
        f"diag zero {diagonal_zero}, argmax at ({axis[i]:.2f}, {axis[j]:.2f})",
    )


def test_criterion_7_submanifold_fixed_energy_law():
    rng = np.random.default_rng(107)
    samples = sample_submanifold_energy(4, 2.0, 100_000, rng)

    def cdf(v):
        return np.clip(((v - 2.0) ** 3 + 1.0) / 2.0, 0.0, 1.0)

    ks = stats.kstest(samples[:, 0], cdf).statistic
    ok = ks < 0.02
    _verdict(
        7,
        "fixed-energy simplex sampler matches the squared-gap segment law",
        ok,
        f"KS {ks:.4f} vs threshold 0.02",
    )


def test_criterion_8_haar_sanity():
    rng = np.random.default_rng(108)
    moment_ok = True
    detail = []
    for n in (2, 4):
        U = sample_haar_unitary(n, rng, size=100_000)
        sq = np.abs(U) ** 2
        mean = sq.mean(axis=0)
        stderr = sq.std(axis=0, ddof=1) / np.sqrt(U.shape[0])
        dev = np.abs(mean - 1.0 / n) / stderr
        moment_ok &= bool(np.all(dev < 4.0))
        detail.append(f"n={n} max z {dev.max():.2f}")
    U2 = sample_haar_unitary(2, rng, size=100_000)
    ks = stats.kstest(np.abs(U2[:, 0, 0]) ** 2, "uniform").statistic
    uniform_ok = ks < 0.01
    ok = moment_ok and uniform_ok
    _verdict(
        8,
        "Haar moments and |U_11|^2 distribution",
        ok,
        "; ".join(detail) + f"; KS {ks:.4f}",
    )


def test_criterion_9_energy_consistency():
    rng = np.random.default_rng(109)
    bp = Bipartition(2, 2)
    worst = 0.0
    for _ in range(100):
        nu = np.sort(rng.uniform(1.0, 3.5, 2))[::-1]
        state = canonical_state(np.arccosh(nu) / 2, bp)
        g_a = sample_homogeneous_gaussian_unitary(2, 5.0, rng)
        g_b = sample_homogeneous_gaussian_unitary(2, 5.0, rng)
        S = np.zeros((8, 8))
        S[:4, :4] = euler_to_symplectic(g_a)
        S[4:, 4:] = euler_to_symplectic(g_b)
        moved = GaussianPureState(4, S @ state.covariance @ S.T)
        e_a, e_b = mean_energy_from_state(moved, bp)
        for energy, g in ((e_a, g_a), (e_b, g_b)):
            U_eff, lam_eff = energy_mixing_parameters(g)
            worst = max(worst, abs(energy - mean_energy(U_eff, lam_eff, nu)))
    ok = worst < 1e-8
    _verdict(
        9,
        "state-trace energies agree with the mixing-matrix formula",
        ok,
        f"max deviation {worst:.2e} over 100 random 4-mode states",
    )


def test_criterion_10_entropy_consistency():
    exact_zero = entanglement_entropy(np.array([1.0])) == 0.0
    worst = 0.0
    for nu in (1.5, 3.0, 10.0):
        p = reduced_spectrum(nu, j_max=3000)
        shannon = -np.sum(p[p > 0] * np.log(p[p > 0]))
        worst = max(worst, abs(entanglement_entropy(np.array([nu])) - shannon))
    ok = exact_zero and worst < 1e-10
    _verdict(
        10,
        "closed-form entropy equals the Shannon entropy of the reduced spectrum",
        ok,
        f"S(1)=0 {exact_zero}, max deviation {worst:.2e}",
    )
