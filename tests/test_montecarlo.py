import functools
import itertools
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gausshaar.densities import EnergyConstraint, balanced_sum_law, density_balanced, g_2p2
from gausshaar import montecarlo
from gausshaar.haar import sample_haar_unitary
from gausshaar.montecarlo import (
    BLOCK,
    MIN_EXPECTED_PER_BIN,
    HistogramReport,
    _constrained_lambda_weight,
    _sum_marginal_cdf,
    chi2_sf,
    g_constraint_mc,
    sample_balanced,
    sample_density_2p2,
    sample_submanifold_energy,
    verify_constrained_density,
    weighted_chi2,
    weighted_ks_statistic,
)


def _vandermonde(x):
    """prod_{h<k} |x_h - x_k| along the last axis, as a plain product."""
    x = np.asarray(x, dtype=float)
    pairs = itertools.combinations(range(x.shape[-1]), 2)
    return np.prod([np.abs(x[..., h] - x[..., k]) for h, k in pairs], axis=0)


def _sum_cdf_by_polynomial(m, c):
    """CDF of S = sum(nu) by exact integration of its marginal polynomial.

    The marginal is u^(m^2 - 1) [(2 E_A - m - u)(2 E_B - m - u)]^a in
    u = S - m on [0, 2 min(E) - m], a = (m - 1)(m + 2)/2, of degree at most
    75 for m <= 6.  Gauss-Legendre quadrature with 40 nodes integrates it
    exactly, and evaluating it as a product of positive factors cancels
    nothing, where its coefficients in powers of u would (at m = 4 they
    alternate in sign with magnitudes up to 1e4 times the integral).
    """
    a = (m - 1) * (m + 2) // 2
    nodes, node_weights = np.polynomial.legendre.leggauss(40)

    def integral(u):
        t = 0.5 * u[..., None] * (1.0 + nodes)
        pdf = t ** (m * m - 1) * ((2 * c.E_A - m - t) * (2 * c.E_B - m - t)) ** a
        return 0.5 * u * (pdf * node_weights).sum(axis=-1)

    top = 2.0 * c.min_energy - m
    return lambda s: integral(np.clip(s - m, 0.0, top)) / integral(np.array(top))


def _sum_bin_masses_exact(m, c, edges):
    """Masses of S = sum(nu) between the float ``edges``, in exact rationals.

    The marginal of x = (S - m)/L, L = 2 min(E) - m, is up to a constant
    x^(m^2 - 1) (u_A - x)^a (u_B - x)^a with u = (2E - m)/L; its coefficients
    and antiderivative are expanded in ``Fraction`` and rounded once at the end.
    """
    a = (m - 1) * (m + 2) // 2
    L = 2 * min(Fraction(c.E_A), Fraction(c.E_B)) - m
    poly = [Fraction(0)] * (m * m - 1) + [Fraction(1)]
    for E in (c.E_A, c.E_B):
        u = (2 * Fraction(E) - m) / L
        for _ in range(a):
            poly = [u * hi - lo for hi, lo in zip(poly + [0], [0] + poly)]
    antiderivative = [Fraction(0)] + [coef / (i + 1) for i, coef in enumerate(poly)]

    def integral(x):
        return functools.reduce(lambda acc, coef: acc * x + coef, reversed(antiderivative))

    F = [integral((Fraction(float(e)) - m) / L) for e in edges]
    return np.array([float((hi - lo) / F[-1]) for lo, hi in zip(F, F[1:])])


class TestSampleDensity2p2:
    constraint = EnergyConstraint(2.5, 2.5)

    def test_support_respected(self):
        rng = np.random.default_rng(30)
        samples = sample_density_2p2(self.constraint, 20_000, rng)
        assert samples.min() >= 1.0
        assert samples.sum(axis=1).max() <= 2 * self.constraint.min_energy

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(31)
        samples = sample_density_2p2(self.constraint, 50_000, rng)
        frac = (samples[:, 0] > samples[:, 1]).mean()
        assert abs(frac - 0.5) < 3 * 0.5 / np.sqrt(samples.shape[0])

    def test_mean_total_matches_quadrature(self):
        from scipy import integrate
        from gausshaar.densities import density_2p2

        rng = np.random.default_rng(32)
        count = 50_000
        samples = sample_density_2p2(self.constraint, count, rng)
        total = samples.sum(axis=1)
        moment, _ = integrate.dblquad(
            lambda y, x: (x + y) * density_2p2(x, y, self.constraint),
            1.0, 4.0, 1.0, 4.0, epsabs=1e-10, epsrel=1e-8,
        )
        stderr = total.std(ddof=1) / np.sqrt(count)
        assert abs(total.mean() - moment) < 3 * stderr

    # (2.2, 2.9) has b > 0, so every Beta component carries weight
    @pytest.mark.parametrize(
        "m, energies, seed",
        [
            pytest.param(2, (2.5, 2.5), 46, id="energies0-46"),
            pytest.param(2, (2.2, 2.9), 47, id="energies1-47"),
            pytest.param(3, (2.2, 2.9), 48, id="m3"),
        ],
    )
    def test_exact_sampler_laws(self, m, energies, seed):
        c = EnergyConstraint(*energies)
        samples = sample_balanced(m, c, 100_000, np.random.default_rng(seed))
        total = samples.sum(axis=1)
        assert stats.kstest(total, _sum_cdf_by_polynomial(m, c)).pvalue > 0.01
        if m == 2:
            # given S, D = nu1 - nu2 has density prop. to D^2 on |D| <= S - 2
            t = (samples[:, 0] - samples[:, 1]) / (total - 2.0)
            assert stats.kstest(t, lambda v: (v**3 + 1.0) / 2.0).pvalue > 0.01

    @pytest.mark.parametrize(
        "m, energies",
        [
            pytest.param(2, (2.5, 2.5), id="energies0"),
            pytest.param(2, (2.2, 2.9), id="energies1"),
            pytest.param(2, (1.5, 4.0), id="energies2"),
            pytest.param(2, (1.2, 1.3), id="energies3"),
            pytest.param(1, (2.2, 2.9), id="m1"),
            pytest.param(3, (2.2, 2.9), id="m3"),
            pytest.param(3, (1.6, 4.0), id="m3-small-support"),
            pytest.param(4, (2.5, 2.5), id="m4"),
            pytest.param(4, (2.2, 2.9), id="m4-unequal"),
            pytest.param(6, (4.0, 4.6), id="m6"),
        ],
    )
    def test_sum_cdf_matches_polynomial_integral(self, m, energies):
        c = EnergyConstraint(*energies)
        s = np.linspace(m - 0.5, 2.0 * c.min_energy + 0.5, 201)
        exact = _sum_cdf_by_polynomial(m, c)(s)
        cdf = _sum_marginal_cdf(m, c)(s)
        # from m = 6 the binomial coefficients exceed int64; they must not
        # turn the CDF into an array of Python objects
        assert cdf.dtype == np.float64
        assert np.abs(cdf - exact).max() < 1e-12

    @pytest.mark.parametrize(
        "n, energies",
        [(2, (3.0, 3.0)), (2, (2.2, 4.0)), (6, (2.2, 2.9)), (8, (4.0, 4.0)),
         (8, (4.0, 5.0)), (10, (5.0, 5.0)), (12, (7.0, 7.0))],
    )
    def test_sum_bin_masses_match_exact_rationals(self, n, energies):
        # a difference of the CDF gave 0 for the top bin at n = 12, E = 7
        # (mass 1.5e-21) and missed it by 19% at n = 10, E = 5
        m = n // 2
        c = EnergyConstraint(*energies)
        edges = np.linspace(m, 2.0 * c.min_energy, (20 if m == 1 else 10) + 1)
        exact = _sum_bin_masses_exact(m, c, edges)
        assert np.all(exact > 0)
        masses = montecarlo._sum_bin_masses(m, c, edges)
        np.testing.assert_allclose(masses, exact, rtol=1e-13, atol=0.0)


class TestSampleSubmanifoldEnergy:
    def test_simplex_constraint_exact(self):
        rng = np.random.default_rng(33)
        samples = sample_submanifold_energy(4, 2.0, 10_000, rng)
        assert np.abs(samples.sum(axis=1) - 4.0).max() < 1e-12

    def test_point_simplex_n2(self):
        rng = np.random.default_rng(34)
        samples = sample_submanifold_energy(2, 1.5, 100, rng)
        assert np.array_equal(samples, np.full((100, 1), 3.0))

    def test_segment_law_n4(self):
        # nu_1 along the segment follows the normalized squared gap density
        rng = np.random.default_rng(35)
        samples = sample_submanifold_energy(4, 2.0, 100_000, rng)
        nu1 = samples[:, 0]

        def cdf(v):
            # density prop. to (2 nu1 - 4)^2 on [1, 3]
            return ((v - 2.0) ** 3 + 1.0) / 2.0

        ks = stats.kstest(nu1, lambda v: np.clip(cdf(v), 0.0, 1.0)).statistic
        assert ks < 0.02

    @pytest.mark.parametrize("m, seed", [(3, 42), (4, 43)])
    def test_simplex_selberg_moment(self, m, seed):
        # y = (nu - 1)/(2E - m) has density prop. to Delta(y)^2 on the unit
        # simplex.  By homogeneity, int_simplex Delta^(2g) = L_m(g) /
        # Gamma(m + g m(m-1)), with L_m(g) the Laguerre Selberg integral
        # prod_j Gamma(1 + j g) Gamma(1 + (j+1) g) / Gamma(1 + g), so
        # E[Delta(y)^2] is that ratio at g = 2 over g = 1.
        def simplex_integral(g):
            laguerre = math.prod(
                math.gamma(1 + j * g) * math.gamma(1 + (j + 1) * g) / math.gamma(1 + g)
                for j in range(m)
            )
            return laguerre / math.gamma(m + g * m * (m - 1))

        E = 3.5
        nu = sample_submanifold_energy(2 * m, E, 100_000, np.random.default_rng(seed))
        assert nu.min() >= 1.0
        v = _vandermonde((nu - 1.0) / (2.0 * E - m)) ** 2
        stderr = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - simplex_integral(2.0) / simplex_integral(1.0)) < 4 * stderr

    def test_empty_simplex(self):
        with pytest.raises(ValueError):
            sample_submanifold_energy(6, 1.0, 10, np.random.default_rng(0))


class TestGConstraintMc:
    def test_one_over_nu_ratio(self):
        rng = np.random.default_rng(36)
        e1, s1 = g_constraint_mc([1.0], 3.0, 2, 400_000, 0.05, 10.0, rng)
        e2, s2 = g_constraint_mc([2.0], 3.0, 2, 400_000, 0.05, 10.0, rng)
        ratio = e1 / e2
        stderr = ratio * np.sqrt((s1 / e1) ** 2 + (s2 / e2) ** 2)
        assert abs(ratio - 2.0) < 3 * stderr

    def test_shell_width_insensitivity(self):
        rng = np.random.default_rng(37)
        e1, s1 = g_constraint_mc([1.5], 3.0, 2, 400_000, 0.05, 10.0, rng)
        e2, s2 = g_constraint_mc([1.5], 3.0, 2, 400_000, 0.025, 10.0, rng)
        assert abs(e1 - e2) < 3 * np.hypot(s1, s2)

    def test_cutoff_check(self):
        with pytest.raises(ValueError):
            g_constraint_mc([1.0], 3.0, 2, 100, 0.05, 4.0, np.random.default_rng(0))

    def test_stderr_scaling(self):
        rng = np.random.default_rng(38)
        _, s_small = g_constraint_mc([1.5], 3.0, 2, 50_000, 0.05, 10.0, rng)
        _, s_big = g_constraint_mc([1.5], 3.0, 2, 200_000, 0.05, 10.0, rng)
        assert s_big < s_small
        assert s_small / s_big < 2 * 2.0  # 1/sqrt(4) scaling within factor 2


class TestWeightedStatistics:
    def test_ks_of_perfect_uniform_grid(self):
        v = np.linspace(0.005, 0.995, 100)
        w = np.ones(100)
        ks = weighted_ks_statistic(v, w, lambda x: x)
        assert ks < 0.011

    def test_chi2_detects_gross_mismatch(self):
        W = np.array([1000.0, 0.0])
        chi2, dof, p = weighted_chi2(W, W, 1000, np.array([0.5, 0.5]))
        assert p < 1e-6

    def test_chi2_accepts_matching_split(self):
        rng = np.random.default_rng(39)
        idx = (rng.random(10_000) < 0.5).astype(int)
        W = np.bincount(idx, minlength=2).astype(float)
        chi2, dof, p = weighted_chi2(W, W, 10_000, np.array([0.5, 0.5]))
        assert p > 0.001

    def test_chi2_tail_matches_scipy(self):
        worst = 0.0
        scales = np.array([0.05, 0.3, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0])
        for dof in range(1, 401):
            for x in (1e-3, 0.5, *(dof * scales)):
                ref = stats.chi2.sf(x, dof)
                worst = max(worst, abs(chi2_sf(float(x), dof) / ref - 1.0))
        assert worst < 1e-11
        assert chi2_sf(0.0, 3) == 1.0


def _mean_constrained_weight(nu, E, count, rng):
    """Mean and standard error of the exact-constraint weight over Haar |U|^2."""
    nu = np.asarray(nu, dtype=float)
    U = sample_haar_unitary(nu.size, rng, size=count)
    w = np.exp(_constrained_lambda_weight(np.abs(U) ** 2 @ nu, E, rng))
    return w.mean(), w.std(ddof=1) / np.sqrt(count)


def _assert_constant_ratio(ratios, stderrs):
    ratios, stderrs = np.asarray(ratios), np.asarray(stderrs)
    mean = np.average(ratios, weights=stderrs**-2)
    assert np.all(np.abs(ratios - mean) < 3 * stderrs), (ratios, stderrs)


class TestConstrainedLambdaWeight:
    def test_one_mode_is_two_over_nu(self):
        # delta(E - lambda nu / 2) integrates over lambda to 2 / nu
        rng = np.random.default_rng(3)
        nu = rng.uniform(1.0, 7.0, size=(10_000, 1))
        E = 3.0
        got = np.exp(_constrained_lambda_weight(nu, E, rng))
        want = np.where(2.0 * E - nu[:, 0] > 0, 2.0 / nu[:, 0], 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.any(want == 0.0) and np.any(want > 0.0)

    def test_two_modes_proportional_to_g_2p2(self):
        rng = np.random.default_rng(4)
        E = 3.0
        ratios, stderrs = [], []
        for nu in [(1.0, 1.0), (1.5, 1.0), (2.0, 1.3), (3.0, 1.5), (1.2, 1.1)]:
            mean, stderr = _mean_constrained_weight(nu, E, 100_000, rng)
            g = g_2p2(*nu, E)
            ratios.append(mean / g)
            stderrs.append(stderr / g)
        _assert_constant_ratio(ratios, stderrs)

    def test_three_modes_match_shell_hits(self):
        # g_constraint_mc counts raw shell hits; at E = 7 a shell of width
        # 0.5 inflates g ~ (2E - sum nu)^5 by 2.8-3.3% at these points, alike
        # to within 0.6%, well inside the statistical error
        rng = np.random.default_rng(5)
        E, width = 7.0, 0.5
        ratios, stderrs = [], []
        for nu in [(1.0, 1.0, 1.0), (1.2, 1.0, 1.1), (1.3, 1.0, 1.6)]:
            mean, stderr = _mean_constrained_weight(nu, E, 100_000, rng)
            hits, hits_err = g_constraint_mc(nu, E, 6, 300_000, width, 2.0 * E, rng)
            ratio = mean / hits
            ratios.append(ratio)
            stderrs.append(ratio * np.hypot(stderr / mean, hits_err / hits))
        _assert_constant_ratio(ratios, stderrs)


class TestVerifyPipeline:
    def test_self_test_calibration_across_seeds(self):
        c = EnergyConstraint(3.0, 3.0)
        c4 = EnergyConstraint(2.5, 2.5)
        pvals = []
        for seed in range(20):
            rep = verify_constrained_density(2, c, 20_000, seed=seed, self_test=True)
            pvals.append(rep.comparison["p_value"])
            assert rep.comparison["ks_statistic"] < 0.03
        for n in (4, 6):
            for seed in range(5):
                rep = verify_constrained_density(
                    n, c4, 10_000, seed=seed, self_test=True
                )
                pvals.append(rep.comparison["p_value"])
        assert min(pvals) > 0.001

    def test_pipeline_1p1_actual_law_is_uniform_to_twice_min_energy(self):
        # The end-to-end pipeline puts uniform mass on [1, 2 min(E)]:
        # nothing in the construction cuts the support at min(E).
        c = EnergyConstraint(3.0, 3.0, 0.05)
        rep = verify_constrained_density(2, c, 500_000, cutoff=10.0, seed=40)
        top = 2.0 * c.min_energy
        # reconstruct the weighted CDF against uniform on [1, 2 min(E)]
        edges = rep.bin_edges[0]
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        mass = rep.normalized_density * widths
        uniform_mass = np.clip(
            (np.minimum(edges[1:], top) - np.minimum(edges[:-1], top)) / (top - 1.0),
            0.0,
            None,
        )
        assert np.abs(np.cumsum(mass) - np.cumsum(uniform_mass)).max() < 0.03
        # and it is NOT uniform on [1, min(E)]: half the mass lies above min(E)
        above = mass[mids > c.min_energy].sum()
        assert above > 0.4

    def test_pipeline_2p2_matches_closed_form(self):
        # unequal energies weight all three Beta components of the proposal
        for c, count in [
            (EnergyConstraint(2.5, 2.5, 0.05), 200_000),
            (EnergyConstraint(2.2, 2.9), 1_000_000),
        ]:
            rep = verify_constrained_density(4, c, count, cutoff=10.0, seed=41)
            assert rep.comparison["p_value"] > 0.01, c
            assert rep.comparison["ks_statistic"] < 0.02, c
            assert rep.metadata["effective_sample_size"] > 10_000, c

    def test_shell_halving_stability(self):
        # verify imposes the constraint exactly, so the width is not read:
        # at one seed both widths give the same report
        base = EnergyConstraint(2.5, 2.5, 0.05)
        half = EnergyConstraint(2.5, 2.5, 0.025)
        rep_a = verify_constrained_density(4, base, 100_000, seed=42)
        rep_b = verify_constrained_density(4, half, 100_000, seed=42)
        assert np.array_equal(rep_a.counts, rep_b.counts)
        assert rep_a.comparison == rep_b.comparison
        assert rep_a.metadata == rep_b.metadata
        assert rep_a.comparison["p_value"] > 0.01

    @pytest.mark.parametrize(
        "n, c, cutoff",
        [
            (2, EnergyConstraint(2.5, 2.5), 10.0),
            (4, EnergyConstraint(2.5, 2.5), 10.0),
            (6, EnergyConstraint(2.0, 2.0, 0.4), 5.0),
        ],
        ids=["2", "4", "6"],
    )
    # 2 BLOCK + 7 proposals cross two block boundaries and end in a short block
    @pytest.mark.parametrize(
        "count", [20_000, 2 * BLOCK + 7], ids=["one-block", "three-blocks"]
    )
    def test_determinism_for_fixed_seed(self, n, c, cutoff, count):
        a = verify_constrained_density(n, c, count, cutoff=cutoff, seed=7)
        b = verify_constrained_density(n, c, count, cutoff=cutoff, seed=7)
        assert a.metadata["proposal_count"] == count
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.normalized_density, b.normalized_density)
        assert a.comparison == b.comparison

    def test_1p1_weights_nearly_flat(self):
        # uniform proposals on [1, 2 min(E)] against a uniform law: the
        # invariant factor nu^2 cancels the two 2/nu delta factors
        c = EnergyConstraint(3.0, 3.0, 0.05)
        rep = verify_constrained_density(2, c, 200_000, cutoff=10.0, seed=40)
        meta = rep.metadata
        assert meta["ess_fraction"] > 0.9
        assert meta["ess_fraction"] == pytest.approx(
            meta["effective_sample_size"] / meta["sample_count"]
        )
        assert 0.0 < meta["max_weight_share"] < 1e-3

    def test_generic_n_matches_closed_form(self):
        # n = 6 is compared through S = sum(nu) against the balanced law
        c = EnergyConstraint(2.0, 2.0, 0.4)
        rep = verify_constrained_density(6, c, 400_000, cutoff=5.0, seed=44)
        assert rep.comparison["p_value"] > 0.01
        assert rep.comparison["ks_statistic"] < 0.02

    def test_zero_accepted_diagnostic(self, monkeypatch):
        # every closed-form proposal lies in the support, so all proposals
        # are drawn from the box [1, 3.1]^3, where sum(nu) <= 2 min(E) = 3.1
        # has probability (0.1 / 2.1)^3 / 6 < 2e-5 per draw
        monkeypatch.setattr(montecarlo, "DEFENSIVE", 1.0)
        c = EnergyConstraint(1.55, 1.55, 0.005)
        with pytest.raises(RuntimeError, match="zero accepted"):
            verify_constrained_density(6, c, 20, cutoff=3.5, seed=7)

    def test_low_energy_1p1_has_support(self):
        # 2 min(E) = 1.6 > n/2 = 1: the law is uniform on [1, 1.6]
        for c in (EnergyConstraint(0.8, 0.8, 0.01), EnergyConstraint(0.8, 0.8)):
            rep = verify_constrained_density(2, c, 500_000, cutoff=10.0, seed=0)
            assert rep.comparison["ks_statistic"] < 0.03, c

    def test_empty_support_rejected_before_sampling(self):
        # 2 min(E) = 2.4 <= n/2 = 3: no three eigenvalues >= 1 fit
        c = EnergyConstraint(1.2, 1.2, 0.05)
        with pytest.raises(ValueError, match="n/2 = 3"):
            verify_constrained_density(6, c, 20_000, cutoff=10.0, seed=0)


class TestReport:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_weight_scale_leaves_every_statistic_unchanged(self, n, monkeypatch):
        # 1e200 times the weights would overflow their squares; every
        # reported statistic is invariant to the scale of the weights
        c = EnergyConstraint(2.5, 2.5)
        base = verify_constrained_density(n, c, 5_000, seed=3)
        block = montecarlo._pipeline_block

        def scaled(*args):
            values, log_weights = block(*args)
            return values, log_weights + math.log(1e200)

        monkeypatch.setattr(montecarlo, "_pipeline_block", scaled)
        big = verify_constrained_density(n, c, 5_000, seed=3)
        assert big.comparison["dof"] == base.comparison["dof"]
        for key in ("chi2", "p_value", "ks_statistic"):
            assert big.comparison[key] == pytest.approx(base.comparison[key], rel=1e-12)
        for key in ("effective_sample_size", "ess_fraction", "max_weight_share"):
            assert big.metadata[key] == pytest.approx(base.metadata[key], rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_binning_matches_numpy_histograms(self, n):
        # the old construction as an independent reference: np.histogram of
        # S, or np.histogram2d of (nu1, nu2) at n = 4
        m = n // 2
        c = EnergyConstraint(2.2, 2.9)
        values, log_weights = montecarlo._pipeline_block(m, c, 20_000, np.random.default_rng(n))
        bins = 20 if m == 1 else 10
        rep = montecarlo._report(m, c, [(values, log_weights)], {"proposal_count": len(values)})
        weights = np.exp(log_weights)
        if m == 2:
            edges = np.linspace(1.0, 2.0 * c.min_energy - 1.0, bins + 1)
            counts, _, _ = np.histogram2d(*values.T, bins=[edges, edges])
            mass, _, _ = np.histogram2d(*values.T, bins=[edges, edges], weights=weights)
            cell = np.outer(np.diff(edges), np.diff(edges))
            want_edges = [edges, edges]
        else:
            S = values.sum(axis=1)
            edges = np.linspace(m, max(S.max(), 2.0 * c.min_energy), bins + 1)
            counts, _ = np.histogram(S, edges)
            mass, _ = np.histogram(S, edges, weights=weights)
            cell = np.diff(edges)
            want_edges = [edges]
        assert all(np.array_equal(a, b) for a, b in zip(rep.bin_edges, want_edges))
        assert np.array_equal(rep.counts, counts)
        density = mass / (weights.sum() * cell)
        assert np.allclose(rep.normalized_density, density, rtol=1e-8, atol=0.0)


def _previous_report(m, c, values, log_weights):
    """The report as np.digitize, a polyval CDF and a concatenated KS build it.

    Returns (counts, density, chi2, dof, ks) from the joined accepted samples,
    an independent reference for the block-wise reduction of ``_report``.
    """
    weights = np.exp(log_weights - log_weights.max())
    S = values.sum(axis=1)
    L, a, law, _ = balanced_sum_law(m, c)
    p = m * m
    share = np.concatenate([np.ones(a), np.cumsum(law[::-1])[::-1]])
    coef = share * [math.comb(p + r - 1, r) for r in range(2 * a + 1)]

    def cdf(v):
        x = np.clip((v - m) / L, 0.0, 1.0)
        return x**p * np.polynomial.polynomial.polyval(1.0 - x, coef)

    bins = 20 if m == 1 else 10
    if m == 2:
        edges = np.linspace(1.0, 2.0 * c.min_energy - 1.0, bins + 1)
        coords, bin_edges = values.T, [edges, edges]
        expected = montecarlo._expected_probs_2p2(edges, c).ravel()
    else:
        edges = np.linspace(m, max(S.max(), 2.0 * c.min_energy), bins + 1)
        coords, bin_edges = [S], [edges]
        expected = np.diff(cdf(edges))
    shape = (bins,) * len(bin_edges)
    idx = np.ravel_multi_index(
        [np.clip(np.digitize(x, e) - 1, 0, bins - 1) for x, e in zip(coords, bin_edges)],
        shape,
    )
    counts = np.bincount(idx, minlength=expected.size).reshape(shape)
    mass = np.bincount(idx, weights=weights, minlength=expected.size).reshape(shape)
    density = mass / (weights.sum() * montecarlo._cell_volume(bin_edges))
    W = np.bincount(idx, weights=weights, minlength=expected.size)
    W2 = np.bincount(idx, weights=weights**2, minlength=expected.size)
    chi2, dof, _ = weighted_chi2(W, W2, weights.size, expected)
    order = np.argsort(S)
    w = weights[order]
    cum = np.cumsum(w) / w.sum()
    target = cdf(S[order])
    lower = np.concatenate([[0.0], cum[:-1]])
    ks = np.max(np.maximum(np.abs(cum - target), np.abs(lower - target)))
    return counts, density, chi2, dof, ks


def _linear_pipeline_block(m, constraint, count, rng):
    """``_pipeline_block`` with its weight formed as a plain product of its factors.

    The same draws in the same order; the reference for the log-weights.
    """
    top = 2.0 * constraint.min_energy
    nu = sample_balanced(m, constraint, count, rng)
    box = rng.random(count) < montecarlo.DEFENSIVE
    nu[box] = rng.uniform(1.0, top, (int(box.sum()), m))
    proposal = montecarlo.DEFENSIVE / (top - 1.0) ** m + (
        1.0 - montecarlo.DEFENSIVE
    ) * density_balanced(nu, constraint)
    w = np.prod(nu**2, axis=1) * _vandermonde(nu**2) ** 2 / proposal
    for E in (constraint.E_A, constraint.E_B):
        if m <= 2:
            p = rng.random((count, 1))
            c = p * nu + (1.0 - p) * nu[:, ::-1]
        else:
            P = np.abs(sample_haar_unitary(m, rng, size=count)) ** 2
            c = np.einsum("chk,ck->ch", P, nu)
        R = 2.0 * E - c.sum(axis=1)
        x = rng.standard_exponential((count, m))
        lam = 1.0 + x * (R / x.sum(axis=1))[:, None] / c
        volume = 2.0 / np.prod(c, axis=1) * R ** (m - 1) / math.factorial(m - 1)
        w = w * np.where(R > 0, volume * _vandermonde(lam), 0.0)
    keep = w > 0
    return nu[keep], w[keep]


class TestBlockwiseReport:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_log_weights_are_the_log_of_the_product(self, n):
        c = EnergyConstraint(2.2, 2.9)
        m = n // 2
        values, log_weights = montecarlo._pipeline_block(m, c, 5_000, np.random.default_rng(9))
        want_values, weights = _linear_pipeline_block(m, c, 5_000, np.random.default_rng(9))
        assert np.array_equal(values, want_values)
        np.testing.assert_allclose(log_weights, np.log(weights), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_report_matches_the_previous_construction(self, n, monkeypatch):
        c = EnergyConstraint(2.2, 2.9)
        blocks = []
        block = montecarlo._pipeline_block

        def captured(*args):
            blocks.append(block(*args))
            return blocks[-1]

        monkeypatch.setattr(montecarlo, "_pipeline_block", captured)
        rep = verify_constrained_density(n, c, 2 * BLOCK + 7, seed=11)
        assert len(blocks) == 3
        values, log_weights = map(np.concatenate, zip(*blocks))
        counts, density, chi2, dof, ks = _previous_report(n // 2, c, values, log_weights)
        assert np.array_equal(rep.counts, counts)
        assert rep.comparison["dof"] == dof
        assert rep.comparison["chi2"] == pytest.approx(chi2, rel=1e-12)
        assert rep.comparison["ks_statistic"] == pytest.approx(ks, rel=1e-12)
        assert np.allclose(rep.normalized_density, density, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, bins", [(2, 20), (4, 55), (6, 10), (12, 10)])
    def test_effective_sample_size_floor(self, n, bins):
        # self-test weights are 1, so the ESS is the proposal count exactly;
        # the floor counts the bins of positive expected mass: at n = 4 the
        # 55 of the 10 x 10 grid below nu1 + nu2 = 2 min(E), and at n = 12
        # all 10, the top one with a mass of 1.5e-21 (the support needs
        # 2 min(E) > n/2, so n = 12 runs at E = 7)
        floor = MIN_EXPECTED_PER_BIN * bins
        c = EnergyConstraint(7.0, 7.0) if n == 12 else EnergyConstraint(2.5, 2.5)
        low = verify_constrained_density(n, c, int(floor) - 1, seed=1, self_test=True)
        assert low.metadata["degenerate"] is True
        assert low.metadata["ess_floor"] == floor
        assert math.isfinite(low.comparison["chi2"])
        at = verify_constrained_density(n, c, int(floor), seed=1, self_test=True)
        assert "degenerate" not in at.metadata and "ess_floor" not in at.metadata

    def test_traced_peak_memory_per_proposal(self):
        # S, the weight and the uint16 index are kept: 18 bytes per accepted
        # proposal at n = 4; the peak is the KS sort, 40 bytes per accepted
        # proposal (37 per proposal here).  Joining whole (nu1, nu2) blocks
        # and building the KS from full-length copies took 111.
        c = EnergyConstraint(2.5, 2.5)
        count = 300_000
        verify_constrained_density(4, c, 1_000, seed=1)
        tracemalloc.start()
        try:
            verify_constrained_density(4, c, count, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / count < 46.0


class TestHistogramReport:
    def test_density_normalization_enforced(self):
        edges = np.linspace(0.0, 1.0, 5)
        counts = np.array([1, 1, 1, 1])
        bad = np.array([1.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            HistogramReport([edges], counts, bad, None, {"sample_count": 4})

    def test_valid_report_passes(self):
        edges = np.linspace(0.0, 1.0, 5)
        counts = np.array([1, 1, 1, 1])
        density = np.full(4, 1.0)
        rep = HistogramReport([edges], counts, density, None, {"sample_count": 4})
        assert rep.metadata["sample_count"] == 4
