import math

import numpy as np
import pytest
from scipy import stats

from gausshaar.densities import EnergyConstraint, g_2p2
from gausshaar.haar import vandermonde_repulsion
from gausshaar.montecarlo import (
    HistogramReport,
    _shell_band_lambda,
    _sum_marginal_cdf,
    chi2_sf,
    g_constraint_mc,
    sample_density_2p2,
    sample_submanifold_energy,
    verify_constrained_density,
    weighted_chi2,
    weighted_ks_statistic,
)


def _sum_cdf_by_polynomial(c):
    """CDF of nu1 + nu2 by exact integration of its marginal polynomial.

    The polynomial is taken in u = nu1 + nu2 - 2, which keeps it well
    conditioned: u^3 (2 E_A - 2 - u)^2 (2 E_B - 2 - u)^2 on [0, 2 min(E) - 2].
    """
    P = np.polynomial.Polynomial
    pdf = (
        P([0.0, 1.0]) ** 3
        * P([2.0 * c.E_A - 2.0, -1.0]) ** 2
        * P([2.0 * c.E_B - 2.0, -1.0]) ** 2
    )
    top = 2.0 * c.min_energy - 2.0
    anti = pdf.integ()
    return lambda s: anti(np.clip(s - 2.0, 0.0, top)) / anti(top)


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

    # (2.2, 2.9) has b > 0, so all three Beta components carry weight
    @pytest.mark.parametrize("energies, seed", [((2.5, 2.5), 46), ((2.2, 2.9), 47)])
    def test_exact_sampler_laws(self, energies, seed):
        c = EnergyConstraint(*energies)
        samples = sample_density_2p2(c, 100_000, np.random.default_rng(seed))
        total = samples.sum(axis=1)
        assert stats.kstest(total, _sum_cdf_by_polynomial(c)).pvalue > 0.01
        # given S, D = nu1 - nu2 has density prop. to D^2 on |D| <= S - 2
        t = (samples[:, 0] - samples[:, 1]) / (total - 2.0)
        assert stats.kstest(t, lambda v: (v**3 + 1.0) / 2.0).pvalue > 0.01

    @pytest.mark.parametrize("energies", [(2.5, 2.5), (2.2, 2.9), (1.5, 4.0), (1.2, 1.3)])
    def test_sum_cdf_matches_polynomial_integral(self, energies):
        c = EnergyConstraint(*energies)
        s = np.linspace(1.5, 2.0 * c.min_energy + 0.5, 201)
        exact = _sum_cdf_by_polynomial(c)(s)
        assert np.abs(_sum_marginal_cdf(c)(s) - exact).max() < 1e-12


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
        v = vandermonde_repulsion((nu - 1.0) / (2.0 * E - m)) ** 2
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
        idx = np.zeros(1000, dtype=int)
        w = np.ones(1000)
        chi2, dof, p = weighted_chi2(idx, w, np.array([0.5, 0.5]))
        assert p < 1e-6

    def test_chi2_accepts_matching_split(self):
        rng = np.random.default_rng(39)
        idx = (rng.random(10_000) < 0.5).astype(int)
        chi2, dof, p = weighted_chi2(idx, np.ones(10_000), np.array([0.5, 0.5]))
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


class TestShellBandLambda:
    def test_one_mode_is_the_shell_interval(self):
        # at m = 1 the estimate is the length of the lambda interval whose
        # energy lambda nu / 2 lies within eps of E, clipped to [1, lam_top]
        rng = np.random.default_rng(3)
        nu = rng.uniform(1.0, 7.0, size=(10_000, 1))
        E, eps, lam_top = 3.0, 0.05, 6.0
        got = _shell_band_lambda(nu, E, eps, lam_top, rng)
        want = np.clip(
            np.minimum(lam_top, 2.0 * (E + eps) / nu[:, 0])
            - np.maximum(1.0, 2.0 * (E - eps) / nu[:, 0]),
            0.0,
            None,
        )
        assert np.abs(got - want).max() < 1e-12
        # both the empty shell (nu > 2(E + eps)) and the lam_top clip occur
        assert np.any(want == 0.0)
        assert np.any(2.0 * (E + eps) / nu[:, 0] > lam_top)


class TestVerifyPipeline:
    def test_self_test_calibration_across_seeds(self):
        c = EnergyConstraint(3.0, 3.0)
        c4 = EnergyConstraint(2.5, 2.5)
        pvals = []
        for seed in range(20):
            rep = verify_constrained_density(2, c, 20_000, seed=seed, self_test=True)
            pvals.append(rep.comparison["p_value"])
            assert rep.comparison["ks_statistic"] < 0.03
        for seed in range(5):
            rep = verify_constrained_density(4, c4, 10_000, seed=seed, self_test=True)
            pvals.append(rep.comparison["p_value"])
        assert min(pvals) > 0.001

    def test_pipeline_1p1_actual_law_is_uniform_to_twice_min_energy(self):
        # The end-to-end shell pipeline puts uniform mass on [1, 2 min(E)]:
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
        c = EnergyConstraint(2.5, 2.5, 0.05)
        rep = verify_constrained_density(4, c, 200_000, cutoff=10.0, seed=41)
        assert rep.comparison["p_value"] > 0.01
        assert rep.comparison["ks_statistic"] < 0.02
        assert rep.metadata["effective_sample_size"] > 10_000

    def test_shell_halving_stability(self):
        base = EnergyConstraint(2.5, 2.5, 0.05)
        half = EnergyConstraint(2.5, 2.5, 0.025)
        rep_a = verify_constrained_density(4, base, 100_000, seed=42)
        rep_b = verify_constrained_density(4, half, 100_000, seed=43)
        assert rep_a.comparison["p_value"] > 0.01
        assert rep_b.comparison["p_value"] > 0.01

    @pytest.mark.parametrize(
        "n, c, cutoff",
        [
            (2, EnergyConstraint(2.5, 2.5), 10.0),
            (4, EnergyConstraint(2.5, 2.5), 10.0),
            (6, EnergyConstraint(2.0, 2.0, 0.4), 5.0),
        ],
        ids=["2", "4", "6"],
    )
    def test_determinism_for_fixed_seed_and_partitions(self, n, c, cutoff):
        kwargs = dict(cutoff=cutoff, seed=7, partitions=4)
        a = verify_constrained_density(n, c, 20_000, **kwargs)
        b = verify_constrained_density(n, c, 20_000, **kwargs)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.normalized_density, b.normalized_density)
        assert a.comparison == b.comparison

    def test_1p1_weights_nearly_flat(self):
        # uniform proposals on [1, 2 min(E)] against a uniform law: the
        # invariant factor nu^2 cancels the two 1/nu shell intervals
        c = EnergyConstraint(3.0, 3.0, 0.05)
        rep = verify_constrained_density(2, c, 200_000, cutoff=10.0, seed=40)
        meta = rep.metadata
        assert meta["ess_fraction"] > 0.9
        assert meta["ess_fraction"] == pytest.approx(
            meta["effective_sample_size"] / meta["sample_count"]
        )
        assert 0.0 < meta["max_weight_share"] < 1e-3

    def test_cutoff_too_small_rejected(self):
        c = EnergyConstraint(3.0, 3.0)
        with pytest.raises(ValueError):
            verify_constrained_density(2, c, 1000, cutoff=4.0, seed=0)

    def test_generic_n_reports_without_comparison(self):
        c = EnergyConstraint(2.0, 2.0, 0.4)
        rep = verify_constrained_density(6, c, 400_000, cutoff=5.0, seed=44)
        assert rep.comparison is None
        assert rep.counts.sum() > 0

    def test_zero_accepted_diagnostic(self):
        # energies just above the 3-mode ground value leave almost no
        # feasible proposals; a short run must fail with the diagnostic
        c = EnergyConstraint(1.55, 1.55, 0.005)
        with pytest.raises(RuntimeError, match="zero accepted"):
            verify_constrained_density(6, c, 500, cutoff=3.5, seed=45)

    def test_low_energy_1p1_has_support(self):
        # 2 min(E) = 1.6 > n/2 = 1: the law is uniform on [1, 1.6]
        c = EnergyConstraint(0.8, 0.8, 0.01)
        rep = verify_constrained_density(2, c, 500_000, cutoff=10.0, seed=0)
        assert rep.comparison["ks_statistic"] < 0.03

    def test_empty_support_rejected_before_sampling(self):
        # 2 min(E) = 2.4 <= n/2 = 3: no three eigenvalues >= 1 fit
        c = EnergyConstraint(1.2, 1.2, 0.05)
        with pytest.raises(ValueError, match="n/2 = 3"):
            verify_constrained_density(6, c, 20_000, cutoff=10.0, seed=0)


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
