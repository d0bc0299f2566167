import functools
import itertools
import math
from fractions import Fraction
import tracemalloc
import types

import numpy as np
import pytest
from numpy.polynomial import laguerre, polynomial
from scipy import optimize, stats

from gausshaar.densities import (
    EnergyConstraint,
    balanced_sum_law,
    density_2p2,
    density_balanced,
    g_2p2,
    log_density_balanced,
    log_density_unconstrained,
    log_vandermonde,
)
from gausshaar import densities, haar, montecarlo
from gausshaar.haar import sample_haar_unitary
from gausshaar.montecarlo import (
    BLOCK,
    MIN_EXPECTED_PER_BIN,
    HistogramReport,
    _log_lambda_integral,
    _sum_law,
    chi2_sf,
    g_constraint_mc,
    sample_balanced,
    sample_density_2p2,
    sample_submanifold_energy,
    verify_constrained_density,
    weighted_chi2,
    weighted_ks_statistic,
)


def _patch_densities(monkeypatch, **names):
    """Let montecarlo alone read ``names`` in place of those of densities.

    montecarlo reads the closed form through its ``densities`` module
    object; this swaps that object for a namespace of the same names with
    ``names`` replaced, so densities' own functions still call the originals.
    """
    patched = types.SimpleNamespace(**{**vars(montecarlo.densities), **names})
    monkeypatch.setattr(montecarlo, "densities", patched)


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_draws_is_an_empty_sample(self, m):
        # a verify block whose every proposal falls in the uniform share
        samples = sample_balanced(m, EnergyConstraint(3.0, 3.0), 0, np.random.default_rng(m))
        assert samples.shape == (0, m)

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
        cdf = _sum_law(m, c, s)[0](s)
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
        _, masses = _sum_law(m, c, edges)
        np.testing.assert_allclose(masses, exact, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n, E", [(40, 11.0), (44, 12.0)])
    def test_sum_bin_masses_at_the_largest_n(self, n, E):
        # CDF differences read 0 for the bottom two bins at n = 44, E = 12,
        # where x^(m^2) underflows a double
        m = n // 2
        _, masses = _sum_law(m, EnergyConstraint(E, E), np.linspace(m, 2.0 * E, 11))
        assert np.all(masses > 0)
        assert abs(masses.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize(
        "energies", [(2.5, 2.5), (2.2, 2.9), (1.2, 1.3), (3.0, 10.0)], ids=str
    )
    def test_2p2_cell_masses_are_exact(self, energies):
        # on the cells of the n = 4 grid, against adaptive quadrature over
        # each cell's part of the support; an 8 x 8 midpoint rule per cell
        # summed to 0.998542 at E = (2.5, 2.5)
        from scipy import integrate

        c = EnergyConstraint(*energies)
        top = 2.0 * c.min_energy
        edges = np.linspace(1.0, top - 1.0, 11)
        masses = montecarlo._expected_probs_2p2(edges, c)
        assert abs(masses.sum() - 1.0) < 1e-12
        inside = np.add.outer(np.arange(10), np.arange(10)) <= 9
        assert np.count_nonzero(masses) == 55 and np.all(masses[inside] > 0)
        for i, j in zip(*np.nonzero(inside)):
            want, _ = integrate.dblquad(
                lambda y, x: density_2p2(x, y, c),
                edges[i], edges[i + 1], edges[j], lambda x: min(edges[j + 1], top - x),
                epsabs=1e-14, epsrel=1e-12,
            )
            assert masses[i, j] == pytest.approx(want, rel=1e-10)


class TestSampleBalancedRows:
    # (2.2, 2.9) has b > 0, so every Beta component carries weight and the
    # draws come component by component before the shuffle
    constraint = EnergyConstraint(2.2, 2.9)

    @pytest.mark.parametrize("m, seed", [(2, 49), (3, 50)])
    def test_every_stretch_of_rows_has_the_law_of_the_sum(self, m, seed):
        samples = sample_balanced(m, self.constraint, 100_000, np.random.default_rng(seed))
        top = 2.0 * self.constraint.min_energy
        cdf, _ = _sum_law(m, self.constraint, np.linspace(m, top, 11))
        tenth = samples.shape[0] // 10
        for rows in (samples[:tenth], samples[-tenth:]):
            assert stats.kstest(rows.sum(axis=1), cdf).pvalue > 0.01

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_draws_with_many_components(self, m):
        rng = np.random.default_rng(m)
        assert sample_balanced(m, self.constraint, 0, rng).shape == (0, m)


def _ginibre_simplex(m, count, rng):
    """The Delta^2 law on the unit simplex from the spectrum of G G^dag, as rows.

    G is an m x m complex Ginibre matrix; its eigenvalues come sorted, so the
    rows are the sorted coordinates.  Drawn in stacks of 2**14 matrices.
    """
    parts = []
    for start in range(0, count, 2**14):
        shape = (min(2**14, count - start), m, m)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        parts.append(np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1)))
    y = np.concatenate(parts)
    return y / y.sum(axis=1, keepdims=True)


def _first_coordinate_cdf(m):
    """CDF of one coordinate of the Delta^2 law on the unit simplex (ROADMAP T3).

    One eigenvalue of the beta = 2 Laguerre ensemble, picked at random, has
    the density (1/m) sum_{k<m} L_k(y)^2 e^-y = sum_j p_j y^j e^-y / m, a
    mixture of Gamma(j + 1) with weights p_j j! / m, some negative.  Since
    y_1 = x_1 sum(y), with sum(y) ~ Gamma(m^2) independent of x, x_1 is the
    same mixture of Beta(j + 1, m^2 - j - 1).
    """
    square = functools.reduce(
        polynomial.polyadd,
        (polynomial.polypow(laguerre.lag2poly(np.eye(m)[k]), 2) for k in range(m)),
    )
    weights = [p * math.factorial(j) / m for j, p in enumerate(square)]
    return lambda x: sum(
        w * stats.beta.cdf(x, j + 1, m * m - j - 1) for j, w in enumerate(weights)
    )


class TestUnitSimplexDelta2:
    # verify compares only sum(nu) from n = 6, so the shape of the simplex
    # draw is tested here
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_first_and_second_moments(self, m):
        # the law is exchangeable, so every coordinate has mean 1/m; with
        # W = G G^dag square complex Wishart, E tr W^2 = 2 m^3 and
        # E (tr W)^2 = m^2 (m^2 + 1); x = y / sum(y) is independent of sum(y),
        # so E sum(x^2) = 2m / (m^2 + 1)
        count = 200_000
        x = montecarlo._unit_simplex_delta2(m, count, np.random.default_rng(60 + m))
        assert x.shape == (m, count)
        stderr = x.std(axis=1, ddof=1) / math.sqrt(count)
        assert np.all(np.abs(x.mean(axis=1) - 1.0 / m) < 4.0 * stderr)
        q = np.einsum("ij,ij->j", x, x)
        z = (q.mean() - 2.0 * m / (m * m + 1)) / (q.std(ddof=1) / math.sqrt(count))
        assert abs(z) < 4.0

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_one_coordinate_has_the_exact_law(self, m):
        # the law is exchangeable, so the first coordinate has T3's law of
        # any one; the smallest coordinate has another, and fails it
        x = montecarlo._unit_simplex_delta2(m, 200_000, np.random.default_rng(90 + m))
        cdf = _first_coordinate_cdf(m)
        assert stats.kstest(x[0], cdf).pvalue > 0.01
        assert stats.kstest(x.min(axis=0), cdf).pvalue < 1e-6

    @pytest.mark.parametrize("m", [3, 4])
    def test_sorted_coordinates_match_the_ginibre_spectrum(self, m):
        count = 200_000
        x = np.sort(montecarlo._unit_simplex_delta2(m, count, np.random.default_rng(70 + m)), axis=0)
        ref = _ginibre_simplex(m, count, np.random.default_rng(80 + m))
        stderr = np.sqrt((x.var(axis=1, ddof=1) + ref.var(axis=0, ddof=1)) / count)
        assert np.all(np.abs(x.mean(axis=1) - ref.mean(axis=0)) < 4.0 * stderr)


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


def _one_shot_ks(values, weights, cdf):
    """The weighted KS statistic from full-length arrays of the sorted sample.

    The reference for the chunked ``weighted_ks_statistic``, which must
    equal it bit for bit.
    """
    values = np.asarray(values)
    target = cdf(values)
    order = np.argsort(values)
    target = np.asarray(target)[order]
    cum = np.asarray(weights)[order]
    del order
    total = cum.sum()
    np.cumsum(cum, out=cum)
    cum /= total
    gap = cum - target
    upper = np.abs(gap, out=gap).max()
    # just below each sorted value the empirical CDF is 0, then cum[:-1]
    np.subtract(cum[:-1], target[1:], out=gap[1:])
    gap[0] = target[0]
    return float(np.maximum(upper, np.abs(gap, out=gap).max()))


class TestWeightedStatistics:
    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_chunked_ks_equals_the_one_shot_formula(self, size):
        # S of n = 4 at E = (2.2, 2.9) on a grid of 600 values, so most are
        # tied, and a tenth of the weights 0; the CDF is that of _report
        c = EnergyConstraint(2.2, 2.9)
        cdf, _ = _sum_law(2, c, np.linspace(2.0, 4.4, 11))
        rng = np.random.default_rng(size)
        values = 2.0 + 2.4 * rng.integers(0, 600, size) / 600
        weights = rng.exponential(size=size) * (rng.random(size) > 0.1)
        assert np.count_nonzero(weights == 0.0) > 0
        assert weighted_ks_statistic(values, weights, cdf) == _one_shot_ks(values, weights, cdf)

    def test_unit_weights_match_scipy(self):
        rng = np.random.default_rng(41)
        values = rng.standard_normal(2 * BLOCK + 5)
        got = weighted_ks_statistic(values, np.ones(values.size), stats.norm.cdf)
        assert got == pytest.approx(stats.kstest(values, stats.norm.cdf).statistic, rel=1e-12)

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


def _lambda_weight(c, E, rng):
    """log of the constrained lambda-weight of rows c (count, m) of mixing coefficients.

    ``_log_lambda_integral`` is called as ``_log_weight`` calls it: on
    the columns of the rows with S = sum(c) < 2E, S and log(2E - S).
    Returns the log-weights of the rows it keeps.
    """
    columns = c.T
    S = functools.reduce(np.add, columns)
    rows = S < 2.0 * E
    S = S[rows]
    return _log_lambda_integral(columns[:, rows], S, np.log(2.0 * E - S), rng)


def _mean_constrained_weight(nu, E, count, rng):
    """Mean and standard error of the exact-constraint weight over Haar |U|^2."""
    nu = np.asarray(nu, dtype=float)
    U = sample_haar_unitary(nu.size, rng, size=count)
    w = np.exp(_lambda_weight(np.abs(U) ** 2 @ nu, E, rng))
    return w.mean(), w.std(ddof=1) / np.sqrt(count)


def _one_point_weight(c, E, rng):
    """The constrained lambda-weight from one uniform point of the simplex, as a plain product."""
    count, m = c.shape
    R = 2.0 * E - c.sum(axis=1)
    x = rng.standard_exponential((count, m))
    lam = 1.0 + x * (R / x.sum(axis=1))[:, None] / c
    volume = 2.0 / np.prod(c, axis=1) * R ** (m - 1) / math.factorial(m - 1)
    return np.where(R > 0, volume * _vandermonde(lam), 0.0)


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
        got = np.exp(_lambda_weight(nu, E, rng))
        want = 2.0 / nu[nu[:, 0] < 2.0 * E, 0]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_two_modes_is_the_exact_simplex_mean(self):
        # the weight at m = 2 is the volume 2 R / (c1 c2) times the mean of
        # |mu1/c1 - mu2/c2| over mu = (R u, R (1 - u)), u uniform; against a
        # brute-force mean over 1e6 draws of u at each c
        rng = np.random.default_rng(6)
        E = 3.0
        u = rng.random(1_000_000)
        c = np.array([(1.0, 1.0), (1.5, 1.0), (1.2, 2.9), (3.0, 1.5), (1.01, 4.8)])
        state = rng.bit_generator.state
        got = np.exp(_lambda_weight(c, E, rng))
        # no draw is made
        assert rng.bit_generator.state == state
        assert got.size == len(c)
        for (c1, c2), w in zip(c, got):
            R = 2.0 * E - c1 - c2
            brute = 2.0 * R / (c1 * c2) * np.abs(R * u / c1 - R * (1.0 - u) / c2)
            stderr = brute.std(ddof=1) / np.sqrt(brute.size)
            assert abs(w - brute.mean()) < 4.0 * stderr, (c1, c2)

    def test_averaged_draws_keep_the_mean_and_cut_the_variance(self):
        # at m = 3 the weight averages the repulsion over K simplex points at
        # each c: the same mean as the one-point weight, a K-fold lower variance
        rng = np.random.default_rng(7)
        E, count = 4.0, 20_000
        draws = montecarlo._simplex_draws(3)
        for c in [(1.0, 1.5, 2.0), (1.1, 1.2, 3.3), (2.0, 2.0, 1.4)]:
            rows = np.tile(c, (count, 1))
            averaged = np.exp(_lambda_weight(rows, E, rng))
            single = _one_point_weight(rows, E, rng)
            gap = abs(averaged.mean() - single.mean())
            stderr = np.hypot(averaged.std(ddof=1), single.std(ddof=1)) / np.sqrt(count)
            assert gap < 4.0 * stderr, c
            assert averaged.var() < single.var() * 2.0 / draws, c

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


def _integrand(columns, constraint, rng):
    """``_log_weight`` at the columns of nu, with S and log(2E - S) formed as the pipeline forms them."""
    S = functools.reduce(np.add, columns)
    log_gaps = [np.log(2.0 * E - S) for E in (constraint.E_A, constraint.E_B)]
    return montecarlo._log_weight(columns, S, log_gaps, rng)


def _log_mean_weight(nu, constraint, repeats, rng, p_weights=None):
    """log of the mean of the integrand at the point nu over ``repeats`` draws, and its SE.

    nu is tiled into ``repeats`` columns, all kept.  ``p_weights`` weighs the
    repeats; without it the mean is plain, and the SE of its log is
    sd(w) / (mean sqrt(repeats)).
    """
    columns = np.repeat(np.asarray(nu, dtype=float)[:, None], repeats, axis=1)
    log_w = _integrand(columns, constraint, rng)
    top = log_w.max()
    w = np.exp(log_w - top)
    mean = np.average(w, weights=p_weights)
    return top + math.log(mean), w.std(ddof=1) / (mean * math.sqrt(repeats))


def _pointwise_chi2(m, constraint, repeats, rng):
    """Chi-square and p of the log-ratios of the mean integrand to the closed form at 20 points.

    The points are drawn from ``sample_balanced``; each log-ratio is compared
    with their inverse-variance mean, on 19 degrees of freedom.
    """
    points = sample_balanced(m, constraint, 20, rng)
    logs, stderrs = map(
        np.array, zip(*(_log_mean_weight(nu, constraint, repeats, rng) for nu in points))
    )
    ratios = logs - log_density_balanced(points, constraint)
    mean = np.average(ratios, weights=stderrs**-2)
    chi2 = float(np.sum(((ratios - mean) / stderrs) ** 2))
    return chi2, stats.chi2.sf(chi2, ratios.size - 1)


class _GaussLegendreP:
    """A generator stub whose two ``random`` calls give a tensor grid of Gauss-Legendre nodes in p.

    Side A's p repeats each node and side B's tiles them, so every pair of
    nodes occurs once and the two sides stay independent.  ``weights`` are
    the products of the rule's weights on [0, 1], which sum to 1.
    """

    def __init__(self, order):
        x, w = np.polynomial.legendre.leggauss(order)
        nodes = (x + 1.0) / 2.0
        self._draws = iter([np.repeat(nodes, order), np.tile(nodes, order)])
        self.weights = np.outer(w, w).ravel() / 4.0

    def random(self, count):
        p = next(self._draws)
        assert p.size == count
        return p.copy()


def _sample_orthogonal(m, rng, size):
    """Real orthogonal Q of the QR of a Gaussian stack: |Q|^2 has the law of Haar |O|^2.

    The column signs that would make Q Haar cancel in |Q|^2.
    """
    return np.linalg.qr(rng.standard_normal((size, m, m)))[0]


class TestPointwiseWeight:
    # the pipeline's integrand at fixed nu: its mean over the mixing and
    # simplex draws is proportional to the closed-form balanced law.  No
    # proposal, no bins and no statistic of a sample enter.

    @pytest.mark.parametrize(
        "n, E_A, E_B",
        [(2, 2.2, 2.9), (4, 2.2, 2.9), (6, 3.0, 3.0), (8, 4.0, 4.0), (10, 5.0, 5.0)],
        ids=["2", "4", "6", "8", "10"],
    )
    def test_mean_weight_is_proportional_to_the_closed_form(self, n, E_A, E_B):
        c = EnergyConstraint(E_A, E_B)
        m = n // 2
        rng = np.random.default_rng(n)
        if m >= 3:
            chi2, p = _pointwise_chi2(m, c, 20_000, rng)
            assert p > 1e-3, chi2
        else:
            self._assert_exact_mean(m, c, rng)

    @staticmethod
    def _assert_exact_mean(m, c, rng):
        # p is the only draw at m = 2, and m = 1 makes none; the mean is exactly
        # 4 Delta(nu)^2 (R_A R_B)^a: at m = 2 the integral of c1^-2 + c2^-2
        # over p is 2 / (nu1 nu2) per side.  A 32-point rule in p gives it
        # to round-off, also at the corner where nu1 / nu2 is largest.
        top = 2.0 * c.min_energy
        corner = np.r_[top - m + 0.95, np.ones(m - 1)]
        a = (m - 1) * (m + 2) // 2
        for nu in np.vstack([sample_balanced(m, c, 20, rng), corner]):
            grid = _GaussLegendreP(32)
            got, _ = _log_mean_weight(nu, c, grid.weights.size, grid, grid.weights)
            gaps = (2.0 * c.E_A - nu.sum()) * (2.0 * c.E_B - nu.sum())
            want = math.log(4.0 * _vandermonde(nu) ** 2 * gaps**a)
            assert abs(got - want) < 1e-12, nu

    @pytest.mark.parametrize("mutation", ["no-nu2", "vandermonde-1", "orthogonal"])
    def test_a_wrong_integrand_fails(self, mutation, monkeypatch):
        # prod nu^2 dropped from the invariant factor, Delta(nu^2)^1 in place
        # of Delta(nu^2)^2, or real orthogonal mixing in place of unitary
        def wrong(nu, n_A, n_B):
            right = log_density_unconstrained(nu, n_A, n_B)
            if mutation == "no-nu2":
                return right - 2.0 * np.log(nu).sum(axis=-1)
            return right - log_vandermonde(nu**2)

        if mutation == "orthogonal":
            monkeypatch.setattr(haar, "sample_haar_unitary", _sample_orthogonal)
        else:
            _patch_densities(monkeypatch, log_density_unconstrained=wrong)
        chi2, p = _pointwise_chi2(3, EnergyConstraint(3.0, 3.0), 20_000, np.random.default_rng(6))
        assert p < 1e-6, chi2


class _DrawLog:
    """A generator proxy that logs the name and result shape of each draw made through it."""

    def __init__(self, rng, log):
        self.rng, self._log = rng, log

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args, **kwargs):
            out = draw(*args, **kwargs)
            self._log.append((name, np.shape(out)))
            return out

        return logged


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
    # BLOCK // 2 proposals fill one short block; 2 BLOCK + 7 cross two block
    # boundaries and end in a short block
    @pytest.mark.parametrize(
        "count", [BLOCK // 2, 2 * BLOCK + 7], ids=["one-block", "three-blocks"]
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_draw_is_sized_to_the_proposals_that_read_it(self, m, monkeypatch):
        # the uniform share at its binomial size, m + 1 exponentials a
        # point, the closed form for the rest, then side A's and side B's
        # mixing draws for the whole block, whose every proposal lies in the
        # support: p at m = 2, a Haar stack and K(m) simplex points from
        # m = 3, and nothing at m = 1
        c = EnergyConstraint(2.2, 2.9)
        count = 2_000
        draws = []
        rng = _DrawLog(np.random.default_rng(m), draws)

        def balanced(m, constraint, size, rng):
            draws.append(("sample_balanced", size))
            return sample_balanced(m, constraint, size, rng.rng)

        def unitary(m, rng, size):
            draws.append(("sample_haar_unitary", size))
            return sample_haar_unitary(m, rng.rng, size=size)

        monkeypatch.setattr(montecarlo, "sample_balanced", balanced)
        monkeypatch.setattr(haar, "sample_haar_unitary", unitary)
        values, log_weights = montecarlo._pipeline_block(m, c, count, rng)
        box = np.random.default_rng(m).binomial(count, montecarlo.DEFENSIVE)
        assert 0 < box and len(values) == log_weights.size == count
        if m == 1:
            side = []
        elif m == 2:
            side = [("random", (count,))]
        else:
            exponentials = [("standard_exponential", (m, count))] * montecarlo._simplex_draws(m)
            side = [("sample_haar_unitary", count), *exponentials]
        assert draws == [
            ("binomial", ()),
            ("standard_exponential", (m + 1, box)),
            ("sample_balanced", count - box),
            *side,
            *side,
        ]

    def test_low_energy_1p1_has_support(self):
        # 2 min(E) = 1.6 > n/2 = 1: the law is uniform on [1, 1.6]
        for c in (EnergyConstraint(0.8, 0.8, 0.01), EnergyConstraint(0.8, 0.8)):
            rep = verify_constrained_density(2, c, 500_000, cutoff=10.0, seed=0)
            assert rep.comparison["ks_statistic"] < 0.03, c

    @pytest.mark.parametrize("self_test", [False, True])
    def test_a_count_below_one_rejected(self, self_test):
        # the report reads the largest log-weight, which no empty run has
        with pytest.raises(ValueError, match="count must be at least 1"):
            verify_constrained_density(4, EnergyConstraint(2.5, 2.5), 0, self_test=self_test)

    def test_empty_support_rejected_before_sampling(self):
        # 2 min(E) = 2.4 <= n/2 = 3: no three eigenvalues >= 1 fit
        c = EnergyConstraint(1.2, 1.2, 0.05)
        with pytest.raises(ValueError, match="n/2 = 3"):
            verify_constrained_density(6, c, 20_000, cutoff=10.0, seed=0)


def _law_with_lighter_exponent(m, constraint):
    """``balanced_sum_law`` at equal energies with the exponent a lowered to a - 1.

    At b = 0 only the component Beta(m^2, 2a + 1) survives, with unnormalized
    weight B(m^2, 2a + 1).
    """
    assert constraint.E_A == constraint.E_B
    L, a, _, _ = balanced_sum_law(m, constraint)
    a -= 1
    weights = np.zeros(a + 1)
    weights[-1] = 1.0
    p = m * m
    return L, a, weights, math.lgamma(p) + math.lgamma(2 * a + 1) - math.lgamma(p + 2 * a + 1)


def _truncate_the_closed_form(m, constraint, mass, monkeypatch):
    """Replace the closed form by the balanced law cut at the t of CDF(S = t) = mass.

    The law renormalized below t: ``sample_balanced`` keeps the draws with
    sum(nu) <= t, ``log_density_balanced`` is -inf past t and shifted by
    -log(mass), and ``_sum_law`` gives the CDF min(F, mass) / mass and its
    differences as the bin masses.
    """
    top = 2.0 * constraint.min_energy
    cdf, _ = _sum_law(m, constraint, np.array([m, top]))
    t = optimize.brentq(lambda v: cdf(np.array([v]))[0] - mass, m, top)

    def sample(m, c, count, rng):
        rows = np.empty((0, m))
        while len(rows) < count:
            more = sample_balanced(m, c, count, rng)
            rows = np.concatenate([rows, more[more.sum(axis=1) <= t]])
        return rows[:count]

    def log_density(nu, c, log_gaps):
        out = log_density_balanced(nu, c, log_gaps) - math.log(mass)
        return np.where(nu.sum(axis=-1) <= t, out, -np.inf)

    def sum_law(m, c, edges):
        def truncated(v):
            return np.minimum(cdf(v), mass) / mass

        return truncated, np.diff(truncated(edges))

    monkeypatch.setattr(montecarlo, "sample_balanced", sample)
    _patch_densities(monkeypatch, log_density_balanced=log_density)
    monkeypatch.setattr(montecarlo, "_sum_law", sum_law)


class TestVerdicts:
    # the default --p-threshold of the CLI: a run with p at or below it exits 4
    P_THRESHOLD = 0.01

    @pytest.mark.parametrize(
        "n, E, count, seeds",
        [
            (2, 3.0, 20_000, 20),
            (4, 2.5, 20_000, 20),
            (6, 3.0, 20_000, 20),
            (8, 4.0, 20_000, 20),
            (10, 5.0, 20_000, 20),
            (12, 7.0, 8_000, 12),
        ],
        ids=["2", "4", "6", "8", "10", "12"],
    )
    def test_no_false_failures_across_seeds(self, n, E, count, seeds):
        # the closed form is right, so the share of runs that reject it must
        # stay within a binomial 4 sigma bound of the p threshold, and no run
        # may be degenerate; one-point lambda-weights failed 6 of 20 at n = 10
        # and left 6 of 12 degenerate at n = 12
        c = EnergyConstraint(E, E)
        failed, degenerate = [], []
        for seed in range(seeds):
            rep = verify_constrained_density(n, c, count, seed=seed)
            if rep.metadata.get("degenerate", False):
                degenerate.append(seed)
            elif not rep.comparison["p_value"] > self.P_THRESHOLD:
                failed.append(seed)
        q = self.P_THRESHOLD
        bound = seeds * q + 4.0 * math.sqrt(seeds * q * (1.0 - q))
        assert len(failed) <= bound, failed
        assert not degenerate, degenerate

    @pytest.mark.parametrize(
        "mutation, n, E, count",
        [
            ("inward", 2, 3.0, 30_000),
            ("inward", 4, 2.5, 100_000),
            ("inward", 6, 3.0, 30_000),
            ("exponent", 4, 2.5, 100_000),
            ("exponent", 6, 3.0, 30_000),
            ("truncated", 6, 3.0, 20_000),
            ("truncated", 8, 4.0, 20_000),
            ("truncated", 12, 7.0, 100_000),
        ],
        ids=[
            "inward-2", "inward-4", "inward-6", "exponent-4", "exponent-6",
            "truncated-6", "truncated-8", "truncated-12",
        ],
    )
    def test_a_wrong_closed_form_fails(self, mutation, n, E, count, monkeypatch):
        # a closed form whose support stops 0.2 short of 2 min(E), with the
        # exponent a - 1, or missing the top 2% of its sum(nu)-mass, in the
        # proposal and in the expected masses alike; only the uniform share
        # of the proposal reaches the mass a truncated law misses
        if mutation == "truncated":
            _truncate_the_closed_form(n // 2, EnergyConstraint(E, E), 0.98, monkeypatch)
        elif mutation == "inward":
            def lowered(c):
                return EnergyConstraint(c.E_A - 0.1, c.E_B - 0.1)

            def log_density(nu, c, log_gaps):
                # the lowered law forms its own gaps: the pipeline's are of c
                return log_density_balanced(nu, lowered(c))

            _patch_densities(
                monkeypatch,
                balanced_sum_law=lambda m, c: balanced_sum_law(m, lowered(c)),
                log_density_balanced=log_density,
                density_2p2=lambda x, y, c: density_2p2(x, y, lowered(c)),
            )
        else:
            # densities' normalizer and montecarlo's sampler and masses alike
            monkeypatch.setattr(densities, "balanced_sum_law", _law_with_lighter_exponent)
        rep = verify_constrained_density(n, EnergyConstraint(E, E), count, seed=1)
        assert "degenerate" not in rep.metadata
        assert rep.comparison["p_value"] < (1e-3 if n == 12 else 1e-6)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_log_weight_is_a_numerical_failure(self, bad, monkeypatch):
        # an overflowed weight must not be exponentiated into nan statistics
        block = montecarlo._pipeline_block

        def broken(*args):
            values, log_weights = block(*args)
            log_weights[3] = bad
            return values, log_weights

        monkeypatch.setattr(montecarlo, "_pipeline_block", broken)
        with pytest.raises(RuntimeError, match="log-weight"):
            verify_constrained_density(4, EnergyConstraint(2.5, 2.5), 2_000, seed=1)

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
    """The report as np.digitize, exact rational S masses and a concatenated KS build it.

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
        expected = _sum_bin_masses_exact(m, c, edges)
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

    The same draws in the same order, and nu formed by the same operations;
    the reference for the log-weights.  The mean repulsion at fixed mixing is
    1 at m = 1, R's closed form at m = 2, and a plain mean over
    ``_simplex_draws(m)`` points of the simplex from m = 3.
    """
    top = 2.0 * constraint.min_energy
    box = rng.binomial(count, montecarlo.DEFENSIVE)
    x = rng.standard_exponential((m + 1, box))
    uniform = x[:m] * ((top - m) / x.sum(axis=0)) + 1.0
    nu = np.vstack([uniform.T, sample_balanced(m, constraint, count - box, rng)])
    proposal = montecarlo.DEFENSIVE * math.factorial(m) / (top - m) ** m + (
        1.0 - montecarlo.DEFENSIVE
    ) * density_balanced(nu, constraint)
    w = np.prod(nu**2, axis=1) * _vandermonde(nu**2) ** 2 / proposal
    for E in (constraint.E_A, constraint.E_B):
        if m == 1:
            c = nu
        elif m == 2:
            p = rng.random((count, 1))
            c = p * nu + (1.0 - p) * nu[:, ::-1]
        else:
            P = np.abs(sample_haar_unitary(m, rng, size=count)) ** 2
            c = np.einsum("chk,ck->ch", P, nu)
        # R of sum(nu), as in the pipeline: sum(c) = sum(nu) (|U|^2 is doubly
        # stochastic), but near the edge, which the uniform share reaches,
        # their round-off differs by more than the tolerance in log R
        R = 2.0 * E - nu.sum(axis=1)
        volume = 2.0 / np.prod(c, axis=1) * R ** (m - 1) / math.factorial(m - 1)
        if m == 1:
            mean = 1.0
        elif m == 2:
            mean = R * (c**2).sum(axis=1) / (2.0 * c.prod(axis=1) * c.sum(axis=1))
        else:
            draws = montecarlo._simplex_draws(m)
            mean = 0.0
            for _ in range(draws):
                x = rng.standard_exponential((m, count)).T
                lam = 1.0 + x * (R / x.sum(axis=1))[:, None] / c
                mean = mean + _vandermonde(lam) / draws
        w = w * volume * mean
    return nu, w


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

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_chunked_sums_match_one_pass_sums(self, n, monkeypatch):
        # 2 * BLOCK + 7 proposals: the last chunk is partial
        c = EnergyConstraint(2.2, 2.9)
        blocks, sums = [], []
        block, chi2 = montecarlo._pipeline_block, montecarlo.weighted_chi2

        def captured_block(*args):
            blocks.append(block(*args))
            return blocks[-1]

        def captured_chi2(W, W2, count, expected):
            sums.append((W.copy(), W2.copy()))
            return chi2(W, W2, count, expected)

        monkeypatch.setattr(montecarlo, "_pipeline_block", captured_block)
        monkeypatch.setattr(montecarlo, "weighted_chi2", captured_chi2)
        rep = verify_constrained_density(n, c, 2 * BLOCK + 7, seed=3)
        values, log_weights = map(np.concatenate, zip(*blocks))
        weights = np.exp(log_weights - log_weights.max())
        columns = np.ascontiguousarray(values.T)
        coordinates = columns if n == 4 else [np.add.reduce(columns, axis=0)]
        index = montecarlo._flat_index(coordinates, rep.bin_edges)
        size = rep.counts.size
        [(W, W2)] = sums
        assert np.array_equal(rep.counts.ravel(), np.bincount(index, minlength=size))
        np.testing.assert_allclose(
            W, np.bincount(index, weights=weights, minlength=size), rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(
            W2, np.bincount(index, weights=weights**2, minlength=size), rtol=1e-12, atol=0.0
        )
        ess = weights.sum() ** 2 / (weights**2).sum()
        assert rep.metadata["effective_sample_size"] == pytest.approx(ess, rel=1e-12)

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
        # S, the weight and the uint16 index are kept: 18 bytes per proposal
        # at n = 4.  The report then reads them a chunk at a time and holds
        # S, the weights and the KS sort order, 24 bytes per proposal, plus
        # one chunk.  With blocks of 2**13 the KS pass sets the peak at both
        # counts: 25.6 bytes per proposal at 3e5 (bounded at 28.0, 10% above
        # it) and 24.5 at 1e6.  Blocks of 2**15 took 30.2 at 3e5, full-length
        # report arrays (squared weights, intp copies of the index, CDF
        # temporaries) 40.0 at both counts, and joining whole (nu1, nu2)
        # blocks with a KS of full-length copies 111.
        c = EnergyConstraint(2.5, 2.5)
        verify_constrained_density(4, c, 1_000, seed=1)
        for count, bound in ((300_000, 28.0), (1_000_000, 28.0)):
            tracemalloc.start()
            try:
                verify_constrained_density(4, c, count, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / count < bound, count

    def test_traced_peak_memory_of_one_block_at_n6(self):
        # one block of BLOCK proposals at n = 6 peaks at 319 bytes per
        # proposal (bounded at 350, 10% above it), in either side's Haar
        # draw; 463 when that draw added two complex stacks of normals and
        # copied their sum into columns, 559 with side A's |U|^2 and mixing
        # kept through it too, and the complex Ginibre simplex draw alone
        # peaked at 432
        c = EnergyConstraint(2.5, 2.5)
        rng = np.random.default_rng(1)
        montecarlo._pipeline_block(3, c, BLOCK, rng)
        tracemalloc.start()
        try:
            montecarlo._pipeline_block(3, c, BLOCK, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / BLOCK < 350.0



# verify_constrained_density(n, EnergyConstraint(E_A, E_B), 40_000, seed=1)
# as the pipeline computes it in blocks of 2**13 proposals, when every draw
# is made once, for the proposals that read it, the uniform share is drawn
# on the support simplex, one multinomial splits the closed form among its
# Beta components and the simplex comes from the tridiagonal Laguerre model:
# a faster block must make the same draws in the same order
PARITY = {
    (2, 2.2, 2.9): dict(
        sample_count=40000, dof=19, chi2=30.87994466981779,
        ks=0.007027099936686709, ess=40000.0,
        counts=[
            2013, 2048, 1970, 1988, 1998, 2024, 2089, 1983, 2041, 1951,
            2093, 2079, 1887, 2049, 2003, 1940, 1944, 2005, 1993, 1902,
        ],
    ),
    (4, 2.2, 2.9): dict(
        sample_count=40000, dof=54, chi2=60.27809439667075,
        ks=0.00409786815150967, ess=37860.465708845135,
        counts=[
            236, 992, 2056, 3059, 3043, 2546, 1664, 892, 330, 66,
            911, 180, 435, 859, 1000, 782, 457, 230, 52, 0,
            2192, 415, 98, 214, 273, 237, 146, 55, 0, 0,
            2945, 833, 230, 99, 115, 83, 41, 0, 0, 0,
            3136, 875, 271, 99, 85, 42, 0, 0, 0, 0,
            2639, 806, 197, 86, 50, 0, 0, 0, 0, 0,
            1753, 481, 136, 50, 0, 0, 0, 0, 0, 0,
            857, 206, 41, 0, 0, 0, 0, 0, 0, 0,
            327, 47, 0, 0, 0, 0, 0, 0, 0, 0,
            50, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (6, 2.2, 2.9): dict(
        sample_count=40000, dof=9, chi2=9.51012902960799,
        ks=0.007539003661883981, ess=33205.5544600827,
        counts=[5, 83, 869, 3923, 8635, 11241, 8649, 4132, 1357, 1106],
    ),
    # equal energies: the two subsystems share one log(2E - S)
    (4, 2.5, 2.5): dict(
        sample_count=40000, dof=54, chi2=28.76636766875773,
        ks=0.003692769559931919, ess=37328.14350776672,
        counts=[
            400, 1593, 3129, 3825, 3193, 2236, 1098, 371, 106, 47,
            1565, 210, 552, 898, 833, 486, 233, 102, 29, 0,
            3117, 542, 113, 153, 207, 124, 93, 51, 0, 0,
            3737, 917, 161, 77, 95, 68, 30, 0, 0, 0,
            3296, 796, 192, 102, 98, 30, 0, 0, 0, 0,
            2211, 515, 151, 96, 47, 0, 0, 0, 0, 0,
            1061, 216, 94, 27, 0, 0, 0, 0, 0, 0,
            339, 116, 33, 0, 0, 0, 0, 0, 0, 0,
            115, 34, 0, 0, 0, 0, 0, 0, 0, 0,
            40, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
}


class TestParity:
    @pytest.mark.parametrize("key", list(PARITY), ids=lambda k: "n{}-E{}-{}".format(*k))
    def test_verify_repeats_the_recorded_run(self, key):
        n, E_A, E_B = key
        want = PARITY[key]
        rep = verify_constrained_density(n, EnergyConstraint(E_A, E_B), 40_000, seed=1)
        assert rep.counts.ravel().tolist() == want["counts"]
        assert rep.metadata["sample_count"] == want["sample_count"]
        assert rep.comparison["dof"] == want["dof"]
        assert rep.comparison["chi2"] == pytest.approx(want["chi2"], rel=1e-9)
        assert rep.comparison["ks_statistic"] == pytest.approx(want["ks"], rel=1e-9)
        assert rep.metadata["effective_sample_size"] == pytest.approx(want["ess"], rel=1e-9)


def _golub_welsch(k):
    """The k-point Gauss-Legendre rule on [0, 1] from the Legendre Jacobi matrix.

    Golub & Welsch (Math. Comp. 23 (1969) 221): the eigenvalues and the
    squared first components of the unit eigenvectors, mapped to [0, 1].
    """
    j = np.arange(1.0, k)
    nodes, vectors = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


# every rule size up to 64, and 494, the rule of the masses of S at n = 44
RULE_SIZES = [*range(1, 65), 494]


class TestGaussLegendre:
    @pytest.mark.parametrize("k", RULE_SIZES)
    def test_matches_golub_welsch(self, k):
        nodes, weights = montecarlo._gauss_legendre(k)
        want_nodes, want_weights = _golub_welsch(k)
        assert np.abs(nodes - want_nodes).max() < 1e-14
        assert np.abs(weights - want_weights).max() < 1e-14

    @pytest.mark.parametrize("k", RULE_SIZES)
    def test_exact_on_every_power_up_to_2k_minus_1(self, k):
        nodes, weights = montecarlo._gauss_legendre(k)
        j = np.arange(2 * k)
        sums = (nodes ** j[:, None] * weights).sum(axis=1)
        assert np.abs(sums * (j + 1) - 1.0).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_verify_makes_no_lapack_call_below_n6(self, n, monkeypatch):
        # the bin masses take the Newton rule, and below n = 6 nothing is
        # decomposed; from n = 6 the simplex draw takes eigvalsh
        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK call")

        for name in ("eigh", "eigvalsh", "qr", "cholesky"):
            monkeypatch.setattr(np.linalg, name, lapack)
        c = EnergyConstraint(2.5, 2.5)
        if n == 6:
            with pytest.raises(AssertionError, match="LAPACK"):
                verify_constrained_density(n, c, 20_000, seed=1)
        else:
            rep = verify_constrained_density(n, c, 20_000, seed=1)
            assert rep.comparison["p_value"] > 0.01


class TestBinIndex:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_arithmetic_binning_matches_digitize(self, n):
        # on the edges _report builds at E = (2.2, 2.9): every edge and its
        # two neighbouring doubles, values outside the edges, uniform draws
        c = EnergyConstraint(2.2, 2.9)
        edges = verify_constrained_density(n, c, 200, seed=0, self_test=True).bin_edges[0]
        bins = edges.size - 1
        span = edges[-1] - edges[0]
        near = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        outside = np.array(
            [-1e300, -span, 0.0, edges[0] - span, edges[-1] + span, 2.0 * edges[-1], 1e300]
        )
        uniform = np.random.default_rng(n).uniform(edges[0], edges[-1], 100_000)
        for x in (near, outside, uniform):
            want = np.clip(np.digitize(x, edges) - 1, 0, bins - 1)
            assert np.array_equal(montecarlo._bin_index(x, edges), want)


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

    def test_nan_integral_rejected(self):
        # abs(nan - 1) > tol is False, so the check must be written to fail on NaN
        edges = np.linspace(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            HistogramReport([edges], np.array([1]), np.array([np.nan]), None, {"sample_count": 1})
