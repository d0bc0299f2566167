import functools
import itertools
import math
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gausshaar.densities import (
    EnergyConstraint,
    balanced_sum_law,
    density_2p2,
    density_balanced,
    g_2p2,
    log_density_balanced,
    log_density_unconstrained,
)
from gausshaar import densities, montecarlo
from gausshaar.haar import log_vandermonde, sample_haar_unitary
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


def _lambda_weight(c, E, rng):
    """log of the constrained lambda-weight of rows c (count, m) of mixing coefficients.

    ``_log_lambda_integral`` is called as ``_log_weight`` calls it: on
    the columns of the rows with S = sum(c) < 2E, the mask of those rows, S
    and log(2E - S).  Returns the log-weights of the rows it keeps.
    """
    columns = c.T
    S = functools.reduce(np.add, columns)
    rows = S < 2.0 * E
    S = S[rows]
    return _log_lambda_integral(
        np.compress(rows, columns, axis=1), S, np.log(2.0 * E - S), rng, rows
    )


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


def _integrand(columns, constraint, rng, rows):
    """``_log_weight`` at the columns of nu, with S and log(2E - S) formed as the pipeline forms them."""
    S = functools.reduce(np.add, columns)
    log_gaps = [np.log(2.0 * E - S) for E in (constraint.E_A, constraint.E_B)]
    return montecarlo._log_weight(columns, S, log_gaps, rng, rows)


def _log_mean_weight(nu, constraint, repeats, rng, p_weights=None):
    """log of the mean of the integrand at the point nu over ``repeats`` draws, and its SE.

    nu is tiled into ``repeats`` columns, all kept.  ``p_weights`` weighs the
    repeats; without it the mean is plain, and the SE of its log is
    sd(w) / (mean sqrt(repeats)).
    """
    columns = np.repeat(np.asarray(nu, dtype=float)[:, None], repeats, axis=1)
    log_w = _integrand(columns, constraint, rng, np.ones(repeats, bool))
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
        # p is the only draw, and the mean over it is exactly
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
        if mutation == "no-nu2":
            monkeypatch.setattr(
                montecarlo,
                "log_density_unconstrained",
                lambda nu, n_A, n_B: log_density_unconstrained(nu, n_A, n_B)
                - 2.0 * np.log(nu).sum(axis=-1),
            )
        elif mutation == "vandermonde-1":
            monkeypatch.setattr(
                montecarlo,
                "log_density_unconstrained",
                lambda nu, n_A, n_B: log_density_unconstrained(nu, n_A, n_B)
                - log_vandermonde(nu**2),
            )
        else:
            monkeypatch.setattr(montecarlo, "sample_haar_unitary", _sample_orthogonal)
        chi2, p = _pointwise_chi2(3, EnergyConstraint(3.0, 3.0), 20_000, np.random.default_rng(6))
        assert p < 1e-6, chi2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_stream_does_not_depend_on_the_kept_rows(self, m):
        c = EnergyConstraint(2.2, 2.9)
        nu = sample_balanced(m, c, 400, np.random.default_rng(m)).T
        some = np.random.default_rng(10 + m).random(400) < 0.7
        assert not some.all()

        def weigh(rows):
            rng = np.random.default_rng(5)
            log_w = _integrand(np.compress(rows, nu, axis=1), c, rng, rows)
            return log_w, rng.bit_generator.state

        every, every_state = weigh(np.ones(400, bool))
        kept, kept_state = weigh(some)
        assert kept_state == every_state
        assert np.array_equal(kept, every[some])


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
        ],
        ids=["inward-2", "inward-4", "inward-6", "exponent-4", "exponent-6"],
    )
    def test_a_wrong_closed_form_fails(self, mutation, n, E, count, monkeypatch):
        # a closed form whose support stops 0.2 short of 2 min(E), or with
        # the exponent a - 1, in the proposal and in the expected masses alike
        if mutation == "inward":
            def lowered(c):
                return EnergyConstraint(c.E_A - 0.1, c.E_B - 0.1)

            monkeypatch.setattr(
                montecarlo, "balanced_sum_law", lambda m, c: balanced_sum_law(m, lowered(c))
            )
            # the lowered law forms its own gaps: the pipeline's are of c
            monkeypatch.setattr(
                montecarlo,
                "log_density_balanced",
                lambda nu, c, log_gaps: log_density_balanced(nu, lowered(c)),
            )
            monkeypatch.setattr(
                montecarlo, "density_2p2", lambda x, y, c: density_2p2(x, y, lowered(c))
            )
        else:
            monkeypatch.setattr(densities, "balanced_sum_law", _law_with_lighter_exponent)
            monkeypatch.setattr(montecarlo, "balanced_sum_law", _law_with_lighter_exponent)
        rep = verify_constrained_density(n, EnergyConstraint(E, E), count, seed=1)
        assert "degenerate" not in rep.metadata
        assert rep.comparison["p_value"] < 1e-6


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

    The same draws in the same order; the reference for the log-weights.  The
    mean repulsion at fixed mixing is 1 at m = 1, R's closed form at m = 2,
    and a plain mean over ``_simplex_draws(m)`` points of the simplex from m = 3.
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
        w = w * np.where(R > 0, volume * mean, 0.0)
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



# verify_constrained_density(n, EnergyConstraint(E_A, E_B), 40_000, seed=1)
# as the pipeline computed it before its blocks were rewritten for speed: a
# faster block must make the same draws in the same order
PARITY = {
    (2, 2.2, 2.9): dict(
        sample_count=40000, dof=19, chi2=11.803803566395823,
        ks=0.0038517913519525715, ess=40000.000000000015,
        counts=[
            2010, 1963, 1973, 1990, 1973, 1960, 2043, 2014, 2033, 2053,
            1959, 1985, 2060, 2043, 2045, 1970, 1978, 2013, 1955, 1980,
        ],
    ),
    (4, 2.2, 2.9): dict(
        sample_count=36923, dof=54, chi2=51.2904821503888,
        ks=0.004652332072257126, ess=35992.844260840015,
        counts=[
            207, 927, 2216, 2988, 2977, 2388, 1700, 820, 260, 24,
            857, 108, 410, 749, 955, 707, 417, 149, 13, 0,
            2020, 389, 49, 128, 218, 154, 82, 15, 0, 0,
            2856, 772, 115, 33, 38, 30, 14, 0, 0, 0,
            3039, 886, 220, 44, 19, 13, 0, 0, 0, 0,
            2468, 775, 174, 28, 16, 0, 0, 0, 0, 0,
            1628, 409, 86, 14, 0, 0, 0, 0, 0, 0,
            854, 140, 13, 0, 0, 0, 0, 0, 0, 0,
            254, 22, 0, 0, 0, 0, 0, 0, 0, 0,
            36, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (6, 2.2, 2.9): dict(
        sample_count=35999, dof=8, chi2=3.495934598476689,
        ks=0.006206390462280553, ess=31812.392079896144,
        counts=[0, 44, 765, 3660, 8213, 10897, 8307, 3504, 583, 26],
    ),
    # equal energies: the two subsystems share one log(2E - S)
    (4, 2.5, 2.5): dict(
        sample_count=37063, dof=54, chi2=50.445711125196695,
        ks=0.005276633184686075, ess=35819.8311370996,
        counts=[
            365, 1495, 3086, 3655, 3246, 2152, 1100, 312, 53, 9,
            1500, 141, 477, 835, 810, 470, 164, 33, 11, 0,
            3049, 483, 67, 130, 143, 70, 22, 9, 0, 0,
            3739, 867, 99, 27, 33, 22, 18, 0, 0, 0,
            3068, 768, 135, 32, 25, 17, 0, 0, 0, 0,
            2087, 440, 73, 24, 7, 0, 0, 0, 0, 0,
            1042, 174, 31, 10, 0, 0, 0, 0, 0, 0,
            299, 35, 11, 0, 0, 0, 0, 0, 0, 0,
            73, 9, 0, 0, 0, 0, 0, 0, 0, 0,
            11, 0, 0, 0, 0, 0, 0, 0, 0, 0,
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
