import itertools
import math
import threading

import numpy as np
import pytest
from scipy import integrate

from gausshaar.densities import (
    EnergyConstraint,
    balanced_sum_law,
    density_2p2,
    density_balanced,
    density_submanifold_energy,
    energy_mixing_parameters,
    g_2p2,
    log_density_submanifold,
    log_density_unconstrained,
    mean_energy,
    mean_energy_from_state,
)
from gausshaar.haar import (
    euler_to_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
)
from gausshaar.montecarlo import sample_balanced, sample_submanifold_energy
from gausshaar.symplectic import (
    Bipartition,
    GaussianPureState,
    canonical_state,
    tmsv_state,
)


def _vandermonde(x):
    """prod_{h<k} |x_h - x_k| along the last axis, as a plain product."""
    x = np.asarray(x, dtype=float)
    pairs = itertools.combinations(range(x.shape[-1]), 2)
    return np.prod([np.abs(x[..., h] - x[..., k]) for h, k in pairs], axis=0)


class TestUnconstrainedLogDensity:
    def test_single_eigenvalue_value(self):
        assert log_density_unconstrained([2.0], 1, 1) == pytest.approx(np.log(4.0))

    def test_coincident_eigenvalues_are_zero_density(self):
        assert log_density_unconstrained([2.0, 2.0], 2, 2) == -np.inf

    def test_boundary_zero_for_unbalanced_split(self):
        assert log_density_unconstrained([1.0], 1, 2) == -np.inf

    def test_permutation_symmetry(self):
        a = log_density_unconstrained([1.3, 2.7], 2, 3)
        b = log_density_unconstrained([2.7, 1.3], 2, 3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_finite_off_zero_set(self):
        assert np.isfinite(log_density_unconstrained([1.1, 2.0, 3.5], 3, 3))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_density_unconstrained([0.9], 1, 1)


def _log_density_loop(nu, n_A, n_B, square):
    """Pair-by-pair reference for the log densities on one vector."""
    x = np.asarray(nu, dtype=float) ** (2 if square else 1)
    total = 0.0
    for h in range(n_A):
        for k in range(h + 1, n_A):
            gap = abs(x[h] - x[k])
            if gap == 0.0:
                return -np.inf
            total += 2 * np.log(gap)
    if square:
        total += 2 * np.sum(np.log(nu))
    if n_B > n_A:
        if np.any(x == 1.0):
            return -np.inf
        total += (n_B - n_A) * np.sum(np.log(x - 1.0))
    return total


@pytest.mark.parametrize(
    "fn, square", [(log_density_unconstrained, True), (log_density_submanifold, False)]
)
@pytest.mark.parametrize("n_A, n_B", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
def test_log_density_stack_matches_loop(fn, square, n_A, n_B):
    # a grid with repeated coordinates and coordinates at 1, where the
    # densities vanish, plus random interior points
    axis = np.array([1.0, 1.25, 2.0, 3.5, 6.0])
    grid = np.stack(np.meshgrid(*[axis] * n_A, indexing="ij"), axis=-1).reshape(-1, n_A)
    stack = np.concatenate([grid, 1.0 + 5.0 * np.random.default_rng(n_A).random((50, n_A))])
    values = fn(stack, n_A, n_B)
    reference = np.array([_log_density_loop(nu, n_A, n_B, square) for nu in stack])
    assert values.shape == (stack.shape[0],)
    assert np.array_equal(np.isneginf(values), np.isneginf(reference))
    finite = np.isfinite(reference)
    assert np.all(np.isfinite(values[finite]))
    np.testing.assert_allclose(values[finite], reference[finite], rtol=1e-12, atol=0)


class TestMeanEnergy:
    def test_identity_mixing_no_squeezing(self):
        nu = np.array([1.7, 2.4])
        assert mean_energy(np.eye(2), np.ones(2), nu) == pytest.approx(nu.sum() / 2)

    def test_one_mode_product(self):
        assert mean_energy(np.eye(1), [3.0], [2.0]) == pytest.approx(3.0)

    def test_haar_average_is_doubly_stochastic(self):
        rng = np.random.default_rng(21)
        lam, nu = np.array([1.0, 3.0]), np.array([1.5, 2.5])
        vals = [
            mean_energy(sample_haar_unitary(2, rng), lam, nu) for _ in range(20_000)
        ]
        expected = lam.sum() * nu.sum() / (2 * 2)
        stderr = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - expected) < 4 * stderr

    def test_vacuum_energies(self):
        state = GaussianPureState(2, np.eye(4))
        assert mean_energy_from_state(state, Bipartition(1, 1)) == (0.5, 0.5)

    def test_tmsv_energies(self):
        r = 0.6
        nu = np.cosh(2 * r)
        e_a, e_b = mean_energy_from_state(tmsv_state(r), Bipartition(1, 1))
        assert e_a == pytest.approx(nu / 2, abs=1e-12)
        assert e_b == pytest.approx(nu / 2, abs=1e-12)

    def test_dual_path_energy_consistency(self):
        # trace of the transformed covariance vs the mixing-matrix formula
        rng = np.random.default_rng(22)
        bp = Bipartition(2, 2)
        for _ in range(25):
            nu = np.sort(rng.uniform(1.0, 3.0, 2))[::-1]
            state = canonical_state(np.arccosh(nu) / 2, bp)
            g = sample_homogeneous_gaussian_unitary(2, 4.0, rng)
            S_a = euler_to_symplectic(g)
            S = np.eye(8)
            S[:4, :4] = S_a
            moved = GaussianPureState(4, S @ state.covariance @ S.T)
            e_a, _ = mean_energy_from_state(moved, bp)
            U_eff, lam_eff = energy_mixing_parameters(g)
            assert e_a == pytest.approx(mean_energy(U_eff, lam_eff, nu), abs=1e-8)


class TestG2p2:
    def test_corner_value(self):
        assert g_2p2(1.0, 1.0, 2.0) == pytest.approx(2.0)

    def test_shell_boundary_is_zero(self):
        assert g_2p2(1.5, 2.5, 2.0) == 0.0

    def test_beyond_boundary_is_zero(self):
        assert g_2p2(2.0, 3.5, 2.0) == 0.0

    def test_symmetry(self):
        assert g_2p2(1.2, 1.9, 2.5) == pytest.approx(g_2p2(1.9, 1.2, 2.5), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g_2p2(0.5, 1.5, 2.0)


class TestDensity1p1:
    def test_value_inside_support(self):
        # uniform on [1, 2 min(E)] = [1, 4]: 1 / (4 - 1)
        c = EnergyConstraint(2.0, 3.0)
        assert density_balanced([1.5], c) == pytest.approx(1.0 / 3.0)

    def test_outside_support(self):
        c = EnergyConstraint(2.0, 3.0)
        assert density_balanced([4.5], c) == 0.0
        assert density_balanced([0.5], c) == 0.0

    def test_normalization(self):
        c = EnergyConstraint(2.0, 3.0)
        val, _ = integrate.quad(
            lambda x: density_balanced([x], c), 0.5, 5.0, points=[1.0, 4.0]
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_constraint(self):
        # 2 min(E) <= 1 leaves no room above nu = 1
        with pytest.raises(ValueError):
            density_balanced([1.0], EnergyConstraint(0.5, 3.0))


class TestDensityBalanced:
    def test_many_modes_high_energy_finite(self):
        # L^(m^2 + 2a) = 50^208 overflows a double; the log form does not
        nu = 1.0 + 0.5 * np.arange(1, 11)
        val = density_balanced(nu, EnergyConstraint(30.0, 30.0))
        assert math.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_log_form_matches_direct_product(self, m):
        # the normalized product Delta^2 [(2E_A - S)(2E_B - S)]^a / Z, with
        # Z = simplex constant x L^(m^2 + 2a) x summed Beta-mixture weights
        c = EnergyConstraint(m + 1.2, m + 1.9)
        L, a, _, log_total = balanced_sum_law(m, c)
        simplex = math.prod(
            math.factorial(j) * math.factorial(j + 1) for j in range(m)
        ) / math.factorial(m * m - 1)
        norm = simplex * L ** (m * m + 2 * a) * math.exp(log_total)
        rng = np.random.default_rng(m)
        nu = 1.0 + rng.dirichlet(np.ones(m), 50) * rng.uniform(0.0, L, (50, 1))
        total = nu.sum(axis=1)
        bracket = (2 * c.E_A - total) * (2 * c.E_B - total)
        direct = _vandermonde(nu) ** 2 * bracket**a / norm
        assert np.all(direct > 0.0)
        assert np.allclose(density_balanced(nu, c), direct, rtol=1e-12, atol=0.0)


class TestDensity2p2:
    constraint = EnergyConstraint(2.5, 2.5)

    def test_zero_on_equal_eigenvalues(self):
        assert density_2p2(1.7, 1.7, self.constraint) == 0.0

    def test_argmax_touches_nu_equals_one(self):
        axis = np.linspace(1.0, 4.0, 200)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        dens = density_2p2(X, Y, self.constraint)
        i, j = np.unravel_index(np.argmax(dens), dens.shape)
        assert min(axis[i], axis[j]) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_by_independent_quadrature(self):
        c = self.constraint
        val, _ = integrate.dblquad(
            lambda y, x: density_2p2(x, y, c), 1.0, 4.0, 1.0, 4.0,
            epsabs=1e-10, epsrel=1e-9,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "m, energies",
        [
            pytest.param(2, (2.2, 2.9), id="energies0"),
            pytest.param(2, (1.5, 4.0), id="energies1"),
            pytest.param(2, (1.2, 1.3), id="energies2"),
            pytest.param(3, (2.2, 2.9), id="m3"),
        ],
    )
    def test_normalization_unequal_energies(self, m, energies):
        c = EnergyConstraint(*energies)
        top = 2.0 * c.min_energy
        if m == 2:
            val, _ = integrate.dblquad(
                lambda y, x: density_2p2(x, y, c), 1.0, top - 1.0, 1.0, lambda x: top - x,
                epsabs=1e-12, epsrel=1e-10,
            )
        else:
            # along the ray nu = 1 + u x0, for a fixed point x0 of the unit
            # simplex, the density is Delta(u x0)^2 f(u) / Z; dividing by
            # Delta(x0)^2 and multiplying by u^(m - 1) and the unit-simplex
            # integral of Delta^2 gives the density of u = S - m
            x0 = np.array([0.5, 0.3, 0.2])
            simplex = math.prod(
                math.factorial(j) * math.factorial(j + 1) for j in range(m)
            ) / math.factorial(m * m - 1)
            scale = simplex / _vandermonde(x0) ** 2
            val, _ = integrate.quad(
                lambda u: density_balanced(1.0 + u * x0, c) * u ** (m - 1) * scale,
                0.0, top - m, epsabs=1e-13, epsrel=1e-11,
            )
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_product_form_identity(self):
        # the closed form equals (invariant factor) x g(E_A) x g(E_B)
        # pointwise up to one global constant
        c = EnergyConstraint(2.5, 3.0)
        axis = np.linspace(1.05, 3.4, 20)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        inside = (X + Y < 2 * c.min_energy) & (np.abs(X - Y) > 1e-6)
        direct = density_2p2(X, Y, c)[inside]
        factor = (X**2 * Y**2 * (X**2 - Y**2) ** 2)[inside]
        product = factor * g_2p2(X, Y, c.E_A)[inside] * g_2p2(X, Y, c.E_B)[inside]
        ratio = direct / product
        assert np.abs(ratio / ratio.mean() - 1.0).max() < 1e-10

    def test_symmetry(self):
        a = density_2p2(1.3, 2.2, self.constraint)
        b = density_2p2(2.2, 1.3, self.constraint)
        assert a == pytest.approx(b, abs=1e-15)

    def test_cache_is_thread_safe(self):
        c = EnergyConstraint(2.2, 2.9)
        results = []

        def worker():
            results.append(density_2p2(1.4, 2.0, c))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestSubmanifoldDensities:
    def test_balanced_reduces_to_vandermonde(self):
        assert log_density_submanifold([3.0, 1.0], 2, 2) == pytest.approx(np.log(4.0))

    def test_boundary_zero_unbalanced(self):
        assert log_density_submanifold([1.0, 2.0], 2, 3) == -np.inf

    def test_fixed_energy_point_mass_n2(self):
        assert density_submanifold_energy([4.0], 2.0, 2) == 1.0

    def test_fixed_energy_zero_on_diagonal(self):
        assert density_submanifold_energy([2.0, 2.0], 2.0, 4) == 0.0

    def test_fixed_energy_maximal_at_segment_ends(self):
        vals = []
        for nu1 in np.linspace(1.0, 3.0, 21):
            vals.append(density_submanifold_energy([nu1, 4.0 - nu1], 2.0, 4))
        assert np.argmax(vals) in (0, 20)

    def test_fixed_energy_normalization_n4(self):
        # integrate along the segment parameterized by nu1
        val, _ = integrate.quad(
            lambda x: density_submanifold_energy([x, 4.0 - x], 2.0, 4), 1.0, 3.0
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("m, E", [(2, 2.0), (3, 3.0), (4, 3.5), (5, 4.0)])
    def test_fixed_energy_normalization_by_dirichlet_mc(self, m, E):
        # uniform points on the simplex {nu >= 1, sum nu = 2E}; its volume in
        # the first m - 1 coordinates is (2E - m)^(m-1) / (m-1)!
        rng = np.random.default_rng(48 + m)
        width = 2.0 * E - m
        points = 1.0 + width * rng.dirichlet(np.ones(m), size=20_000)
        points[:, -1] = 2.0 * E - points[:, :-1].sum(axis=1)
        vals = density_submanifold_energy(points, E, 2 * m)
        assert vals.min() >= 0.0
        volume = width ** (m - 1) / math.factorial(m - 1)
        mean, stderr = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(volume * mean - 1.0) < 4 * volume * stderr

    @pytest.mark.parametrize("m, E", [(1, 2.0), (2, 2.0), (3, 3.0)])
    def test_fixed_energy_stack_equals_single_vectors(self, m, E):
        rng = np.random.default_rng(60 + m)
        points = 1.0 + (2.0 * E - m) * rng.dirichlet(np.ones(m), size=50)
        points[:, -1] = 2.0 * E - points[:, :-1].sum(axis=1)
        stack = density_submanifold_energy(points.reshape(5, 10, m), E, 2 * m)
        singles = [density_submanifold_energy(p, E, 2 * m) for p in points]
        assert stack.shape == (5, 10)
        assert all(type(v) is float for v in singles)
        assert np.array_equal(stack.ravel(), singles)

    def test_fixed_energy_positive_at_n6(self):
        assert density_submanifold_energy([3.0, 2.0, 1.0], 3.0, 6) > 0.0

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            density_submanifold_energy([1.5, 2.0], 2.0, 4)

    def test_empty_simplex(self):
        with pytest.raises(ValueError):
            density_submanifold_energy([1.0, 1.0], 0.4, 4)

    def test_point_simplex_rejected(self):
        # 2E = n/2 leaves only nu = (1, 1), which has no density on a line
        with pytest.raises(ValueError, match="single point"):
            density_submanifold_energy([1.0, 1.0], 1.0, 4)


def _log_vandermonde_ref(x) -> float:
    """sum_{h<k} log |x_h - x_k| of one vector, in Python floats with math.fsum."""
    return math.fsum(math.log(abs(a - b)) for a, b in itertools.combinations(x, 2))


def _log_simplex_constant_ref(m: int) -> float:
    """log of the unit-simplex integral of Delta^2, prod_{j<m} j! (j+1)! / Gamma(m^2)."""
    return math.fsum(
        [math.lgamma(j + 1) + math.lgamma(j + 2) for j in range(m)] + [-math.lgamma(m * m)]
    )


class TestManyModes:
    """Every law at n up to 80, where the products of its factors leave the float range.

    Each value is compared with a scalar evaluation in logs: math.fsum over
    the factors of one vector, and math.lgamma for the normalizers.
    """

    cases = pytest.mark.parametrize(
        "n, E", [(36, 180.0), (40, 100.0), (56, 280.0), (80, 1000.0)]
    )

    @staticmethod
    def draws(n, E):
        rng = np.random.default_rng(n)
        balanced = sample_balanced(n // 2, EnergyConstraint(E, E), 12, rng)
        simplex = sample_submanifold_energy(n, E, 12, rng)
        return balanced, simplex

    @cases
    def test_density_balanced(self, n, E):
        # at E_A = E_B the sum S has the marginal (S - m)^(m^2 - 1) (2E - S)^(2a)
        # on [m, 2E], whose integral is L^(m^2 + 2a) B(m^2, 2a + 1)
        m = n // 2
        a = (m - 1) * (m + 2) // 2
        L = 2.0 * E - m
        log_norm = math.fsum([
            _log_simplex_constant_ref(m),
            (m * m + 2 * a) * math.log(L),
            math.lgamma(m * m) + math.lgamma(2 * a + 1) - math.lgamma(m * m + 2 * a + 1),
        ])
        nu, _ = self.draws(n, E)
        got = density_balanced(nu, EnergyConstraint(E, E))
        for value, row in zip(got, nu.tolist()):
            bracket = 2.0 * E - math.fsum(row)
            want = math.exp(
                2.0 * _log_vandermonde_ref(row) + 2 * a * math.log(bracket) - log_norm
            )
            assert 0.0 < value < math.inf
            assert value == pytest.approx(want, rel=1e-10)

    @cases
    def test_density_submanifold_energy(self, n, E):
        m = n // 2
        log_norm = (m * m - 1) * math.log(2.0 * E - m) + _log_simplex_constant_ref(m)
        _, nu = self.draws(n, E)
        got = density_submanifold_energy(nu, E, n)
        for value, row in zip(got, nu.tolist()):
            want = math.exp(2.0 * _log_vandermonde_ref(row) - log_norm)
            assert 0.0 < value < math.inf
            assert value == pytest.approx(want, rel=1e-10)

    @cases
    def test_log_densities(self, n, E):
        m = n // 2
        for nu in self.draws(n, E):
            unconstrained = log_density_unconstrained(nu, m, m)
            submanifold = log_density_submanifold(nu, m, m)
            assert np.all(np.isfinite(unconstrained)) and np.all(np.isfinite(submanifold))
            for u, s, row in zip(unconstrained, submanifold, nu.tolist()):
                squares = [x * x for x in row]
                log_row = math.fsum(map(math.log, row))
                want = 2.0 * _log_vandermonde_ref(squares) + 2.0 * log_row
                assert u == pytest.approx(want, rel=1e-10)
                assert s == pytest.approx(2.0 * _log_vandermonde_ref(row), rel=1e-10)
