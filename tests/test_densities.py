import math
import threading

import numpy as np
import pytest
from scipy import integrate

from gausshaar.densities import (
    EnergyConstraint,
    density_1p1,
    density_2p2,
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
from gausshaar.symplectic import (
    Bipartition,
    GaussianPureState,
    canonical_state,
    tmsv_state,
)


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
        assert density_1p1(1.5, c) == pytest.approx(1.0 / 3.0)

    def test_outside_support(self):
        c = EnergyConstraint(2.0, 3.0)
        assert density_1p1(4.5, c) == 0.0
        assert density_1p1(0.5, c) == 0.0

    def test_normalization(self):
        c = EnergyConstraint(2.0, 3.0)
        val, _ = integrate.quad(
            lambda x: density_1p1(x, c), 0.5, 5.0, points=[1.0, 4.0]
        )
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_constraint(self):
        # 2 min(E) <= 1 leaves no room above nu = 1
        with pytest.raises(ValueError):
            density_1p1(1.0, EnergyConstraint(0.5, 3.0))


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

    @pytest.mark.parametrize("energies", [(2.2, 2.9), (1.5, 4.0), (1.2, 1.3)])
    def test_normalization_unequal_energies(self, energies):
        c = EnergyConstraint(*energies)
        top = 2.0 * c.min_energy
        val, _ = integrate.dblquad(
            lambda y, x: density_2p2(x, y, c), 1.0, top - 1.0, 1.0, lambda x: top - x,
            epsabs=1e-12, epsrel=1e-10,
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
        vals = np.array([density_submanifold_energy(p, E, 2 * m) for p in points])
        assert vals.min() >= 0.0
        volume = width ** (m - 1) / math.factorial(m - 1)
        mean, stderr = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(volume * mean - 1.0) < 4 * volume * stderr

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
