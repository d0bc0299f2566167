import math

import numpy as np
import pytest
from scipy import stats

from gausshaar.densities import log_vandermonde
from gausshaar.haar import (
    EulerGaussianUnitary,
    apply_to_vacuum,
    euler_to_symplectic,
    passive_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
    sample_lambda,
    sample_repulsive,
    squeeze_symplectic,
)
from gausshaar.symplectic import (
    Bipartition,
    symplectic_form,
    tmsv_state,
    tmsv_symplectic,
    williamson_spectrum,
)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            U = sample_haar_unitary(n, rng)
            assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-12

    def test_phase_circular_symmetry_n1(self):
        rng = np.random.default_rng(1)
        draws = sample_haar_unitary(1, rng, size=100_000)[:, 0, 0]
        assert np.abs(draws.mean()) < 3.0 / np.sqrt(draws.size)

    def test_second_moment_is_one_over_n(self):
        rng = np.random.default_rng(2)
        n = 4
        U = sample_haar_unitary(n, rng, size=100_000)
        m = np.abs(U[:, 0, 0]) ** 2
        stderr = m.std(ddof=1) / np.sqrt(m.size)
        assert abs(m.mean() - 1.0 / n) < 3 * stderr

    def test_u11_squared_uniform_for_n2(self):
        rng = np.random.default_rng(3)
        U = sample_haar_unitary(2, rng, size=100_000)
        t = np.abs(U[:, 0, 0]) ** 2
        ks = stats.kstest(t, "uniform").statistic
        assert ks < 0.01

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [None, 2_000], ids=["single", "stack"])
    def test_matches_qr_with_positive_diagonal(self, n, size):
        # the reference: LAPACK QR of the same Ginibre draw, with the phases
        # that make the diagonal of R real and positive
        shape = (n, n) if size is None else (size, n, n)
        rng = np.random.default_rng(10 + n)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        want = q * (d / np.abs(d))[..., np.newaxis, :]
        U = sample_haar_unitary(n, np.random.default_rng(10 + n), size=size)
        assert isinstance(U, np.ndarray) and U.shape == shape
        assert np.abs(U - want).max() < 1e-12
        eye = np.eye(n)
        assert np.abs(U.conj().swapaxes(-1, -2) @ U - eye).max() < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "n, size", [(3, None), (3, 8192), (4, 1000)], ids=["3x3", "8192x3x3", "1000x4x4"]
    )
    def test_same_matrices_as_the_sum_of_two_normal_draws(self, n, size, seed):
        # the Ginibre matrix is written part by part into one complex array;
        # the expression it replaced, normal + 1j * normal, orthogonalized by
        # the same CGS2, gives the same matrices bit for bit, sign bits included
        shape = (n, n) if size is None else (size, n, n)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q = np.moveaxis(z, (-1, -2), (0, 1)).copy()
        for j in range(n):
            v = q[j]
            for _ in range(2 if j else 0):
                coef = np.einsum("kr...,r...->k...", q[:j], v.conj()).conj()
                v -= np.einsum("kr...,k...->r...", q[:j], coef)
            v /= np.sqrt(
                np.einsum("r...,r...->...", v.real, v.real)
                + np.einsum("r...,r...->...", v.imag, v.imag)
            )
        want = np.moveaxis(q, (0, 1), (-1, -2))
        U = sample_haar_unitary(n, np.random.default_rng(seed), size=size)
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (U, want)]
        assert np.array_equal(*bits)

    def test_left_invariance_smoke(self):
        rng = np.random.default_rng(4)
        fixed = sample_haar_unitary(2, np.random.default_rng(99))
        U = sample_haar_unitary(2, rng, size=100_000)
        t_plain = np.abs(U[:, 0, 0]) ** 2
        t_shift = np.abs((fixed @ U)[:, 0, 0]) ** 2
        assert stats.ks_2samp(t_plain, t_shift).statistic < 0.02


class TestLambdaSampler:
    def test_n1_uniform(self):
        rng = np.random.default_rng(5)
        lam = sample_lambda(1, 5.0, rng, size=100_000)[:, 0]
        ks = stats.kstest(lam, stats.uniform(loc=1.0, scale=4.0).cdf).statistic
        assert ks < 0.01

    def test_range_always_respected(self):
        rng = np.random.default_rng(6)
        lam = sample_lambda(3, 4.0, rng, size=2_000)
        assert lam.min() >= 1.0 and lam.max() <= 4.0

    def test_n2_close_pair_probability(self):
        # P(|l1 - l2| < 0.1) on [1,3]^2 against 2D quadrature of |l1 - l2|
        rng = np.random.default_rng(7)
        count = 100_000
        lam = sample_lambda(2, 3.0, rng, size=count)
        gap = np.abs(lam[:, 0] - lam[:, 1])
        hits = gap < 0.1
        # int |x-y| over [1,3]^2 = w^3/3 with w=2; band mass by direct formula
        w, d = 2.0, 0.1
        total = w**3 / 3
        band = d**2 * w - 2 * d**3 / 3  # int_{|x-y|<d} |x-y|
        expected = band / total
        stderr = np.sqrt(expected * (1 - expected) / count)
        assert abs(hits.mean() - expected) < 3 * stderr

    def test_n2_sign_symmetry(self):
        rng = np.random.default_rng(8)
        lam = sample_lambda(2, 3.0, rng, size=100_000)
        frac = (lam[:, 0] > lam[:, 1]).mean()
        assert abs(frac - 0.5) < 3 * 0.5 / np.sqrt(lam.shape[0])

    def test_n2_joint_density_chi2(self):
        rng = np.random.default_rng(9)
        count = 100_000
        lam = sample_lambda(2, 3.0, rng, size=count)
        edges = np.linspace(1.0, 3.0, 21)
        counts, _, _ = np.histogram2d(lam[:, 0], lam[:, 1], bins=[edges, edges])
        # expected cell masses of |x - y| by fine midpoint quadrature
        fine = np.linspace(1.0, 3.0, 20 * 6 + 1)
        mids = 0.5 * (fine[:-1] + fine[1:])
        X, Y = np.meshgrid(mids, mids, indexing="ij")
        cellmass = np.abs(X - Y) * np.diff(fine)[:, None] * np.diff(fine)[None, :]
        expected_prob = cellmass.reshape(20, 6, 20, 6).sum(axis=(1, 3))
        expected_prob /= expected_prob.sum()
        expected = count * expected_prob
        keep = expected > 5
        chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        dof = keep.sum() - 1
        assert stats.chi2.sf(chi2, dof) > 0.01

    @pytest.mark.parametrize("m, seed", [(3, 40), (4, 41)])
    def test_box_selberg_moment(self, m, seed):
        # under prod |x_h - x_k| on [0, 1]^m the mean of that same product is
        # the ratio of Selberg integrals S_m(1) / S_m(1/2), a = b = 1
        def selberg(g):
            return math.prod(
                math.gamma(1 + j * g) ** 2 * math.gamma(1 + (j + 1) * g)
                / (math.gamma(2 + (m + j - 1) * g) * math.gamma(1 + g))
                for j in range(m)
            )

        x, rate = sample_repulsive(m, 0.0, 1.0, 100_000, np.random.default_rng(seed))
        assert rate == 1.0 and x.min() >= 0.0 and x.max() <= 1.0
        v = np.exp(log_vandermonde(x))
        stderr = v.std(ddof=1) / np.sqrt(v.size)
        assert abs(v.mean() - selberg(1.0) / selberg(0.5)) < 4 * stderr

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            sample_lambda(2, 1.0, np.random.default_rng(0))


class TestEulerSymplectic:
    def test_identity_factors_give_identity(self):
        g = EulerGaussianUnitary(0.0, np.eye(2), np.zeros(2), np.eye(2))
        assert np.allclose(euler_to_symplectic(g), np.eye(4), atol=1e-15)

    def test_single_mode_squeeze_oracle(self):
        s1 = 0.35
        g = EulerGaussianUnitary(0.0, np.eye(1), np.array([s1]), np.eye(1))
        state = apply_to_vacuum(euler_to_symplectic(g))
        assert np.allclose(
            state.covariance, np.diag([np.exp(-4 * s1), np.exp(4 * s1)]), atol=1e-12
        )
        nu = williamson_spectrum(state, Bipartition(1, 0)).nu
        assert nu[0] == pytest.approx(1.0, abs=1e-10)

    def test_single_mode_energy_factor_uniform(self):
        # Haar measure on SL(2, R) makes tr(S S^T)/2 uniform; the sampler's
        # lambda must be that quantity, so it is uniform on [1, cutoff]
        rng = np.random.default_rng(18)
        half_traces = []
        for _ in range(20_000):
            S = euler_to_symplectic(sample_homogeneous_gaussian_unitary(1, 10.0, rng))
            half_traces.append(np.trace(S @ S.T) / 2)
        ks = stats.kstest(half_traces, stats.uniform(loc=1.0, scale=9.0).cdf).statistic
        assert ks < 0.015

    def test_single_mode_energy_factor_uniform_batched(self):
        g = sample_homogeneous_gaussian_unitary(1, 10.0, np.random.default_rng(18), size=20_000)
        S = euler_to_symplectic(g)
        half_traces = np.trace(S @ S.transpose(0, 2, 1), axis1=1, axis2=2) / 2
        ks = stats.kstest(half_traces, stats.uniform(loc=1.0, scale=9.0).cdf).statistic
        assert ks < 0.015

    def test_symplectic_group_membership(self):
        rng = np.random.default_rng(12)
        omega = symplectic_form(3)
        for _ in range(100):
            g = sample_homogeneous_gaussian_unitary(3, 6.0, rng)
            S = euler_to_symplectic(g)
            assert np.abs(S @ omega @ S.T - omega).max() < 1e-10 * max(
                1.0, np.abs(S).max() ** 2
            )

    def test_theta_has_no_effect(self):
        rng = np.random.default_rng(13)
        U = sample_haar_unitary(2, rng)
        Up = sample_haar_unitary(2, rng)
        s = np.array([0.2, 0.5])
        a = euler_to_symplectic(EulerGaussianUnitary(0.0, U, s, Up))
        b = euler_to_symplectic(EulerGaussianUnitary(1.7, U, s, Up))
        assert np.array_equal(a, b)

    def test_passive_is_orthogonal_symplectic(self):
        rng = np.random.default_rng(14)
        U = sample_haar_unitary(3, rng)
        O = passive_symplectic(U)
        omega = symplectic_form(3)
        assert np.abs(O @ O.T - np.eye(6)).max() < 1e-12
        assert np.abs(O @ omega @ O.T - omega).max() < 1e-12

    def test_squeeze_matrix_shape(self):
        Z = squeeze_symplectic([0.3])
        assert np.allclose(Z, np.diag([np.exp(-0.6), np.exp(0.6)]), atol=1e-15)


class TestApplyToVacuum:
    def test_identity_gives_vacuum(self):
        state = apply_to_vacuum(np.eye(4))
        assert np.array_equal(state.covariance, np.eye(4))

    def test_tmsv_cross_constructor(self):
        r = 0.6
        state = apply_to_vacuum(tmsv_symplectic(r))
        assert np.allclose(state.covariance, tmsv_state(r).covariance, atol=1e-10)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            apply_to_vacuum(2.0 * np.eye(4))

    def test_sampled_states_pass_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = sample_homogeneous_gaussian_unitary(2, 5.0, rng)
            apply_to_vacuum(euler_to_symplectic(g))  # constructor validates

    def test_stack_rejects_one_non_symplectic_matrix(self):
        # the squeezed member has scale max|S|^2 ~ 3e3, so a tolerance scaled
        # by the whole stack would let the defect 2e-9 of the last one through
        squeezed = squeeze_symplectic([2.0, 0.0])
        good = np.stack([np.eye(4), squeezed])
        assert apply_to_vacuum(good).covariance.shape == (2, 4, 4)
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            apply_to_vacuum(np.stack([*good, (1.0 + 1e-9) * np.eye(4)]))

    @pytest.mark.parametrize(
        "bad", [1e160, np.nan, np.inf], ids=["overflowing-scale", "nan", "inf"]
    )
    def test_stack_rejects_a_matrix_the_squared_scale_cannot_hold(self, bad):
        # max|S|^2 overflows at 1e160, and a NaN fails every comparison, so
        # neither may reach the test as a scaled tolerance; an inf is rejected
        # before the defect's products, which would warn on it
        good = np.stack([np.eye(4), squeeze_symplectic([2.0, 0.0])])
        with pytest.raises(ValueError, match="matrix is not symplectic"):
            apply_to_vacuum(np.stack([*good, np.diag(np.full(4, bad))]))


class TestBatchedDraws:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_size_one_matches_single_draw(self, n):
        rng_single, rng_batch = np.random.default_rng(30 + n), np.random.default_rng(30 + n)
        single = sample_homogeneous_gaussian_unitary(n, 7.0, rng_single)
        batch = sample_homogeneous_gaussian_unitary(n, 7.0, rng_batch, size=1)
        assert single.theta == batch.theta[0]
        for field in ("U", "s", "U_prime"):
            assert np.array_equal(getattr(single, field), getattr(batch, field)[0])
        assert np.array_equal(
            euler_to_symplectic(single), euler_to_symplectic(batch)[0]
        )
        assert rng_single.random() == rng_batch.random()

    @pytest.mark.parametrize("field", ["U", "U_prime"])
    def test_stack_rejects_one_non_unitary_matrix(self, field):
        rng = np.random.default_rng(31)
        factors = {
            "theta": np.zeros(3),
            "U": sample_haar_unitary(2, rng, size=3),
            "s": np.zeros((3, 2)),
            "U_prime": sample_haar_unitary(2, rng, size=3),
        }
        EulerGaussianUnitary(**factors)
        factors[field][1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=f"{field} is not unitary"):
            EulerGaussianUnitary(**factors)


class TestSmallLimits:
    def test_cutoff_near_one_gives_vacuum_spectrum(self):
        rng = np.random.default_rng(16)
        g = sample_homogeneous_gaussian_unitary(2, 1.0 + 1e-9, rng)
        state = apply_to_vacuum(euler_to_symplectic(g))
        nu = williamson_spectrum(state, Bipartition(1, 1)).nu
        assert nu[0] == pytest.approx(1.0, abs=1e-6)

    def test_haar_moment_grid(self):
        rng = np.random.default_rng(17)
        n = 3
        U = sample_haar_unitary(n, rng, size=100_000)
        m = (np.abs(U) ** 2).mean(axis=0)
        stderr = (np.abs(U) ** 2).std(axis=0, ddof=1) / np.sqrt(U.shape[0])
        assert np.all(np.abs(m - 1.0 / n) < 4 * stderr)

    def test_squeezings_are_arccosh_of_lambda(self):
        # the stream starts with lambda, so the same seed gives the same weights
        for size in (5, None):
            lam = sample_lambda(3, 4.0, np.random.default_rng(2), size=size)
            g = sample_homogeneous_gaussian_unitary(3, 4.0, np.random.default_rng(2), size=size)
            np.testing.assert_array_equal(g.s, np.arccosh(lam) / 4)
        assert lam.shape == (3,) and np.all(lam >= 1.0)
