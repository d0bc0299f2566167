import numpy as np
import pytest

from gausshaar.haar import (
    apply_to_vacuum,
    euler_to_symplectic,
    passive_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
)
from gausshaar.symplectic import (
    Bipartition,
    GaussianPureState,
    NotAGaussianPureStateError,
    SymplecticSpectrum,
    canonical_state,
    entanglement_entropy,
    reduced_covariance,
    reduced_spectrum,
    symplectic_defect,
    symplectic_eigenvalues,
    symplectic_form,
    tmsv_state,
    tmsv_symplectic,
    williamson_spectrum,
)


class TestSymplecticForm:
    def test_single_mode_block(self):
        omega = symplectic_form(1)
        assert np.array_equal(omega, [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega[2:, 2:], [[0.0, 1.0], [-1.0, 0.0]])
        assert np.all(omega[:2, 2:] == 0) and np.all(omega[2:, :2] == 0)

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega @ omega, -np.eye(4))


class TestGaussianPureState:
    def test_rejects_asymmetric_covariance(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(NotAGaussianPureStateError):
            GaussianPureState(n_modes=1, covariance=cov)

    def test_rejects_mixed_state(self):
        # a thermal covariance is symmetric and positive but not symplectic
        with pytest.raises(NotAGaussianPureStateError):
            GaussianPureState(n_modes=1, covariance=2.0 * np.eye(2))

    def test_vacuum_is_valid(self):
        state = GaussianPureState(n_modes=3, covariance=np.eye(6))
        assert not hasattr(state, "displacement")

    @pytest.mark.parametrize(
        "invariant, match",
        [
            ("symmetry", "not symmetric"),
            ("symplectic", "not symplectic"),
            ("determinant", "det"),
            ("positivity", "positive definite"),
            ("finiteness", "non-finite"),
        ],
    )
    def test_stack_rejects_one_bad_matrix(self, invariant, match):
        # the good matrices include a strongly squeezed one (scale ~ 200), so
        # a tolerance scaled by the whole stack would let each defect through
        good = [np.eye(4), tmsv_state(3.0).covariance, np.eye(4)]
        if invariant == "symmetry":
            bad = np.eye(4)
            bad[0, 3] += 1e-10
        elif invariant == "symplectic":
            bad = (1.0 + 7e-9) * np.eye(4)  # defect 1.4e-8, log det 2.8e-8
        elif invariant == "determinant":
            # defect 0.02 is inside this matrix's own tolerance 1e-8 * 1.01e4^2
            bad = 1.01 * np.diag([1e4, 1e-4, 1.0, 1.0])
        elif invariant == "positivity":
            bad = -np.eye(4)  # symmetric, symplectic, det +1
        else:
            # NaN fails every comparison of the other checks, so they pass it
            bad = np.eye(4)
            bad[3, 3] = np.nan
        GaussianPureState(n_modes=2, covariance=np.stack(good))
        with pytest.raises(NotAGaussianPureStateError, match=match):
            GaussianPureState(n_modes=2, covariance=np.stack([*good[:2], bad, good[2]]))

    def test_strongly_squeezed_stack_validates_and_minus_identity_fails(self):
        # up to r = 6 the entries reach cosh(12) ~ 8e4; -I is symmetric and
        # symplectic with det +1, so only positivity rejects it
        rs = np.linspace(0.0, 6.0, 13)
        good = [canonical_state([r, r / 2], Bipartition(2, 2)).covariance for r in rs]
        GaussianPureState(n_modes=4, covariance=np.stack(good))
        with pytest.raises(NotAGaussianPureStateError, match="positive definite"):
            GaussianPureState(n_modes=4, covariance=np.stack([*good, -np.eye(8)]))

    def test_covariance_whose_square_overflows_rejected(self):
        # det(1e160 I) = 1e640, though max|cov|^2 overflows a double
        with pytest.raises(NotAGaussianPureStateError, match="not symplectic"):
            GaussianPureState(n_modes=1, covariance=1e160 * np.eye(2))

    def test_extreme_squeezing_validates(self):
        # symmetric, symplectic and of det 1, though max|cov|^2 overflows
        state = GaussianPureState(n_modes=1, covariance=np.diag([1e160, 1e-160]))
        assert np.array_equal(williamson_spectrum(state, Bipartition(1, 0)).nu, [1.0])

    def test_spectrum_rejects_a_stack(self):
        stack = GaussianPureState(n_modes=2, covariance=np.stack([np.eye(4)] * 3))
        with pytest.raises(ValueError, match="single state"):
            williamson_spectrum(stack, Bipartition(1, 1))


class TestSymplecticDefect:
    def test_relative_to_the_squared_scale(self):
        # (1 + e) I has M Omega M^T - Omega = (2e + e^2) Omega, scale (1 + e)^2
        for e in (1e-9, 1.0, 1e100, 1e200):
            assert symplectic_defect((1.0 + e) * np.eye(2)) == pytest.approx(
                1.0 - (1.0 + e) ** -2, rel=1e-6
            )

    def test_zero_to_round_off_on_symplectic_matrices(self):
        S = np.stack([tmsv_symplectic(r) for r in (0.0, 3.0, 30.0, 300.0)])
        assert np.all(symplectic_defect(S) < 1e-15)

    def test_one_value_per_matrix_and_nan_propagates(self):
        nan = np.full((2, 2), np.nan)
        defect = symplectic_defect(np.stack([np.eye(2), 2.0 * np.eye(2), nan]))
        assert defect.shape == (3,)
        assert defect[0] == 0.0 and defect[1] == pytest.approx(0.75)
        assert np.isnan(defect[2])


class TestBipartition:
    def test_label_swap_keeps_a_smaller(self):
        bp = Bipartition(3, 1)
        assert (bp.n_A, bp.n_B) == (1, 3)

    def test_custom_assignment(self):
        bp = Bipartition(1, 2, mode_assignment=("B", "A", "B"))
        assert list(bp.modes_a) == [1]
        assert list(bp.modes_b) == [0, 2]

    def test_inconsistent_assignment_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(1, 2, mode_assignment=("A", "A", "B"))


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        assert np.allclose(tmsv_state(0.0).covariance, np.eye(4), atol=1e-15)

    def test_block_structure(self):
        r = 0.7
        cov = tmsv_state(r).covariance
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        assert np.allclose(cov[:2, :2], c * np.eye(2), atol=1e-12)
        assert np.allclose(cov[2:, 2:], c * np.eye(2), atol=1e-12)
        assert np.allclose(cov[:2, 2:], np.diag([-s, s]), atol=1e-12)

    def test_reduced_eigenvalue_is_cosh_2r(self):
        r = np.arccosh(2.0) / 2  # nu = cosh 2r = 2
        spectrum = williamson_spectrum(tmsv_state(r), Bipartition(1, 1))
        assert spectrum.nu[0] == pytest.approx(2.0, abs=1e-10)

    def test_is_the_canonical_state_of_one_pair(self):
        for r in (0.0, 0.37, 1.4):
            want = canonical_state([r], Bipartition(1, 1)).covariance
            assert np.array_equal(tmsv_state(r).covariance, want)

    def test_purity_oracle(self):
        cov = tmsv_state(0.7).covariance
        omega = symplectic_form(2)
        assert np.abs(cov @ omega @ cov.T - omega).max() < 1e-10


class TestCanonicalState:
    def test_zero_squeezing_gives_identity(self):
        state = canonical_state([0.0, 0.0], Bipartition(2, 2))
        assert np.array_equal(state.covariance, np.eye(8))

    def test_sign_convention_on_interleaved_modes(self):
        # pairs (1, 0), (3, 2), (5, 4) are not adjacent in A-then-B order,
        # and mode 6 is the spare vacuum
        r = np.array([0.3, 1.2, 0.05])
        bp = Bipartition(3, 4, mode_assignment=("B", "A", "B", "A", "B", "A", "B"))
        cov = canonical_state(r, bp).covariance
        want = np.eye(14)
        for rk, a, b in zip(r, bp.modes_a, bp.modes_b):
            c, s = np.cosh(2 * rk), np.sinh(2 * rk)
            for q in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
                want[q, q] = c
            want[2 * a, 2 * b] = want[2 * b, 2 * a] = -s
            want[2 * a + 1, 2 * b + 1] = want[2 * b + 1, 2 * a + 1] = s
        assert list(bp.modes_a) == [1, 3, 5] and list(bp.modes_b) == [0, 2, 4, 6]
        np.testing.assert_allclose(cov, want, rtol=1e-14, atol=0.0)

    def test_unbalanced_composition(self):
        r1 = 0.4
        state = canonical_state([r1], Bipartition(1, 2))
        # modes (0, 1) form a TMSV, mode 2 stays vacuum
        pair = reduced_covariance(state, [0, 1])
        assert np.allclose(pair, tmsv_state(r1).covariance, atol=1e-12)
        assert np.allclose(reduced_covariance(state, [2]), np.eye(2), atol=1e-15)

    def test_spectrum_recovers_cosh_2r(self):
        spectrum = williamson_spectrum(
            canonical_state([0.8, 0.3], Bipartition(2, 2)), Bipartition(2, 2)
        )
        assert np.allclose(spectrum.nu, np.cosh([1.6, 0.6]), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            canonical_state([0.1, 0.2], Bipartition(1, 2))


class TestWilliamson:
    def test_vacuum_spectrum_all_ones(self):
        spectrum = williamson_spectrum(
            GaussianPureState(3, np.eye(6)), Bipartition(1, 2)
        )
        assert np.array_equal(spectrum.nu, [1.0])
        assert np.array_equal(spectrum.r, [0.0])

    def test_round_trip_many_r(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(20):
                r = np.sort(rng.uniform(0.0, 1.2, n))[::-1]
                spectrum = williamson_spectrum(
                    canonical_state(r, Bipartition(n, n)), Bipartition(n, n)
                )
                assert np.allclose(spectrum.r, r, atol=1e-10)

    def test_local_passive_invariance(self):
        rng = np.random.default_rng(3)
        bp = Bipartition(2, 2)
        state = canonical_state([0.9, 0.2], bp)
        nu0 = williamson_spectrum(state, bp).nu
        for _ in range(10):
            K = passive_symplectic(sample_haar_unitary(2, rng))
            Kp = passive_symplectic(sample_haar_unitary(2, rng))
            S = np.block(
                [[K, np.zeros((4, 4))], [np.zeros((4, 4)), Kp]]
            )
            conjugated = GaussianPureState(4, S @ state.covariance @ S.T)
            assert np.allclose(
                williamson_spectrum(conjugated, bp).nu, nu0, atol=1e-8
            )

    def test_full_state_spectrum_is_ones(self):
        state = canonical_state([0.5, 1.1], Bipartition(2, 2))
        nu = symplectic_eigenvalues(state.covariance)
        assert np.allclose(nu, 1.0, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_states_to_strong_squeezing(self, n):
        # nu = cosh(2r) reaches 4.4e6 at r = 8
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            r = rng.uniform(0.0, 8.0, n)
            r[0] = 8.0
            bp = Bipartition(n, n)
            nu = williamson_spectrum(canonical_state(r, bp), bp).nu
            assert np.all(np.diff(nu) <= 0)
            assert np.allclose(nu, np.sort(np.cosh(2 * r))[::-1], rtol=1e-12, atol=0.0)

    def test_haar_states_match_the_non_hermitian_route(self):
        # the moduli of the eigenvalues of i Omega sigma, paired, are the
        # spectrum by definition; the Cholesky route must reproduce them
        def paired_moduli(cov):
            m = cov.shape[0] // 2
            moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(m) @ cov)))
            return moduli[::-1].reshape(m, 2).mean(axis=1)

        for cutoff in (10.0, 1e3, 1e5, 1e7):
            for n in range(2, 9):
                rng = np.random.default_rng([n, int(np.log10(cutoff))])
                g = sample_homogeneous_gaussian_unitary(n, cutoff, rng, size=4)
                for cov in apply_to_vacuum(euler_to_symplectic(g)).covariance:
                    state = GaussianPureState(n, cov)
                    for n_a in range(1, n):
                        bp = Bipartition(n_a, n - n_a)
                        nu = williamson_spectrum(state, bp).nu
                        old = np.maximum(paired_moduli(reduced_covariance(state, bp.modes_a)), 1.0)
                        assert np.allclose(nu, old, rtol=1e-9, atol=0.0), (cutoff, n, n_a)

    @pytest.mark.parametrize("cov", [-np.eye(2), np.diag([1.0, 0.0, 1.0, 1.0])])
    def test_block_not_positive_definite_is_a_value_error(self, cov):
        # a ValueError, not numpy's LinAlgError, which the CLI reports as a
        # numerical failure
        with pytest.raises(ValueError, match="not positive definite") as info:
            symplectic_eigenvalues(cov)
        assert not isinstance(info.value, np.linalg.LinAlgError)


class TestReducedSpectrum:
    def test_vacuum_is_pure(self):
        p = reduced_spectrum(1.0, j_max=4)
        assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_nu_three_is_geometric_halving(self):
        p = reduced_spectrum(3.0, j_max=2)
        assert np.allclose(p, [0.5, 0.25, 0.125], atol=1e-15)

    def test_tail_below_threshold(self):
        p = reduced_spectrum(3.0)
        assert 1.0 - p.sum() < 1e-12

    def test_partial_sums_approach_one(self):
        totals = [reduced_spectrum(2.0, j_max=j).sum() for j in (5, 20, 80)]
        assert np.all(np.diff(totals) > 0)
        assert totals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            reduced_spectrum(0.5)


class TestEntropy:
    def test_pure_spectrum_zero(self):
        spectrum = SymplecticSpectrum(nu=np.ones(3))
        assert entanglement_entropy(spectrum) == 0.0

    @pytest.mark.parametrize("nu", [1.5, 3.0, 10.0])
    def test_matches_shannon_entropy(self, nu):
        p = reduced_spectrum(nu, j_max=2000)
        shannon = -np.sum(p[p > 0] * np.log(p[p > 0]))
        assert entanglement_entropy(np.array([nu])) == pytest.approx(
            shannon, abs=1e-10
        )

    def test_monotone_in_nu(self):
        assert entanglement_entropy(np.array([2.0])) < entanglement_entropy(
            np.array([5.0])
        )

    def test_sums_over_modes(self):
        total = entanglement_entropy(np.array([3.0, 1.5]))
        parts = entanglement_entropy(np.array([3.0])) + entanglement_entropy(
            np.array([1.5])
        )
        assert total == pytest.approx(parts, abs=1e-14)
