"""Covariance-matrix representation of multimode Gaussian pure states.

The states are those the invariant measure lives on, reached from the vacuum
by homogeneous Gaussian unitaries: their first moments are zero, so a state
is its covariance matrix.  Conventions used throughout the package:

* quadratures are interleaved, (x_1, p_1, ..., x_n, p_n);
* hbar = 1 and all mode frequencies are 1, so the vacuum covariance is the
  identity and the mean energy of a single mode is tr(sigma_mode) / 4;
* the two-mode squeezed vacuum has x-x correlation -sinh(2r) and p-p
  correlation +sinh(2r).  The opposite global sign is an equally valid
  convention and produces identical spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12
PURITY_TOL = 1e-8
NU_CLAMP_TOL = 1e-9


class NotAGaussianPureStateError(ValueError):
    """Raised when a covariance matrix fails the pure-state invariants."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal Omega (2n, 2n) with 2x2 blocks [[0, 1], [-1, 0]] per mode."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    upper = np.diag(np.resize([1.0, 0.0], 2 * n_modes - 1), 1)
    return upper - upper.T


def symplectic_defect(M: np.ndarray) -> np.ndarray:
    """max|M Omega M^T - Omega| / max(1, max|M|)^2 of each matrix of a stack (..., 2n, 2n).

    M Omega permutes and negates M; divided in place by the scale once per
    factor, the second product is bounded by 2n, so any finite M gives a
    finite defect.  A NaN in M gives a NaN defect, which callers must fail.
    """
    omega = symplectic_form(M.shape[-1] // 2)
    largest = np.maximum(M.max(axis=(-2, -1)), -M.min(axis=(-2, -1)))
    inverse = (1.0 / np.maximum(1.0, largest))[..., np.newaxis, np.newaxis]
    product = M @ omega
    product *= inverse
    product *= inverse
    product = product @ M.swapaxes(-1, -2)
    product -= omega * inverse**2
    return np.abs(product, out=product).max(axis=(-2, -1))


def validate_pure_covariance(cov: np.ndarray) -> None:
    """Check that every matrix of a stack (..., 2n, 2n) is a pure-state covariance.

    Every entry must be finite, which is checked first: a NaN or an inf fails
    every comparison below.  Each matrix must be symmetric, symplectic
    (``symplectic_defect``), of determinant 1 and positive definite, within
    tolerances scaled by its own max(1, max|cov|), squared for the defect.
    Raises NotAGaussianPureStateError naming the first invariant broken.
    """
    if not np.isfinite(cov).all():
        raise NotAGaussianPureStateError("covariance has a non-finite entry")
    scale = np.maximum(1.0, np.abs(cov).max(axis=(-2, -1)))
    if np.any(np.abs(cov - cov.swapaxes(-1, -2)).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise NotAGaussianPureStateError("covariance is not symmetric")
    defect = symplectic_defect(cov)
    if not np.all(defect <= PURITY_TOL):
        raise NotAGaussianPureStateError(
            f"covariance is not symplectic (defect {np.max(defect):.3e}); "
            "the state is not pure"
        )
    # one Cholesky factorization gives both checks: a symmetric symplectic
    # matrix has det +1, so one that fails to factor fails positivity alone
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotAGaussianPureStateError("covariance is not positive definite") from None
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    if np.any(np.abs(logdet) > PURITY_TOL * cov.shape[-1] * scale):
        raise NotAGaussianPureStateError("det(covariance) != 1")


@dataclass(frozen=True)
class GaussianPureState:
    """A pure Gaussian state of zero mean, described fully by its real covariance.

    The covariance of a pure state is a symmetric symplectic matrix; this is
    validated at construction time.  A stack of states on the same modes
    shares leading axes: covariance (..., 2n, 2n).  The spectrum and energy
    functions take a single state.
    """

    n_modes: int
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        dim = 2 * self.n_modes
        if cov.shape[-2:] != (dim, dim):
            raise ValueError(f"covariance must be {dim}x{dim}, got {cov.shape}")
        object.__setattr__(self, "covariance", cov)
        validate_pure_covariance(cov)


@dataclass(frozen=True)
class Bipartition:
    """A split of the modes into subsystems A and B.

    ``mode_assignment[k]`` is "A" or "B" for global mode index k.  Labels are
    swapped on construction if needed so that n_A <= n_B always holds.
    ``n_B == 0`` is allowed for the trivial bipartition that puts the whole
    system in A (used to extract the full-state symplectic spectrum).
    """

    n_A: int
    n_B: int
    mode_assignment: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_A < 1 or self.n_B < 0:
            raise ValueError("n_A must be positive and n_B nonnegative")
        if self.mode_assignment is None:
            assignment = ("A",) * self.n_A + ("B",) * self.n_B
        else:
            assignment = tuple(self.mode_assignment)
        if (assignment.count("A"), assignment.count("B")) != (self.n_A, self.n_B):
            raise ValueError("mode_assignment inconsistent with n_A, n_B")
        n_a, n_b = self.n_A, self.n_B
        if n_b and n_a > n_b:
            # canonical orientation: A is never the larger subsystem
            assignment = tuple("A" if x == "B" else "B" for x in assignment)
            n_a, n_b = n_b, n_a
        object.__setattr__(self, "n_A", n_a)
        object.__setattr__(self, "n_B", n_b)
        object.__setattr__(self, "mode_assignment", assignment)

    @property
    def n_modes(self) -> int:
        return self.n_A + self.n_B

    @property
    def modes_a(self) -> np.ndarray:
        return np.array([k for k, x in enumerate(self.mode_assignment) if x == "A"])

    @property
    def modes_b(self) -> np.ndarray:
        return np.array(
            [k for k, x in enumerate(self.mode_assignment) if x == "B"], dtype=int
        )


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues nu (sorted descending), of which r derives.

    nu_k >= 1 for every mode of the smaller subsystem; the squeezing r_k, with
    nu_k = cosh(2 r_k), is read from nu as arccosh(nu_k) / 2.
    """

    nu: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        if nu.ndim != 1:
            raise ValueError("nu must be a 1-d array")
        if np.any(nu < 1.0):
            raise ValueError("symplectic eigenvalues must be >= 1")
        if np.any(np.diff(nu) > 0):
            raise ValueError("spectrum must be sorted descending")
        object.__setattr__(self, "nu", nu)

    @property
    def r(self) -> np.ndarray:
        return np.arccosh(self.nu) / 2


def quadrature_indices(modes) -> np.ndarray:
    """Row/column indices of the given modes in the interleaved ordering."""
    modes = np.asarray(modes, dtype=int)
    return np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()


def tmsv_symplectic(r: float) -> np.ndarray:
    """Symplectic matrix of the two-mode squeezing generator at parameter r.

    Applied to the vacuum it gives the covariance of ``tmsv_state(r)``; this
    matrix is the one place that fixes the two-mode squeezing sign
    convention of the module docstring.
    """
    c, s = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [c, 0.0, -s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, s, 0.0, c],
        ]
    )


def tmsv_state(r: float) -> GaussianPureState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    The canonical state of the 1 + 1 bipartition.
    """
    return canonical_state([r], Bipartition(1, 1))


def canonical_state(r, bipartition: Bipartition) -> GaussianPureState:
    """Canonical bipartite pure state: TMSV pairs plus spare vacua.

    The k-th A mode is paired with the k-th B mode at squeezing r[k]; the
    remaining n_B - n_A B modes stay in vacuum.  The state is S S^T, where
    S is the identity with ``tmsv_symplectic(r[k])`` on the quadratures of
    each pair, so the sign convention is that of ``tmsv_symplectic``.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (bipartition.n_A,):
        raise ValueError(
            f"need one squeezing parameter per A mode: expected {bipartition.n_A}, "
            f"got {r.size}"
        )
    if np.any(r < 0):
        raise ValueError("squeezing parameters must be nonnegative")
    n = bipartition.n_modes
    S = np.eye(2 * n)
    for rk, a, b in zip(r, bipartition.modes_a, bipartition.modes_b):
        idx = quadrature_indices([a, b])
        S[np.ix_(idx, idx)] = tmsv_symplectic(rk)
    return GaussianPureState(n_modes=n, covariance=S @ S.T)


def reduced_covariance(state: GaussianPureState, modes) -> np.ndarray:
    """Covariance block of the given modes (partial trace in phase space)."""
    if state.covariance.ndim != 2:
        raise ValueError("reduced_covariance takes a single state, not a stack")
    idx = quadrature_indices(modes)
    return state.covariance[np.ix_(idx, idx)]


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite covariance block, sorted descending.

    With cov = L L^T (Cholesky), i Omega cov is similar to the Hermitian
    i L^T Omega L (L^T Omega L is real antisymmetric), so one Hermitian
    eigensolve gives +/- nu in exact pairs; nu is the m largest.
    """
    m = cov.shape[0] // 2
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("reduced covariance is not positive definite") from None
    return np.linalg.eigvalsh(1j * (chol.T @ symplectic_form(m) @ chol))[::-1][:m]


def williamson_spectrum(
    state: GaussianPureState, bipartition: Bipartition
) -> SymplecticSpectrum:
    """Symplectic spectrum of the reduced state of subsystem A."""
    if bipartition.n_modes != state.n_modes:
        raise ValueError("bipartition does not match the state's mode count")
    nu = symplectic_eigenvalues(reduced_covariance(state, bipartition.modes_a))
    if np.any(nu < 1.0 - NU_CLAMP_TOL):
        raise ValueError(
            f"symplectic eigenvalue {nu.min():.12g} < 1 beyond "
            "round-off; input is not a valid reduced pure-state block"
        )
    nu = np.maximum(nu, 1.0)  # round-off at the vacuum boundary
    return SymplecticSpectrum(nu=nu)


def reduced_spectrum(nu: float, j_max: int | None = None) -> np.ndarray:
    """Occupation probabilities of the thermal-like reduced single mode.

    p_j = (2 / (nu + 1)) * ((nu - 1) / (nu + 1))**j.  When j_max is omitted
    it is chosen so that the geometric tail mass is below 1e-12.
    """
    if nu < 1.0:
        raise ValueError("nu must be >= 1")
    q = (nu - 1.0) / (nu + 1.0)
    if j_max is None:
        if q == 0.0:
            j_max = 0
        else:
            # tail mass after j_max is q**(j_max + 1)
            j_max = int(np.ceil(np.log(1e-12) / np.log(q))) - 1
            j_max = max(j_max, 0)
    j = np.arange(j_max + 1)
    return (2.0 / (nu + 1.0)) * q**j


def entanglement_entropy(spectrum) -> float:
    """Entanglement entropy in nats across the bipartition.

    Sums, over the modes of the smaller subsystem, the entropy of the
    geometric reduced spectrum at nu_k; equals the Shannon entropy of
    ``reduced_spectrum`` per mode.
    """
    nu = np.asarray(
        spectrum.nu if isinstance(spectrum, SymplecticSpectrum) else spectrum,
        dtype=float,
    )
    if np.any(nu < 1.0):
        raise ValueError("nu must be >= 1")
    up = (nu + 1.0) / 2.0
    dn = (nu - 1.0) / 2.0
    # 0*log(0) -> 0 at nu = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        term = up * np.log(up) - np.where(dn > 0, dn * np.log(dn), 0.0)
    return float(np.sum(term))
