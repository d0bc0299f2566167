"""Closed-form densities of the symplectic eigenvalues and energy formulas.

The normalized densities carry closed-form normalization constants: the 2+2
constant from the Beta-mixture law of nu1 + nu2 (``sum_mixture_2p2``, which
the exact 2+2 sampler and its KS reference share), and the fixed-energy
simplex constant from homogeneity of the squared Vandermonde plus the
Laguerre Selberg integral.  Unnormalized log densities return -inf on their
algebraic zero sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .haar import EulerGaussianUnitary, vandermonde_repulsion
from .symplectic import Bipartition, GaussianPureState, reduced_covariance

SIMPLEX_SLACK = 1e-9


@dataclass(frozen=True)
class EnergyConstraint:
    """Target mean energies of the two subsystems plus an MC shell width."""

    E_A: float
    E_B: float
    shell_width: float = 0.05

    def __post_init__(self):
        if self.shell_width <= 0:
            raise ValueError("shell_width must be positive")

    @property
    def min_energy(self) -> float:
        return min(self.E_A, self.E_B)


def _check_nu(nu: np.ndarray):
    if np.any(nu < 1.0):
        raise ValueError("symplectic eigenvalues must be >= 1")


def log_density_unconstrained(nu, n_A: int, n_B: int) -> float:
    """Unnormalized log of the invariant nu-density for an n_A + n_B split.

    log of prod_{h>k} (nu_h^2 - nu_k^2)^2 * prod_j nu_j^2 (nu_j^2-1)^(n_B-n_A);
    -inf on coincident eigenvalues, and at nu = 1 when n_B > n_A.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size != n_A or n_A > n_B:
        raise ValueError("need len(nu) = n_A <= n_B")
    _check_nu(nu)
    sq = nu**2
    total = 0.0
    for h in range(n_A):
        for k in range(h + 1, n_A):
            gap = abs(sq[h] - sq[k])
            if gap == 0.0:
                return -np.inf
            total += 2 * np.log(gap)
    total += 2 * np.sum(np.log(nu))
    if n_B > n_A:
        shifted = sq - 1.0
        if np.any(shifted == 0.0):
            return -np.inf
        total += (n_B - n_A) * np.sum(np.log(shifted))
    return float(total)


def log_density_submanifold(nu, n_A: int, n_B: int) -> float:
    """Unnormalized log nu-density on the parametric-process submanifold.

    log of prod_{h<k} (nu_h - nu_k)^2 * prod_j (nu_j - 1)^(n_B-n_A); -inf on
    the zero set.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size != n_A or n_A > n_B:
        raise ValueError("need len(nu) = n_A <= n_B")
    _check_nu(nu)
    total = 0.0
    for h in range(n_A):
        for k in range(h + 1, n_A):
            gap = abs(nu[h] - nu[k])
            if gap == 0.0:
                return -np.inf
            total += 2 * np.log(gap)
    if n_B > n_A:
        shifted = nu - 1.0
        if np.any(shifted == 0.0):
            return -np.inf
        total += (n_B - n_A) * np.sum(np.log(shifted))
    return float(total)


def mean_energy(U: np.ndarray, lam, nu) -> float:
    """Subsystem mean energy from mixing matrix U and weights (lambda, nu).

    (1/2) sum_{h,k} |U_{hk}|^2 lambda_h nu_k, for a balanced bipartition of
    n = 2 * len(nu) modes.
    """
    U = np.asarray(U, dtype=complex)
    lam = np.atleast_1d(np.asarray(getattr(lam, "values", lam), dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    m = nu.size
    if lam.size != m or U.shape != (m, m):
        raise ValueError("U, lambda and nu must share the subsystem dimension")
    return float(0.5 * np.sum(np.abs(U) ** 2 * np.outer(lam, nu)))


def energy_mixing_parameters(g: EulerGaussianUnitary):
    """Effective (U, lambda) under which ``mean_energy`` matches the state energy.

    For a local unitary with Euler factors (U, s, U'), the quadratic mean of
    each squeezed mode grows as cosh(4 s), and the passive factor adjacent to
    the canonical form, U', is the one that mixes the spectrum: conjugating
    sigma_A = S sigma_c,A S^T and tracing kills the outer orthogonal factor.
    Hence tr(sigma_A)/4 = mean_energy(U', cosh(4 s), nu) exactly.
    """
    return g.U_prime, np.cosh(4 * g.s)


def mean_energy_from_state(
    state: GaussianPureState, bipartition: Bipartition
) -> tuple[float, float]:
    """(E_A, E_B) as quarter-traces of the reduced covariance blocks."""
    if bipartition.n_modes != state.n_modes:
        raise ValueError("bipartition does not match the state's mode count")
    e_a = float(np.trace(reduced_covariance(state, bipartition.modes_a)) / 4)
    if bipartition.n_B == 0:
        return e_a, 0.0
    e_b = float(np.trace(reduced_covariance(state, bipartition.modes_b)) / 4)
    return e_a, e_b


def g_2p2(nu1: float, nu2: float, E: float):
    """Unnormalized energy-shell weight for a 2-mode subsystem.

    Proportional to [2E - (nu1+nu2)]^2 / (nu1 nu2 (nu1+nu2)) on
    nu1 + nu2 <= 2E, and 0 outside.  Supports array arguments.
    """
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    _check_nu(nu1)
    _check_nu(nu2)
    total = nu1 + nu2
    bracket = 2.0 * E - total
    val = np.where(bracket > 0, bracket**2 / (nu1 * nu2 * total), 0.0)
    return float(val) if val.ndim == 0 else val


def support_1p1(constraint: EnergyConstraint) -> tuple[float, float]:
    """Support [1, 2 min(E_A, E_B)] of the 1 + 1 eigenvalue density.

    A one-mode subsystem state is sigma = nu S S^T with S in SL(2, R), and
    tr(S S^T) >= 2, so E = tr(sigma)/4 >= nu/2; every nu up to 2 min(E) is
    reached with local squeezing.
    """
    top = 2.0 * constraint.min_energy
    if top <= 1.0:
        raise ValueError("2 min(E_A, E_B) must exceed 1 (empty support)")
    return 1.0, top


def density_1p1(nu: float, constraint: EnergyConstraint):
    """Closed-form eigenvalue density for 1 + 1 modes at fixed mean energies.

    Uniform, 1 / (2 min(E_A, E_B) - 1) on [1, 2 min(E_A, E_B)], zero outside:
    lambda = cosh(2t) is uniform under the Haar measure of SL(2, R), and the
    delta constraint on each side contributes 2/nu, which cancels the
    unconstrained factor nu^2.
    """
    lo, top = support_1p1(constraint)
    nu = np.asarray(nu, dtype=float)
    val = np.where((nu >= lo) & (nu <= top), 1.0 / (top - lo), 0.0)
    return float(val) if val.ndim == 0 else val


def _density_2p2_unnormalized(nu1, nu2, constraint: EnergyConstraint):
    total = nu1 + nu2
    support = (
        (nu1 >= 1.0)
        & (nu2 >= 1.0)
        & (total <= 2.0 * constraint.min_energy)
    )
    val = (
        (nu1 - nu2) ** 2
        * (2.0 * constraint.E_A - total) ** 2
        * (2.0 * constraint.E_B - total) ** 2
    )
    return np.where(support, val, 0.0)


def sum_mixture_2p2(constraint: EnergyConstraint) -> tuple[float, np.ndarray]:
    """Law of S = nu1 + nu2 under the 2+2 density, as a Beta mixture.

    Integrating (nu1 - nu2)^2 over the anti-diagonal leaves the marginal
    (S - 2)^3 (2 E_A - S)^2 (2 E_B - S)^2 on [2, 2 min(E)].  With
    L = 2 min(E) - 2, x = (S - 2)/L and b = 2 |E_A - E_B| / L this is
    L^7 x^3 (1 - x)^2 (b + 1 - x)^2, and expanding (b + 1 - x)^2 in powers
    of 1 - x makes x a mixture of Beta(4, 3), Beta(4, 4) and Beta(4, 5) with
    unnormalized weights b^2/60, b/70, 1/280 (each a coefficient times the
    Beta function B(4, 3 + k)).  Returns (L, weights).
    """
    if constraint.min_energy <= 1.0:
        raise ValueError("min(E_A, E_B) must exceed 1 (empty support)")
    L = 2.0 * constraint.min_energy - 2.0
    b = 2.0 * abs(constraint.E_A - constraint.E_B) / L
    return L, np.array([b * b / 60.0, b / 70.0, 1.0 / 280.0])


def _norm_2p2(constraint: EnergyConstraint) -> float:
    # the anti-diagonal integral of D^2 over |D| <= S - 2, with the Jacobian
    # 1/2 of (nu1, nu2) -> (S, D), is (S - 2)^3 / 3
    L, weights = sum_mixture_2p2(constraint)
    return L**8 * float(weights.sum()) / 3.0


def density_2p2(nu1, nu2, constraint: EnergyConstraint):
    """Normalized eigenvalue density for 2 + 2 modes at fixed mean energies.

    Proportional to (nu1-nu2)^2 [2E_A - S]^2 [2E_B - S]^2 with S = nu1+nu2,
    on {nu >= 1, S <= 2 min(E_A, E_B)}.  Supports array arguments.
    """
    norm = _norm_2p2(constraint)
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    _check_nu(nu1)
    _check_nu(nu2)
    val = _density_2p2_unnormalized(nu1, nu2, constraint) / norm
    return float(val) if val.ndim == 0 else val


def _norm_submanifold_energy(m: int, E: float) -> float:
    """Integral of prod (nu_h - nu_k)^2 over {nu >= 1, sum nu = 2E}.

    Taken with respect to Lebesgue measure in the first m - 1 coordinates
    (the last one is eliminated by the energy constraint).  With
    nu = 1 + (2E - m) x and x on the unit simplex, homogeneity of the squared
    Vandermonde gives (2E - m)^(m^2 - 1) times its unit-simplex integral, and
    the Laguerre Selberg integral gives that as prod_{j<m} j! (j+1)! / Gamma(m^2).
    """
    log_simplex = sum(math.lgamma(j + 1) + math.lgamma(j + 2) for j in range(m))
    return math.exp(
        (m * m - 1) * math.log(2.0 * E - m) + log_simplex - math.lgamma(m * m)
    )


def density_submanifold_energy(nu, E: float, n: int):
    """Eigenvalue density on the fixed-energy simplex of the submanifold.

    For n total modes in a balanced split (m = n/2 eigenvalues), proportional
    to prod (nu_h - nu_k)^2 on {nu_j >= 1, sum nu_j = 2E}, normalized with
    respect to Lebesgue measure in the first m - 1 coordinates.  For m = 1
    the simplex is a point and the density is the constant 1 at nu = 2E.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even number of modes")
    m = n // 2
    if 2.0 * E < m:
        raise ValueError("2E < n/2: the energy simplex is empty")
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size != m:
        raise ValueError(f"need {m} eigenvalues, got {nu.size}")
    _check_nu(nu)
    if abs(nu.sum() - 2.0 * E) > SIMPLEX_SLACK * max(1.0, 2.0 * E):
        raise ValueError("nu does not lie on the simplex sum(nu) = 2E")
    if m == 1:
        return 1.0
    if 2.0 * E == m:
        raise ValueError("2E = n/2: the energy simplex is the single point nu = 1")
    return float(vandermonde_repulsion(nu) ** 2) / _norm_submanifold_energy(m, E)
