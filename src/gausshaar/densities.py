"""Closed-form densities of the symplectic eigenvalues and energy formulas.

The normalized densities carry closed-form normalization constants: the
fixed-energy simplex constant from homogeneity of the squared Vandermonde
plus the Laguerre Selberg integral, and the balanced m + m constant, which
is that constant times the Beta-mixture law of sum(nu) (``balanced_sum_law``,
shared by the exact sampler and the KS reference).  Unnormalized log
densities return -inf on their algebraic zero sets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import symplectic

if TYPE_CHECKING:
    from .haar import EulerGaussianUnitary
    from .symplectic import Bipartition, GaussianPureState

SIMPLEX_SLACK = 1e-9


@dataclass(frozen=True)
class EnergyConstraint:
    """Target mean energies of the two subsystems.

    Twice each energy must be a finite double.  ``shell_width`` is accepted
    and checked, but ``verify`` does not read it:
    ``verify_constrained_density`` imposes the energy constraint exactly, and
    the shell-hit reference ``g_constraint_mc`` takes its own width as an
    argument.
    """

    E_A: float
    E_B: float
    shell_width: float = 0.05

    def __post_init__(self):
        if self.shell_width <= 0:
            raise ValueError("shell_width must be positive")
        # the support reaches S = 2 min(E), and the law reads log(2E - S)
        if not all(math.isfinite(2.0 * E) for E in (self.E_A, self.E_B)):
            raise ValueError("2 E_A and 2 E_B must be finite, within the largest double")

    @property
    def min_energy(self) -> float:
        return min(self.E_A, self.E_B)


def _check_nu(nu: np.ndarray):
    if np.any(nu < 1.0):
        raise ValueError("symplectic eigenvalues must be >= 1")


def log_density_unconstrained(nu, n_A: int, n_B: int) -> float | np.ndarray:
    """Unnormalized log of the invariant nu-density for an n_A + n_B split.

    log of prod_{h>k} (nu_h^2 - nu_k^2)^2 * prod_j nu_j^2 (nu_j^2-1)^(n_B-n_A);
    -inf on coincident eigenvalues, and at nu = 1 when n_B > n_A: the
    submanifold density of nu^2 times prod_j nu_j^2.  Takes a stack nu
    (..., n_A) and returns the stack (...) of values, or a float for a single
    vector.
    """
    nu = _check_split(nu, n_A, n_B)
    total = log_density_submanifold(nu**2, n_A, n_B) + 2 * _log_sum(nu)
    return float(total) if np.ndim(total) == 0 else total


def log_density_submanifold(nu, n_A: int, n_B: int) -> float | np.ndarray:
    """Unnormalized log nu-density on the parametric-process submanifold.

    log of prod_{h<k} (nu_h - nu_k)^2 * prod_j (nu_j - 1)^(n_B-n_A); -inf on
    the zero set.  Takes a stack nu (..., n_A) like
    ``log_density_unconstrained``.
    """
    nu = _check_split(nu, n_A, n_B)
    total = 2 * log_vandermonde(nu)
    if n_B > n_A:
        total = total + (n_B - n_A) * _log_sum(nu - 1.0)
    return float(total) if total.ndim == 0 else total


def _log_sum(x: np.ndarray) -> np.ndarray:
    """sum_j log x_j along the last axis, column by column; -inf where an x_j is 0."""
    with np.errstate(divide="ignore"):
        return functools.reduce(np.add, np.log(np.moveaxis(x, -1, 0)))


def log_vandermonde(x) -> np.ndarray:
    """sum_{h<k} log |x_h - x_k| along the last axis; -inf where two coincide.

    Column by column: a reduction over rows of length m is about 20x slower.
    """
    columns = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    out = np.zeros(columns.shape[1:])
    with np.errstate(divide="ignore"):
        for h, k in itertools.combinations(range(len(columns)), 2):
            out += np.log(np.abs(columns[h] - columns[k]))
    return out


def balanced_half(n: int) -> int:
    """m = n / 2, the modes of each subsystem of a balanced split of n modes."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even number of modes")
    return n // 2


def _check_split(nu, n_A: int, n_B: int) -> np.ndarray:
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.shape[-1] != n_A or n_A > n_B:
        raise ValueError(f"need n_A = {n_A} <= n_B = {n_B} eigenvalues, got {nu.shape[-1]}")
    _check_nu(nu)
    return nu


def mean_energy(U: np.ndarray, lam, nu) -> float | np.ndarray:
    """Subsystem mean energy from mixing matrix U and weights (lambda, nu).

    (1/2) sum_{h,k} |U_{hk}|^2 lambda_h nu_k, for a balanced bipartition of
    n = 2 * len(nu) modes.  Broadcasts over leading axes of U (..., m, m),
    lambda (..., m) and nu (..., m); returns a float for a single draw.
    """
    U = np.asarray(U, dtype=complex)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    m = nu.shape[-1]
    if lam.shape[-1] != m or U.shape[-2:] != (m, m):
        raise ValueError("U, lambda and nu must share the subsystem dimension")
    energy = 0.5 * np.einsum("...hk,...h,...k->...", np.abs(U) ** 2, lam, nu)
    return float(energy) if energy.ndim == 0 else energy


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
    e_a = float(np.trace(symplectic.reduced_covariance(state, bipartition.modes_a)) / 4)
    e_b = float(np.trace(symplectic.reduced_covariance(state, bipartition.modes_b)) / 4)
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


def _log_simplex_constant(m: int) -> float:
    """log prod_{j<m} j! (j+1)! / Gamma(m^2): the unit-simplex integral of Delta^2."""
    log_simplex = sum(math.lgamma(j + 1) + math.lgamma(j + 2) for j in range(m))
    return log_simplex - math.lgamma(m * m)


def balanced_sum_law(m: int, constraint: EnergyConstraint):
    """Law of S = sum(nu) under the balanced m + m law, as a Beta mixture.

    Each subsystem energy is at least S/2, so S <= 2 min(E).  Integrating
    Delta(nu)^2 over the simplex {nu >= 1, sum nu = S} leaves the marginal
    (S - m)^(m^2 - 1) [(2 E_A - S)(2 E_B - S)]^a, a = (m - 1)(m + 2)/2.
    With L = 2 min(E) - m, x = (S - m)/L and b = 2 |E_A - E_B| / L this is
    L^(m^2 - 1 + 2a) x^(m^2 - 1) (1 - x)^a (b + 1 - x)^a, and expanding
    (b + 1 - x)^a in powers of 1 - x makes x a mixture over j = 0..a of
    Beta(m^2, a + j + 1), with unnormalized weights
    C(a, j) b^(a - j) B(m^2, a + j + 1).  These are formed in logs, since
    b^(a - j) overflows a double for very unequal energies; at b = 0 only
    j = a survives.  Returns (L, a, weights, log_total): the weights
    normalized to sum 1, and the log of their unnormalized sum.
    """
    L = 2.0 * constraint.min_energy - m
    if L <= 0:
        raise ValueError(
            f"2 min(E_A, E_B) = {2.0 * constraint.min_energy:.6g} must exceed "
            f"n/2 = {m} (empty support)"
        )
    a = (m - 1) * (m + 2) // 2
    b = 2.0 * abs(constraint.E_A - constraint.E_B) / L
    p = m * m
    j = np.arange(a + 1)
    # log C(a, j) B(p, a + j + 1)
    log_weights = np.array([
        math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
        + math.lgamma(p) + math.lgamma(a + k + 1) - math.lgamma(p + a + k + 1)
        for k in range(a + 1)
    ])
    if b > 0:
        log_weights += (a - j) * math.log(b)
    else:
        log_weights[:a] = -np.inf
    top = log_weights.max()
    weights = np.exp(log_weights - top)
    total = weights.sum()
    return L, a, weights / total, top + math.log(total)


def log_density_balanced(nu, constraint: EnergyConstraint, log_gaps=None):
    """Log of the normalized eigenvalue density of a balanced m + m split.

    The density is proportional to Delta(nu)^2 [(2E_A - S)(2E_B - S)]^a with
    S = sum(nu) and a = (m - 1)(m + 2)/2, on {nu >= 1, S <= 2 min(E_A, E_B)};
    its log is -inf outside.  nu has shape (..., m); returns the stack (...)
    of values, or a float for a single vector.  The normalizer is the
    unit-simplex constant times L^(m^2 + 2a) times the unnormalized sum of
    the ``balanced_sum_law`` weights.  Everything is a sum of logs, the
    bracket too, as a log(2E_A - S) + a log(2E_B - S): L^(m^2 + 2a)
    overflows a double already at m = 10, E = 30, and the bracket at
    E = 1e200.  A caller that has formed the pair
    ``log_gaps`` = (log(2E_A - S), log(2E_B - S)) passes it; every point must
    then lie in the support, which is not checked.  It may lie on the edge
    S = 2 min(E), where the smaller gap's log is -inf, and so is the value
    from m = 2 (at m = 1 the gaps are not read).
    """
    nu = np.asarray(nu, dtype=float)
    m = nu.shape[-1]
    L, a, _, log_total = balanced_sum_law(m, constraint)
    log_val = 2.0 * log_vandermonde(nu)
    log_val -= _log_simplex_constant(m) + (m * m + 2 * a) * math.log(L) + log_total
    if log_gaps is None:
        # column by column: reductions over rows of length m are about 20x slower
        columns = np.moveaxis(nu, -1, 0)
        total = functools.reduce(np.add, columns)
        support = (functools.reduce(np.minimum, columns) >= 1.0) & (
            total <= 2.0 * constraint.min_energy
        )
        # outside the support the gaps are read as 1, so no log sees a
        # negative; on its edge log(0) = -inf gives a zero density
        with np.errstate(divide="ignore"):
            log_gaps = [
                np.log(np.where(support, 2.0 * E - total, 1.0))
                for E in (constraint.E_A, constraint.E_B)
            ]
        log_val = np.where(support, log_val, -np.inf)
    # at m = 1, a = 0 and the bracket factor is 1 even where it is 0
    if a:
        log_val += a * (log_gaps[0] + log_gaps[1])
    return float(log_val) if np.ndim(log_val) == 0 else log_val


def density_balanced(nu, constraint: EnergyConstraint):
    """Normalized eigenvalue density of a balanced m + m split at fixed mean energies.

    The exponential of ``log_density_balanced``: zero outside the support,
    and finite wherever the log is.  nu has shape (..., m); returns the
    stack (...) of values, or a float for a single vector.
    """
    val = np.exp(log_density_balanced(nu, constraint))
    return float(val) if val.ndim == 0 else val


def density_2p2(nu1, nu2, constraint: EnergyConstraint):
    """``density_balanced`` at m = 2, on separate nu1 and nu2; raises below nu = 1."""
    nu = np.stack(np.broadcast_arrays(*map(np.asarray, (nu1, nu2))), -1)
    _check_nu(nu)
    return density_balanced(nu, constraint)


def density_submanifold_energy(nu, E: float, n: int):
    """Eigenvalue density on the fixed-energy simplex of the submanifold.

    For n total modes in a balanced split (m = n/2 eigenvalues), proportional
    to prod (nu_h - nu_k)^2 on {nu_j >= 1, sum nu_j = 2E}, normalized with
    respect to Lebesgue measure in the first m - 1 coordinates.  For m = 1
    the simplex is a point and the density is the constant 1 at nu = 2E.
    nu has shape (..., m); returns the stack (...) of values, or a float for
    a single vector.  Every point must lie on the simplex.  The value and the
    normalizer, (2E - m)^(m^2 - 1) times the unit-simplex integral of Delta^2
    by homogeneity, are formed in logs.
    """
    m = balanced_half(n)
    if 2.0 * E < m:
        raise ValueError("2E < n/2: the energy simplex is empty")
    nu = _check_split(nu, m, m)
    if np.any(np.abs(nu.sum(axis=-1) - 2.0 * E) > SIMPLEX_SLACK * max(1.0, 2.0 * E)):
        raise ValueError("nu does not lie on the simplex sum(nu) = 2E")
    if m > 1 and 2.0 * E == m:
        raise ValueError("2E = n/2: the energy simplex is the single point nu = 1")
    # at m = 1 the normalizer is 1, also at 2E = 1
    log_norm = (m * m - 1) * math.log(2.0 * E - m) + _log_simplex_constant(m) if m > 1 else 0.0
    val = np.exp(2.0 * log_vandermonde(nu) - log_norm)
    return float(val) if val.ndim == 0 else val
