"""Haar sampling on U(n) and on homogeneous Gaussian unitaries.

A homogeneous Gaussian unitary factors as passive x single-mode squeezing x
passive.  Its invariant measure is the product of a uniform phase, two
independent Haar unitaries and the squeezing weights
lambda_k = cosh(4 s_k) = tr(S_k S_k^T) / 2, where S_k = diag(e^{-2 s_k},
e^{2 s_k}) is the k-th single-mode squeezer, distributed with the
pairwise-repulsion density prod |lambda_h - lambda_k|.
The squeezing directions are noncompact, so lambda is restricted to a cutoff
box [1, cutoff]^n; the cutoff is a run parameter that must reach every
lambda an energy constraint studied downstream allows.

Gaussian unitaries are drawn, converted and applied to the vacuum as stacks
along a leading axis: ``sample_homogeneous_gaussian_unitary(..., size=N)``
draws all N lambda vectors, then all phases, then all U, then all U', and
``EulerGaussianUnitary``, ``euler_to_symplectic`` and ``apply_to_vacuum``
carry the stack through.  Every check, ``symplectic.symplectic_defect``
included, holds for each matrix of a stack with that matrix's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import GaussianPureState, symplectic_defect

UNITARITY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10


@dataclass(frozen=True)
class EulerGaussianUnitary:
    """Parameters (theta, U, s, U_prime) of a homogeneous Gaussian unitary.

    A stack of them shares leading axes: theta (...), U and U_prime
    (..., n, n), s (..., n).
    """

    theta: float | np.ndarray
    U: np.ndarray
    s: np.ndarray
    U_prime: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        Up = np.asarray(self.U_prime, dtype=complex)
        s = np.atleast_1d(np.asarray(self.s, dtype=float))
        n = s.shape[-1]
        eye = np.eye(n)
        for name, M in (("U", U), ("U_prime", Up)):
            if M.shape != s.shape[:-1] + (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            # an absolute tolerance, so the largest entry over the stack
            # exceeds it exactly when some matrix's does
            if np.abs(M.conj().swapaxes(-1, -2) @ M - eye).max() > UNITARITY_TOL:
                raise ValueError(f"{name} is not unitary")
        if np.any(s < 0):
            raise ValueError("squeezing parameters must be nonnegative")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "U_prime", Up)
        object.__setattr__(self, "s", s)


def sample_haar_unitary(n: int, rng: np.random.Generator, size: int | None = None):
    """Haar-distributed unitary: the unitary factor Q of a complex Ginibre matrix.

    Q is taken with the phases that make the triangular factor's diagonal
    real and positive, which makes it Haar.  Gram-Schmidt produces exactly
    that factor; here it is classical Gram-Schmidt with one
    reorthogonalization (CGS2, "twice is enough"), whose columns are
    orthonormal to round-off, vectorized over the stack: for stacks of small
    matrices this is faster than batched LAPACK QR.  With ``size`` given,
    returns a stack of shape (size, n, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shape = (n, n) if size is None else (size, n, n)
    # the Ginibre scale does not change Q
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # q[j] is column j, of shape (n, ...): every step is a sum over the short
    # axis of arrays that run along the stack
    q = np.moveaxis(z, (-1, -2), (0, 1)).copy()
    for j in range(n):
        v = q[j]
        for _ in range(2 if j else 0):
            basis = q[:j]
            coef = np.einsum("kr...,r...->k...", basis, v.conj()).conj()
            v -= np.einsum("kr...,k...->r...", basis, coef)
        v /= np.sqrt(
            np.einsum("r...,r...->...", v.real, v.real)
            + np.einsum("r...,r...->...", v.imag, v.imag)
        )
    return np.moveaxis(q, (0, 1), (-1, -2))


def sample_repulsive(
    n: int, lo: float, hi: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Draw ``count`` vectors with density prod |x_h - x_k| on [lo, hi]^n, exactly.

    The squared cosines of the principal angles between a uniformly random
    n-plane and a fixed (n+1)-plane of R^(2n+2) form the real (beta = 1)
    Jacobi ensemble with both exponents zero, whose density on [0, 1]^n is
    prod |x_h - x_k|.  They are the eigenvalues of Q1^T Q1, where Q1 holds
    the first n+1 rows of the orthonormal factor of a (2n+2) x n Gaussian
    matrix.  The coordinates are shuffled because the law is of unordered
    vectors.  Returns (samples, acceptance_rate); nothing is rejected, so
    the rate is 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if hi <= lo:
        raise ValueError("need hi > lo")
    q = np.linalg.qr(rng.standard_normal((count, 2 * n + 2, n)))[0][:, : n + 1, :]
    x = rng.permuted(np.linalg.eigvalsh(q.transpose(0, 2, 1) @ q), axis=1)
    return lo + (hi - lo) * np.clip(x, 0.0, 1.0), 1.0


def sample_lambda(
    n: int,
    cutoff: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Sample squeezing weights on [1, cutoff]^n with density prod |l_h - l_k|.

    Returns an array of shape (n,), or (size, n) when ``size`` is given.
    """
    if cutoff <= 1.0:
        raise ValueError("cutoff must be > 1")
    samples, _ = sample_repulsive(n, 1.0, cutoff, 1 if size is None else size, rng)
    return samples[0] if size is None else samples


def sample_homogeneous_gaussian_unitary(
    n: int, cutoff: float, rng: np.random.Generator, size: int | None = None
) -> EulerGaussianUnitary:
    """Draw from the invariant measure restricted to lambda in [1, cutoff]^n.

    With ``size`` given, returns one EulerGaussianUnitary holding a stack of
    ``size`` draws.  The stream is consumed as lambda, theta, U, U' for the
    whole stack; ``size=None`` is the stack of one, unstacked, so a single
    draw is the same as the first row of ``size=1``.
    """
    count = 1 if size is None else size
    lam = sample_lambda(n, cutoff, rng, size=count)
    theta = rng.uniform(0.0, 2 * np.pi, count)
    U = sample_haar_unitary(n, rng, size=count)
    U_prime = sample_haar_unitary(n, rng, size=count)
    if size is None:
        theta, U, lam, U_prime = float(theta[0]), U[0], lam[0], U_prime[0]
    return EulerGaussianUnitary(theta=theta, U=U, s=np.arccosh(lam) / 4, U_prime=U_prime)


def passive_symplectic(U: np.ndarray) -> np.ndarray:
    """Orthogonal-symplectic matrix realizing the passive unitary U.

    Under a -> sum_h U_{kh} a_h the quadratures transform as
    x' = Re(U) x - Im(U) p, p' = Im(U) x + Re(U) p; this interleaves those
    blocks into the (x_1, p_1, ...) ordering.  Maps a stack (..., n, n) to a
    stack (..., 2n, 2n).
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[-1]
    S = np.zeros(U.shape[:-2] + (2 * n, 2 * n))
    S[..., 0::2, 0::2] = U.real
    S[..., 0::2, 1::2] = -U.imag
    S[..., 1::2, 0::2] = U.imag
    S[..., 1::2, 1::2] = U.real
    return S


def squeeze_symplectic(s) -> np.ndarray:
    """Direct sum of per-mode squeezers diag(e^{-2 s_k}, e^{+2 s_k}).

    The sign matches a generator s(a^2 - a^dag^2): x is squeezed, p is
    stretched.  Maps a stack (..., n) to a stack (..., 2n, 2n).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    d = np.empty(s.shape[:-1] + (2 * s.shape[-1],))
    d[..., 0::2] = np.exp(-2 * s)
    d[..., 1::2] = np.exp(2 * s)
    return d[..., np.newaxis] * np.eye(d.shape[-1])


def euler_to_symplectic(g: EulerGaussianUnitary) -> np.ndarray:
    """Symplectic matrix of the Euler factorization; the phase theta drops out.

    A stacked ``g`` gives the stack (..., 2n, 2n).
    """
    return (
        passive_symplectic(g.U)
        @ squeeze_symplectic(g.s)
        @ passive_symplectic(g.U_prime)
    )


def apply_to_vacuum(S: np.ndarray) -> GaussianPureState:
    """State obtained by acting with the symplectic matrix S on the vacuum.

    A stack S (..., 2n, 2n) gives one GaussianPureState holding the stack of
    covariances.  Every entry must be finite, which is checked first: an inf
    would make the defect's products warn before they fail.  Each matrix's
    ``symplectic_defect`` must be SYMPLECTIC_TOL at most.
    """
    S = np.asarray(S, dtype=float)
    if not np.isfinite(S).all():
        raise ValueError("matrix is not symplectic: it has a non-finite entry")
    if not np.all(symplectic_defect(S) <= SYMPLECTIC_TOL):
        raise ValueError("matrix is not symplectic")
    return GaussianPureState(n_modes=S.shape[-1] // 2, covariance=S @ S.swapaxes(-1, -2))
