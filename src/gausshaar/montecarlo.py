"""Monte Carlo machinery: density samplers and exactly constrained verification.

The verification pipeline reconstructs the conditional eigenvalue density
P(nu | E_A, E_B) from first principles, with one estimator for every n:
propose nu from the closed-form balanced law mixed with a uniform share on
the support simplex, weight it by the unconstrained invariant factor, draw
the mixing unitaries of each subsystem from their invariant measure, and
integrate the squeezing weights against the Dirac energy constraint of each
subsystem exactly.  At fixed mixing the constrained squeezing weights form a
scaled simplex, so the integral is its volume times the mean repulsion over
it: exact at m <= 2, and averaged over K(m) uniform points of it from m = 3.
No shell width, no lambda cutoff, and no zero weight inside the support.
Every proposal lies in the support and carries a log-weight, a sum of logs
that no product overflows, exponentiated against the maximum of the run
before any statistic: every reported value is invariant to their scale, and
no square overflows.  One binning path serves every n; only the coordinates
((nu1, nu2) at n = 4, S = sum(nu) otherwise), the edges and the exact
Gauss-Legendre bin masses depend on n.

One generator seeded with ``seed`` feeds every draw, in blocks of BLOCK
proposals; results are deterministic for a fixed seed.  Each block is
reduced as it arrives to what the report reads: S = sum(nu), the log-weight
and the uint16 bin index of its coordinates, on edges the constraint fixes.
So a run keeps 18 bytes per proposal at every n, in buffers sized for the
run, plus one block of temporaries.  The report reads them BLOCK proposals
at a time and holds S, the weights and the KS sort order, 24 bytes per
proposal, plus one chunk: at n = 4 the traced peak is about 26 bytes per
proposal at 1e6 proposals, and at 3e5 one block's temporaries set it, at
about 30.  The kernels run on 1-D columns, one per coordinate: nu is built
as m columns of one array, and S and log(2E - S) are formed once for the
proposal density and the integrand alike.  Every draw is made once, for
the proposals that read it: the uniform share at its binomial size, the
closed form for the rest, and the mixing draws for the whole block, so
m = 1 makes none.  The integrand, the weight before
the proposal density, is one function of the columns, ``_log_weight``,
which the tests also call at fixed nu.  The bins are found by arithmetic
on the uniform edges.  A weight that overflows a double is a numerical
failure (RuntimeError), never a report.  An effective sample size
below MIN_EXPECTED_PER_BIN per histogram bin of positive expected mass marks
the estimate as degenerate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .densities import (
    EnergyConstraint,
    balanced_half,
    balanced_sum_law,
    density_2p2,
    log_density_balanced,
    log_density_unconstrained,
    log_vandermonde,
    mean_energy,
)
from .haar import sample_haar_unitary, sample_lambda

MIN_EXPECTED_PER_BIN = 5.0
# draws per block in verify and g_constraint_mc; bounds their memory, not
# their law (2**17 more than doubles the peak memory of verify at n = 6)
BLOCK = 2**15
# share of verify's proposal drawn uniformly on the support simplex (a
# defensive mixture, Hesterberg 1995): the closed form alone puts no draw
# where it is zero, so a closed form with too small a support would pass unseen
DEFENSIVE = 0.1


@dataclass
class HistogramReport:
    """Binned empirical density with optional comparison against a closed form.

    ``bin_edges`` holds one edge vector per histogrammed dimension; ``counts``
    are raw sample counts and ``normalized_density`` is the
    importance-weighted density (integrates to 1 over the binned range).
    """

    bin_edges: list
    counts: np.ndarray
    normalized_density: np.ndarray
    comparison: Optional[dict] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if int(self.counts.sum()) != int(self.metadata.get("sample_count", self.counts.sum())):
            raise ValueError("counts must sum to the accepted sample count")
        total = float(np.sum(self.normalized_density * _cell_volume(self.bin_edges)))
        # written so that a NaN integral fails it too
        if self.counts.sum() > 0 and not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"normalized density integrates to {total}, not 1")


def _cell_volume(bin_edges) -> np.ndarray:
    """Volume of each histogram cell: the outer product of the edge widths."""
    return functools.reduce(np.multiply.outer, map(np.diff, bin_edges))


def _unit_simplex_delta2(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` points x of the unit simplex with density prop. to Delta(x)^2.

    Returned as m contiguous columns, shape (m, count).  At m = 2,
    x = ((1 + t)/2, (1 - t)/2) with t of density 3 t^2 / 2 on [-1, 1], whose
    CDF (t^3 + 1)/2 inverts to a cube root.  For m >= 3 the eigenvalues y of
    G G^dag, G an m x m complex Ginibre matrix, have density
    prod (y_h - y_k)^2 exp(-sum y) (the beta = 2 Laguerre ensemble); the
    exponential depends on sum(y) alone and the squared Vandermonde is
    homogeneous, so y / sum(y) has the simplex law.  They are shuffled
    because the law is of unordered vectors.
    """
    if m == 1:
        return np.ones((1, count))
    if m == 2:
        t = np.cbrt(2.0 * rng.random(count) - 1.0)
        x = np.empty((2, count))
        np.add(1.0, t, out=x[0])
        np.subtract(1.0, t, out=x[1])
        x *= 0.5
        return x
    shape = (count, m, m)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.permuted(np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1)), axis=1)
    return np.ascontiguousarray((y / y.sum(axis=1, keepdims=True)).T)


def sample_balanced(
    m: int, constraint: EnergyConstraint, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw nu-vectors (count, m) from the closed-form balanced law, exactly.

    (S - m)/L, S = sum(nu), follows the Beta mixture of ``balanced_sum_law``:
    pick a component by its weight, then draw that Beta.  Given S, nu is
    1 + (S - m) x with x from the Delta^2 law on the unit simplex, which
    keeps every eigenvalue >= 1 under round-off.  Nothing is rejected.  The
    rows are a view of m contiguous columns: ``.T`` gives them back.
    """
    L, a, weights, _ = balanced_sum_law(m, constraint)
    k = rng.choice(weights.size, size=count, p=weights)
    y = L * rng.beta(m * m, a + 1.0 + k)
    nu = _unit_simplex_delta2(m, count, rng)
    nu *= y
    nu += 1.0
    return nu.T


def sample_density_2p2(
    constraint: EnergyConstraint, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``sample_balanced`` at m = 2: (nu1, nu2) pairs from the 2 + 2 law."""
    return sample_balanced(2, constraint, count, rng)


def sample_submanifold_energy(
    n: int, E: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw nu-vectors from the fixed-energy simplex density of the submanifold.

    The density is prod (nu_h - nu_k)^2 on {nu >= 1, sum(nu) = 2E}: the unit
    simplex law of ``_unit_simplex_delta2``, scaled by 2E - m and shifted by
    1, which is exact.  Every sample satisfies sum(nu) = 2E to round-off.
    """
    m = balanced_half(n)
    width = 2.0 * E - m
    if width < 0:
        raise ValueError("2E < n/2: the energy simplex is empty")
    nu = _unit_simplex_delta2(m, count, rng)
    nu *= width
    nu += 1.0
    return nu.T


def g_constraint_mc(
    nu,
    E: float,
    n: int,
    count: int,
    shell_width: float,
    cutoff: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Shell estimate of the delta-constrained local integral g(nu, E).

    Estimates (1/(2 w)) P(|E(U, lambda, nu) - E| <= w), w the shell width,
    with lambda drawn from the pairwise-repulsion density on [1, cutoff]^(n/2)
    and U Haar: raw shell hits, sharing no shortcut with the exact estimator
    of ``verify_constrained_density``.  The result carries a cutoff-dependent
    normalization that is shared across nu at fixed (E, cutoff, w), so only
    ratios are meaningful.  Returns (estimate, standard_error).
    """
    m = balanced_half(n)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size != m:
        raise ValueError(f"need {m} eigenvalues, got {nu.size}")
    if shell_width <= 0:
        raise ValueError("shell width must be positive")
    needed = 2.0 * E / nu.min()
    if cutoff < needed:
        raise ValueError(
            f"cutoff {cutoff} too small: the energy shell requires lambda up "
            f"to {needed:.3g}"
        )
    if count < 2:
        raise ValueError("a standard error needs count >= 2")
    hits = 0
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        lam = sample_lambda(m, cutoff, rng, size=size)
        U = sample_haar_unitary(m, rng, size=size)
        energies = mean_energy(U, lam, nu)
        hits += int(np.count_nonzero(np.abs(energies - E) <= shell_width))
    # mean and ddof=1 standard deviation of the 0/1 hit indicators
    std = math.sqrt(hits * (count - hits) / (count * (count - 1)))
    estimate = hits / count / (2.0 * shell_width)
    stderr = std / math.sqrt(count) / (2.0 * shell_width)
    return estimate, stderr


# ---------------------------------------------------------------------------
# the exact energy-constraint estimator


def _simplex_draws(m: int) -> int:
    """K(m), the uniform simplex points averaged per mixing draw at m >= 3.

    The tail of a one-point weight grows with m: at n = 10 and 12 it made
    ``verify`` reject the right law at far more seeds than its p threshold
    allows.  Of three powers of 4 around the best at each m = 3-10, this is
    the K of most effective samples per second of ``verify`` (CHANGES.md);
    where two tie, the smaller one, except at m = 8, where 256 keeps the
    ESS of every seed near its median and 64 does not.  Past m = 10 it is
    not measured.
    """
    return 16 if m <= 5 else 64 if m <= 7 else 256


def _log_lambda_integral(c, S, log_R, rng):
    """Log of an estimate of the delta-constrained lambda integral at fixed mixing.

    c holds the m mixing coefficients of each point as m 1-D columns, S their
    sum and log_R the log of R = 2E - S >= 0.  Its one caller in the
    pipeline, ``_log_weight``, passes the proposals of its block, all in the
    support (S <= 2 min(E)), so R >= 0 holds for every point and nothing
    here tests it; at R = 0, log_R = -inf makes the estimate 0 from m = 2.
    The subsystem energy is sum_h lambda_h c_h / 2.  With
    mu_h = c_h (lambda_h - 1) the constraint
    delta(E - sum lambda c / 2) becomes 2 delta(R - sum mu), where
    sum(c) = sum(nu) = S, because |U|^2 is doubly stochastic, and
    dlambda = dmu / prod(c).  The integral of the repulsion prod |lambda_h -
    lambda_k| = prod |mu_h/c_h - mu_k/c_k| is therefore 2 / prod(c) times the
    simplex volume R^(m-1) / (m-1)! times the mean repulsion over mu uniform
    on the simplex {mu >= 0, sum mu = R}.  That mean is taken exactly where
    it is cheap, and averaged over draws otherwise (a Rao-Blackwellisation
    of the one-point estimate; Casella & Robert, Biometrika 83 (1996) 81):

    - m = 1: there is no repulsion, and the integral is 2 / c.
    - m = 2: with mu = (R u, R (1 - u)), u uniform, the mean of
      |mu_1/c_1 - mu_2/c_2| is R (c_1^2 + c_2^2) / (2 c_1 c_2 (c_1 + c_2)),
      so the integral is R^2 (c_1^-2 + c_2^-2) / S: a sum of positive terms
      that no square of a large c overflows.
    - m >= 3: mu is R times normalized exponentials x / sum(x), so the
      repulsion is R^D prod |t_h - t_k|, t = x / (c sum(x)), D = m(m-1)/2;
      its log-mean-exp over ``_simplex_draws(m)`` draws of x, one (m, count)
      array each, is accumulated against a running maximum.

    Returned as the sum of the logs of the factors: an unbiased estimate of
    the integral with no shell width and no lambda cutoff, exact at m <= 2.
    Every step is a 1-D column: sums and products over rows of length m are
    about 15x slower, and so is broadcasting a (count, 1) factor over them.
    """
    m = len(c)
    if m == 1:
        return np.log(2.0 / S)
    if m == 2:
        inverse = np.divide(1.0, c)
        inverse *= inverse
        log_w = np.log(functools.reduce(np.add, inverse))
        log_w -= np.log(S)
    else:
        log_w = -functools.reduce(np.add, np.log(c))
        log_w += math.log(2.0 / math.factorial(m - 1)) + _log_mean_repulsion(c, rng)
    # the exponent m - 1 of the volume plus D of the repulsion (2 at m = 2)
    log_w += (m - 1) * (m + 2) // 2 * log_R
    return log_w


def _log_mean_repulsion(columns, rng):
    """log of the mean of prod |t_h - t_k|, t = x / (c sum(x)), over K(m) draws of x.

    x holds m standard exponentials per column of c; each t lies in [0, 1]
    (c >= 1).  The log-mean-exp keeps the running maximum ``top`` of the
    log-repulsions and the sum ``acc`` of their exponentials against it.
    """
    m, count = columns.shape
    draws = _simplex_draws(m)
    pairs = m * (m - 1) // 2
    inverse = 1.0 / columns

    def log_repulsion():
        x = rng.standard_exponential((m, count))
        out = log_vandermonde((x * inverse).T)
        out -= pairs * np.log(functools.reduce(np.add, x))
        return out

    top, acc = log_repulsion(), np.ones(count)
    for _ in range(draws - 1):
        log_rep = log_repulsion()
        shift = np.maximum(top, log_rep)
        acc *= np.exp(top - shift)
        acc += np.exp(log_rep - shift)
        top = shift
    return top + np.log(acc / draws)


# ---------------------------------------------------------------------------
# weighted statistics


def _pairwise_sum(segment, lo, hi):
    """np.add.reduce of the span [lo, hi) of an array that is never formed whole.

    ``segment(lo, hi)`` returns that span of it as a float64 array.  numpy
    sums a contiguous float64 array pairwise: a span longer than 128 is
    halved at a multiple of 8 and the sums of its halves are added, so the
    sum of a span depends on its length and its values alone.  Halving the
    same way down to spans of at most BLOCK and summing each with numpy gives
    the sum of the whole array bit for bit, with one span formed at a time.
    """
    if hi - lo <= BLOCK:
        return np.add.reduce(segment(lo, hi))
    half = (hi - lo) // 2
    half -= half % 8
    return _pairwise_sum(segment, lo, lo + half) + _pairwise_sum(segment, lo + half, hi)


def weighted_ks_statistic(values, weights, cdf) -> float:
    """Kolmogorov-Smirnov statistic of a weighted sample against a CDF.

    One argsort of the values; then, BLOCK points of the sorted order at a
    time, the values and the weights are gathered and the CDF is taken of
    them.  The running weight is carried from chunk to chunk: it is added to
    the first weight of a chunk before the chunk's cumsum, so every
    cumulative sum is the same chain of additions as a cumsum of the whole
    sorted sample, and the previous chunk's last cumulative value closes the
    gap just below the chunk's first value.  The cumulative sums are divided
    by the pairwise sum of the sorted weights (``_pairwise_sum``), so the
    statistic is that of the whole sample at once, bit for bit.  Besides the
    inputs it holds the sort order and one chunk's temporaries.
    """
    values, weights = np.asarray(values), np.asarray(weights)
    order = np.argsort(values)
    total = _pairwise_sum(lambda lo, hi: weights[order[lo:hi]], 0, order.size)
    carry, previous, gaps = 0.0, 0.0, []
    for start in range(0, order.size, BLOCK):
        part = order[start : start + BLOCK]
        target = cdf(values[part])
        cum = weights[part]
        cum[0] += carry
        np.cumsum(cum, out=cum)
        carry = cum[-1]
        cum /= total
        # just below each sorted value the empirical CDF is the one before it
        below = np.concatenate([[previous], cum[:-1]])
        below -= target
        previous = cum[-1]
        cum -= target
        gaps += [np.abs(cum, out=cum).max(), np.abs(below, out=below).max()]
    return float(np.max(gaps))


def weighted_chi2(W, W2, count, expected_prob) -> tuple[float, int, float]:
    """Chi-square test of weighted bin masses against expected probabilities.

    ``W`` and ``W2`` are the per-bin sums of the weights of ``count`` samples,
    at least one of them positive, and of their squares.  Per-bin z-scores
    use the empirical variance W2 of the bin mass, floored at the expected
    mass times the mean weight; bins that no sample reached and whose
    expected effective count falls below a floor are dropped, so every kept
    bin has a positive variance.
    Returns (chi2, dof, p_value).
    """
    total = W.sum()
    ess = total**2 / W2.sum()
    expected = total * expected_prob
    keep = (expected_prob * ess >= MIN_EXPECTED_PER_BIN) | (W2 > 0)
    variance = np.maximum(W2[keep], expected[keep] * (total / count))
    chi2 = float(np.sum((W[keep] - expected[keep]) ** 2 / variance))
    dof = max(int(keep.sum()) - 1, 1)
    return chi2, dof, chi2_sf(chi2, dof)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer dof.

    The finite sums of Abramowitz & Stegun 26.4.4-5: with y = x/2,
    exp(-y) sum_{j < dof/2} y^j / j! for even dof, and
    erfc(sqrt(y)) + exp(-y) sum_{1 <= j <= (dof-1)/2} y^(j-1/2) / Gamma(j+1/2)
    for odd dof.  Every term is positive, so there is no cancellation, and
    each is formed in logs so none overflows.
    """
    if x <= 0:
        return 1.0
    y = 0.5 * x
    log_y = math.log(y)
    if dof % 2 == 0:
        return math.fsum(
            math.exp(j * log_y - y - math.lgamma(j + 1)) for j in range(dof // 2)
        )
    return math.erfc(math.sqrt(y)) + math.fsum(
        math.exp((j - 0.5) * log_y - y - math.lgamma(j + 0.5))
        for j in range(1, (dof + 1) // 2)
    )


# ---------------------------------------------------------------------------
# the end-to-end verification pipeline


def _softplus(z):
    """log(1 + exp(z)) as max(z, 0) + log1p(exp(-|z|)), overwriting z.

    Finite wherever z is, and 0 at z = -inf.  np.logaddexp gives the same
    to round-off at about 4x the time on a block.
    """
    soft = np.abs(z)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    soft += np.maximum(z, 0.0, out=z)
    return soft


def _log_weight(nu, S, log_gaps, rng):
    """Log of the pipeline's integrand at the columns of nu, m eigenvalues a side.

    The invariant factor prod nu_j^2 prod (nu_h^2 - nu_k^2)^2 times each
    subsystem's delta-constrained lambda integral at the Haar mixing |U|^2,
    in logs; its mean over the draws is proportional to the closed-form
    balanced law.  For m = 2, |U|^2 is [[p, 1 - p], [1 - p, p]] with p
    uniform on (0, 1), so p is drawn directly; at m = 1 the mixture is nu
    itself, and nothing is drawn.  nu holds the points as m 1-D columns, all
    in the support, S their sums and ``log_gaps`` the pair
    log(2E_A - S), log(2E_B - S), -inf on the support's edge, where the
    weight is then 0.  Each draw is sized to those columns, side A's before
    side B's.
    """
    m, count = nu.shape
    # nu^2 overflows from nu = 1.3e154, which only m = 1 reaches: its
    # Vandermonde of nu^2 is empty, and _report rejects such energies from m = 2
    with np.errstate(over="ignore"):
        log_w = log_density_unconstrained(nu.T, m, m)
    for log_R in log_gaps:
        if m == 1:
            c = nu
        elif m == 2:
            p = rng.random(count)
            # c1 = p nu1 + (1 - p) nu2 and c2 = S - c1, in place
            c = np.empty_like(nu)
            np.multiply(p, nu[0], out=c[0])
            np.subtract(1.0, p, out=p)
            p *= nu[1]
            c[0] += p
            np.subtract(S, c[0], out=c[1])
        else:
            P = np.abs(sample_haar_unitary(m, rng, size=count)) ** 2
            c = np.einsum("rhk,kr->hr", P, nu)
        log_w += _log_lambda_integral(c, S, log_R, rng)
    return log_w


def _pipeline_block(m, constraint, count, rng):
    """One block of the pipeline, m eigenvalues a side; returns (values, log-weights).

    nu is proposed from the closed-form balanced law, except for a share
    DEFENSIVE drawn uniformly on the support simplex {nu >= 1, S <= 2 min(E)},
    S = sum(nu), set by each subsystem energy being at least S/2: nu - 1 is
    2 min(E) - m times the first m of m + 1 normalized standard exponentials,
    of density m! / (2 min(E) - m)^m.  Any support-covering proposal is
    valid: the weights are flat only if the closed form matches the pipeline
    law, and the uniform share lets them show mass the closed form misses.
    Every proposal lies in the support, so every one is weighted; the
    log-weight is ``_log_weight`` minus the log of the proposal density.  The
    size of the uniform share is binomial(count, DEFENSIVE), and its columns
    come first: the proposals are exchangeable, so their order changes no
    statistic.

    nu is m contiguous columns of one (m, count) array.  S is clamped to
    2 min(E), where round-off can put it an ulp past the edge; there the
    min-energy gap's log is -inf, a weight of 0 where the law vanishes
    (m >= 2; at m = 1 the gap is not read).  S and each log(2E - S) are
    formed once and read by both the proposal density and ``_log_weight``,
    so no log sees a negative argument.  The two shares u and v of the
    proposal density are mixed in logs, as log u + softplus(log v - log u),
    so neither overflows at any energy.  Returns the rows as a (count, m)
    view of their columns.
    """
    top = 2.0 * constraint.min_energy
    box = rng.binomial(count, DEFENSIVE)
    x = rng.standard_exponential((m + 1, box))
    scale = (top - m) / functools.reduce(np.add, x)
    uniform = x[:m] * scale + 1.0
    nu = np.concatenate([uniform, sample_balanced(m, constraint, count - box, rng).T], axis=1)
    S = functools.reduce(np.add, nu)
    np.minimum(S, top, out=S)
    # keyed by energy, so equal energies share one log
    with np.errstate(divide="ignore"):
        log_gap = {E: np.log(2.0 * E - S) for E in (constraint.E_A, constraint.E_B)}
    log_gaps = [log_gap[constraint.E_A], log_gap[constraint.E_B]]
    # the log of the uniform share, and of the closed-form share against it
    log_uniform = math.log(DEFENSIVE) + math.lgamma(m + 1) - m * math.log(top - m)
    z = log_density_balanced(nu.T, constraint, log_gaps)
    z += math.log1p(-DEFENSIVE) - log_uniform
    log_w = _log_weight(nu, S, log_gaps, rng)
    log_w -= log_uniform
    log_w -= _softplus(z)
    return nu.T, log_w


def _gauss_legendre(k: int):
    """k nodes and weights of the Gauss-Legendre rule on [0, 1], exact to degree 2k - 1.

    Golub & Welsch (Math. Comp. 23 (1969) 221): the eigenvalues of the Legendre
    Jacobi matrix and the squared first components of its unit eigenvectors.
    """
    j = np.arange(1.0, k)
    nodes, vectors = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _sum_law(m: int, constraint: EnergyConstraint, edges):
    """The law of S = sum(nu) under the closed-form balanced law: (cdf, masses).

    ``cdf`` is the CDF of the Beta mixture of ``balanced_sum_law``.  For
    integer p and q the regularized incomplete Beta is a binomial tail, in
    negative-binomial form I_x(p, q) = x^p sum_{r < q} C(p + r - 1, r) (1 - x)^r.
    Summed over the components Beta(p, a + j + 1), x = (S - m)/L gives x^p
    times a polynomial in 1 - x with positive coefficients, so Horner's rule
    cancels nothing; the same CDF in powers of x has degree 34 at m = 4 and
    loses every digit near x = 1.  Term r sums the components with a + j >= r.
    The CDF of an array needs two temporaries of its size: Horner's rule runs
    in place.  Its largest coefficient, C(p + 2a - 1, 2a), exceeds the largest
    double from n = 46, which is rejected first.  ``masses`` are those of S
    between consecutive ``edges``: CDF differences cancel (the top bin at
    m = 6, E = 7 read 0 against 1.5e-21) and underflow (x^p at n = 44), but
    the density of x, x^(p-1) (1 - x)^a (b + 1 - x)^a / exp(log_total) with
    b = 2 |E_A - E_B| / L, is a polynomial that ceil((p + 2a)/2) Gauss-Legendre
    nodes per bin integrate exactly, each term positive and formed in logs.
    """
    L, a, weights, log_total = balanced_sum_law(m, constraint)
    p = m * m
    if math.comb(p + 2 * a - 1, 2 * a) > sys.float_info.max:
        raise ValueError(
            f"n = {2 * m} is out of range: the law of sum(nu) needs binomial "
            "coefficients beyond the largest double (even n up to 44 fit)"
        )
    tail = np.cumsum(weights[::-1])[::-1]
    share = np.concatenate([np.ones(a), tail])
    # float64: from m = 6 the binomials exceed int64 and numpy would keep
    # them as Python integers
    coef = np.array([math.comb(p + r - 1, r) for r in range(2 * a + 1)], dtype=float)
    coef *= share

    def cdf(v):
        x = np.subtract(v, m, dtype=float)
        x /= L
        np.clip(x, 0.0, 1.0, out=x)
        y = 1.0 - x
        horner = np.full_like(x, coef[-1])
        for c in coef[-2::-1]:
            horner *= y
            horner += c
        x **= p
        x *= horner
        return x

    t, w = _gauss_legendre((p + 2 * a + 1) // 2)
    b = 2.0 * abs(constraint.E_A - constraint.E_B) / L
    x = np.clip((edges - m) / L, 0.0, 1.0)
    width = np.diff(x)
    # a row of nodes per bin; one of width 0 keeps [0, 1]'s, so no log sees 0
    x = np.where(width[:, None] > 0, x[:-1, None] + width[:, None] * t, t)
    log_f = (p - 1) * np.log(x) + a * (np.log1p(-x) + np.log(b + 1.0 - x)) - log_total
    return cdf, width * (np.exp(log_f) @ w)


def verify_constrained_density(
    n: int,
    constraint: EnergyConstraint,
    count: int,
    cutoff: float = 10.0,
    seed: int = 0,
    self_test: bool = False,
) -> HistogramReport:
    """End-to-end reconstruction of P(nu | E_A, E_B) under the exact constraint.

    The Dirac energy constraint of each subsystem is imposed exactly; the
    constraint's ``shell_width`` is not read, and neither is ``cutoff``: the
    squeezing weights are integrated over the whole constrained simplex, with
    no lambda box.  Both stay accepted for existing callers.  Every even n
    up to 44 is compared with the closed-form balanced law (from n = 46
    ``_sum_law`` raises a ValueError before any draw, and so does ``_report``
    from n = 4 where (2 min(E))^2 overflows a double): n = 4 with a 2D
    chi-square of (nu1, nu2) and a KS of nu1 + nu2, every other n with a
    histogram (20 bins at n = 2, 10 otherwise), a chi-square and a KS of
    S = sum(nu).  The proposals are drawn from one generator seeded with
    ``seed``, BLOCK at a time, and each block is reduced as it arrives (see
    ``_report``).  In self-test mode the samples are drawn directly from the
    closed form (unit weights), which exercises the comparison statistics
    under the null.  A count below 1 is a ValueError, raised before any
    draw: every statistic needs a sample.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    m = balanced_half(n)
    rng = np.random.default_rng(seed)
    sizes = [min(BLOCK, count - start) for start in range(0, count, BLOCK)]
    if self_test:
        blocks = ((sample_balanced(m, constraint, k, rng), np.zeros(k)) for k in sizes)
    else:
        blocks = (_pipeline_block(m, constraint, size, rng) for size in sizes)
    return _report(m, constraint, blocks, {"proposal_count": count})


def _expected_probs_2p2(edges, constraint):
    """Exact masses of the closed-form density on the cells of ``edges`` x ``edges``.

    It is a polynomial of degree 6 up to S = 2 min(E), 0 beyond, and on the
    edges of ``_report`` (uniform on [1, 2 min(E) - 1]) that line runs along
    the cells' anti-diagonals.  The lower half of a cell takes the 4 x 4
    Gauss-Legendre rule collapsed by (s, t) -> (s, (1 - s) t), exact to degree
    7 in s (Duffy 1982), and the upper half its reflection through the centre.
    """
    g, w = _gauss_legendre(4)
    s, t = np.repeat(g, 4), np.tile(g, 4)
    lower = np.array([s, (1.0 - s) * t])
    u, v = np.concatenate([lower, 1.0 - lower], axis=1)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    dens = density_2p2((lo + width * u)[:, None], lo + width * v, constraint)
    return dens @ np.tile(np.outer(w, w).ravel() * (1.0 - s), 2) * (width * width.T)


def _bin_index(x, edges) -> np.ndarray:
    """np.digitize(x, edges) - 1 clipped to the bins, found by arithmetic.

    The edges are uniform, so the bin is (x - e_0) / (e_last - e_0) times the
    bin count, clipped and truncated.  As in np.histogram, one step down where
    x lies below the lower bound of that bin and one step up where it reaches
    the upper bound correct the round-off of that quotient.  The bounds are
    the edges with the outer two replaced by -inf and inf, so the end bins
    take every value beyond them and the last bin is closed, as in
    np.histogram; no index leaves the bins.  About 2.5x faster than
    np.digitize on a block.
    """
    bins = edges.size - 1
    bounds = np.concatenate([[-np.inf], edges[1:-1], [np.inf]])
    scaled = x - edges[0]
    scaled *= bins / (edges[-1] - edges[0])
    idx = np.clip(scaled, 0, bins - 1, out=scaled).astype(np.intp)
    idx -= x < bounds.take(idx)
    idx += x >= bounds[1:].take(idx)
    return idx


def _flat_index(coordinates, bin_edges) -> np.ndarray:
    """The bin index of each point, row-major over its binned coordinates."""
    index, *rest = (_bin_index(x, edges) for x, edges in zip(coordinates, bin_edges))
    for more, edges in zip(rest, bin_edges[1:]):
        index *= edges.size - 1
        index += more
    return index


def _reduce_blocks(blocks, bin_edges, count):
    """S = sum(nu), the log-weights and the flat bin index, each block as it arrives.

    The binned coordinates are (nu1, nu2) given two edge vectors and S given
    one.  Each block is written into three buffers sized for the ``count``
    proposals of the run, 18 bytes per proposal: S, the log-weight and the
    uint16 index.  Each block's arrays are dropped before the next block is
    drawn, so no two blocks coexist; a list of blocks joined at the end
    kept the heap of a run, and its peak RSS, about 2 MB higher.  Every
    proposal is weighted, so the blocks fill the buffers, which are returned
    as they are.
    """
    S, weights, flat = np.empty(count), np.empty(count), np.empty(count, np.uint16)
    end = 0
    for values, w in blocks:
        part = slice(end, end + w.size)
        end += w.size
        columns = values.T
        np.add.reduce(columns, axis=0, out=S[part])
        weights[part] = w
        flat[part] = _flat_index(columns if len(bin_edges) > 1 else [S[part]], bin_edges)
        del values, w, columns
    return S, weights, flat


def _report(m, constraint, blocks, metadata) -> HistogramReport:
    """Histogram, chi-square and KS of the weighted samples against the closed form.

    ``blocks`` yields the (values, log-weights) of each block of proposals, and
    ``metadata``, which holds at least ``proposal_count``, is completed in
    place.  One call of ``_sum_law`` gives the CDF of S = sum(nu) and its
    exact masses on [m, 2 min(E)].  They, the edges, fixed by the constraint,
    and the degenerate floor are built before the first block is read, so an
    empty support, an n too large for ``_sum_law``, or, from m = 2, a
    2 min(E) whose square overflows a double, is rejected before any draw.
    At m = 2 the histogram is of (nu1, nu2) on [1, 2 min(E) - 1]^2, with the
    masses of ``_expected_probs_2p2``; at every other m it is of S, with
    those of ``_sum_law``.  Each block is binned as it arrives (half-open
    bins, the last one closed, as in np.histogram).  The report then reads
    the sample BLOCK proposals at a time, so it holds no full-length
    temporary: one pass adds up three bincounts of each chunk, with its own
    intp copy of the index and squared weights, into the counts and the
    per-bin sums of the weights and of their squares, which the density and
    the chi-square share.  The sum of the squared weights is that of the
    whole array, span by span (``_pairwise_sum``), so the ESS is the
    one-pass value bit for bit; the binned sums agree with one-pass
    bincounts to rounding.  The index is freed before the KS statistic of S,
    which adds the sort order (see ``weighted_ks_statistic``).  An effective
    sample size below MIN_EXPECTED_PER_BIN per bin of positive expected mass
    (the bins the chi-square can keep; at m = 2 those below
    nu1 + nu2 = 2 min(E)) is a degenerate estimate: the metadata then has
    ``degenerate`` true and the ``ess_floor`` it missed.  Every proposal is
    weighted, so ``sample_count`` is the proposal count and
    ``acceptance_rate`` is 1.
    """
    bins = 20 if m == 1 else 10
    top = 2.0 * constraint.min_energy
    # the invariant factor squares nu, which reaches 2 min(E); at m = 1 the
    # square is not read
    if m > 1 and not math.isfinite(top * top):
        raise ValueError(
            f"2 min(E_A, E_B) = {top:.6g} is out of range at n = {2 * m}: the weights "
            f"square nu, so from n = 4 it must be at most "
            f"{math.sqrt(sys.float_info.max):.6g}, the square root of the largest double"
        )
    bin_edges = [np.linspace(m, top, bins + 1)]
    cdf, expected = _sum_law(m, constraint, bin_edges[0])
    if m == 2:
        bin_edges = [np.linspace(1.0, top - 1.0, bins + 1)] * 2
        expected = _expected_probs_2p2(bin_edges[0], constraint).ravel()
    floor = MIN_EXPECTED_PER_BIN * np.count_nonzero(expected > 0)
    count = metadata["proposal_count"]
    S, weights, flat = _reduce_blocks(blocks, bin_edges, count)
    # exponentiated against their maximum, in place: every statistic is
    # invariant to the scale, and with a maximum of 1 no square overflows
    largest = weights.max()
    if not np.isfinite(largest):
        raise RuntimeError(
            f"the largest log-weight is {largest}: the weights overflow a double "
            f"at n = {2 * m}, E = ({constraint.E_A:.6g}, {constraint.E_B:.6g})"
        )
    weights -= largest
    np.exp(weights, out=weights)
    total = weights.sum()
    ess = float(total**2 / _pairwise_sum(lambda lo, hi: weights[lo:hi] ** 2, 0, count))
    # a chunk at a time, so that no intp copy of the index and no squared
    # weights of the whole sample are made
    counts = np.zeros(expected.size, np.intp)
    mass, mass2 = np.zeros(expected.size), np.zeros(expected.size)
    for start in range(0, count, BLOCK):
        index = flat[start : start + BLOCK].astype(np.intp)
        w = weights[start : start + BLOCK]
        counts += np.bincount(index, minlength=expected.size)
        mass += np.bincount(index, weights=w, minlength=expected.size)
        mass2 += np.bincount(index, weights=w * w, minlength=expected.size)
    del flat, index
    metadata.update(
        sample_count=count,
        acceptance_rate=1.0,
        effective_sample_size=ess,
        ess_fraction=ess / count,
        max_weight_share=float(1.0 / total),
    )
    if ess < floor:
        metadata.update(degenerate=True, ess_floor=floor)
    shape = (bins,) * len(bin_edges)
    # one factor at a time: total * volume overflows a double at large
    # energies (n = 4, E = 6e153)
    density = mass.reshape(shape) / total / _cell_volume(bin_edges)
    chi2, dof, p = weighted_chi2(mass, mass2, count, expected)
    ks = weighted_ks_statistic(S, weights, cdf)
    comparison = {"ks_statistic": ks, "chi2": chi2, "dof": dof, "p_value": p}
    return HistogramReport(bin_edges, counts.reshape(shape), density, comparison, metadata)
