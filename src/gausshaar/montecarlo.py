"""Monte Carlo machinery: density samplers and exactly constrained verification.

The verification pipeline reconstructs the conditional eigenvalue density
P(nu | E_A, E_B) from first principles, with one estimator for every n:
propose nu from the closed-form balanced law mixed with a uniform share on
the support box, weight it by the unconstrained invariant factor, draw the
mixing unitaries of each subsystem from their invariant measure, and
integrate the squeezing weights against the Dirac energy constraint of each
subsystem exactly.  At fixed mixing the
constrained squeezing weights form a scaled simplex, so the integral is its
volume times the mean repulsion at one uniform point of it: no shell width,
no lambda cutoff, and no zero weight inside the support.
Accepted samples carry log-weights, sums of logs that no product overflows,
exponentiated against their maximum before any statistic: every reported
value is invariant to their scale, and no square overflows.  One binning
path serves every n; only the coordinates ((nu1, nu2) at n = 4, S = sum(nu)
otherwise), the edges and the expected bin masses depend on n.

One generator seeded with ``seed`` feeds every draw, in blocks of BLOCK
proposals; results are deterministic for a fixed seed.  Each block is
reduced as it arrives to what the report reads: S = sum(nu), the log-weight
and the uint16 bin index of its coordinates, on edges the constraint fixes.
So a run keeps 18 bytes per accepted proposal at every n plus one block of
temporaries, and the report's peak is the KS sort, about 40 bytes per
accepted proposal.  The kernels run on 1-D columns, one per coordinate.
An effective sample size below MIN_EXPECTED_PER_BIN per histogram bin of
positive expected mass marks the estimate as degenerate.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .densities import (
    EnergyConstraint,
    balanced_half,
    balanced_sum_law,
    density_2p2,
    density_balanced,
    log_density_unconstrained,
    mean_energy,
)
from .haar import log_vandermonde, sample_haar_unitary, sample_repulsive

logger = logging.getLogger(__name__)

MIN_EXPECTED_PER_BIN = 5.0
# draws per block in verify and g_constraint_mc; bounds their memory, not
# their law (2**17 more than doubles the peak memory of verify at n = 6)
BLOCK = 2**15
# share of verify's proposal drawn uniformly on the support box (a defensive
# mixture, Hesterberg 1995): the closed form alone puts no draw where it is
# zero, so a closed form with too small a support would pass unseen
DEFENSIVE = 0.1


@dataclass
class HistogramReport:
    """Binned empirical density with optional comparison against a closed form.

    ``bin_edges`` holds one edge vector per histogrammed dimension; ``counts``
    are raw accepted-sample counts and ``normalized_density`` is the
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
        if self.counts.sum() > 0 and abs(total - 1.0) > 1e-9:
            raise ValueError(f"normalized density integrates to {total}, not 1")


def _cell_volume(bin_edges) -> np.ndarray:
    """Volume of each histogram cell: the outer product of the edge widths."""
    return functools.reduce(np.multiply.outer, map(np.diff, bin_edges))


def _unit_simplex_delta2(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` points x of the unit simplex with density prop. to Delta(x)^2.

    At m = 2, x = ((1 + t)/2, (1 - t)/2) with t of density 3 t^2 / 2 on
    [-1, 1], whose CDF (t^3 + 1)/2 inverts to a cube root.  For m >= 3 the
    eigenvalues y of G G^dag, G an m x m complex Ginibre matrix, have density
    prod (y_h - y_k)^2 exp(-sum y) (the beta = 2 Laguerre ensemble); the
    exponential depends on sum(y) alone and the squared Vandermonde is
    homogeneous, so y / sum(y) has the simplex law.  They are shuffled
    because the law is of unordered vectors.
    """
    if m == 1:
        return np.ones((count, 1))
    if m == 2:
        t = np.cbrt(2.0 * rng.random(count) - 1.0)
        return np.column_stack([0.5 * (1.0 + t), 0.5 * (1.0 - t)])
    shape = (count, m, m)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.permuted(np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1)), axis=1)
    return y / y.sum(axis=1, keepdims=True)


def sample_balanced(
    m: int, constraint: EnergyConstraint, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw nu-vectors (count, m) from the closed-form balanced law, exactly.

    (S - m)/L, S = sum(nu), follows the Beta mixture of ``balanced_sum_law``:
    pick a component by its weight, then draw that Beta.  Given S, nu is
    1 + (S - m) x with x from the Delta^2 law on the unit simplex, which
    keeps every eigenvalue >= 1 under round-off.  Nothing is rejected.
    """
    L, a, weights, _ = balanced_sum_law(m, constraint)
    k = rng.choice(weights.size, size=count, p=weights)
    y = L * rng.beta(m * m, a + 1.0 + k)
    return 1.0 + y[:, None] * _unit_simplex_delta2(m, count, rng)


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
    return 1.0 + width * _unit_simplex_delta2(m, count, rng)


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
        lam, _ = sample_repulsive(m, 1.0, cutoff, size, rng)
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


def _constrained_lambda_weight(c, E, rng):
    """Log of a single-sample estimate of the delta-constrained lambda integral.

    Given per-draw mixing coefficients c (shape (count, m)), the subsystem
    energy is sum_h lambda_h c_h / 2.  With mu_h = c_h (lambda_h - 1) the
    constraint delta(E - sum lambda c / 2) becomes 2 delta(R - sum mu), where
    R = 2E - sum(c) (= 2E - sum(nu), because |U|^2 is doubly stochastic), and
    dlambda = dmu / prod(c).  The integral of the repulsion prod |lambda_h -
    lambda_k| is therefore 2 / prod(c) times the simplex volume
    R^(m-1) / (m-1)! times the mean repulsion at mu uniform on the simplex
    {mu >= 0, sum mu = R}, which is R times normalized exponentials.  The
    weight is that product at one such draw, returned as the sum of the logs
    of its factors: an unbiased estimate with no shell width and no lambda
    cutoff, and -inf exactly where R <= 0.
    Every step is a 1-D column: sums and products over rows of length m are
    about 15x slower, and so is broadcasting a (count, 1) factor over them.
    """
    count, m = c.shape
    columns = c.T
    R = 2.0 * E - functools.reduce(np.add, columns)
    x = rng.standard_exponential((count, m))
    scale = R / functools.reduce(np.add, x.T)
    lam = np.array([1.0 + x[:, h] * scale / columns[h] for h in range(m)])
    # log R is nan or -inf where R <= 0, which the mask drops
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = (m - 1) * np.log(R) - functools.reduce(np.add, np.log(columns))
    log_w += log_vandermonde(lam.T) + math.log(2.0 / math.factorial(m - 1))
    return np.where(R > 0, log_w, -np.inf)


# ---------------------------------------------------------------------------
# weighted statistics


def weighted_ks_statistic(values, weights, cdf) -> float:
    """Kolmogorov-Smirnov statistic of a weighted sample against a CDF.

    The CDF is taken of the unsorted values and gathered into sorted order
    with the weights, and each temporary is freed as soon as it is used, so
    no more than three arrays of the sample's length exist besides the inputs.
    """
    values = np.asarray(values)
    target = cdf(values)
    order = np.argsort(values)
    target = np.asarray(target)[order]
    cum = np.asarray(weights)[order]
    del order
    total = cum.sum()
    np.cumsum(cum, out=cum)
    cum /= total
    gap = cum - target
    upper = np.abs(gap, out=gap).max()
    # just below each sorted value the empirical CDF is 0, then cum[:-1]
    np.subtract(cum[:-1], target[1:], out=gap[1:])
    gap[0] = target[0]
    return float(np.maximum(upper, np.abs(gap, out=gap).max()))


def weighted_chi2(W, W2, count, expected_prob) -> tuple[float, int, float]:
    """Chi-square test of weighted bin masses against expected probabilities.

    ``W`` and ``W2`` are the per-bin sums of the weights of ``count`` samples
    and of their squares.  Per-bin z-scores use the empirical variance W2 of
    the bin mass, floored at the expected mass times the mean weight; bins
    that no sample reached and whose expected effective count falls below a
    floor are dropped, so every kept bin has a positive variance.
    Returns (chi2, dof, p_value).
    """
    total = W.sum()
    if total <= 0:
        return float("nan"), 0, float("nan")
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


def _pipeline_block(m, constraint, count, rng):
    """One block of the pipeline, m eigenvalues a side; returns (values, log-weights).

    nu is proposed from the closed-form balanced law, except for a share
    DEFENSIVE drawn uniformly on the box [1, 2 min(E)]^m, the support set by
    each subsystem energy being at least sum(nu)/2.  Any support-covering
    proposal is valid: the weights are flat only if the closed form matches
    the pipeline law, and the uniform share lets them show mass the closed
    form misses.  The log-weight is the log of the invariant factor
    prod nu_j^2 prod (nu_h^2 - nu_k^2)^2 over the proposal density, plus that
    of a single-sample estimate of each subsystem's delta-constrained lambda
    integral from the mixing matrix |U|^2.  For m <= 2 the Haar |U|^2 is
    [[p, 1 - p], [1 - p, p]] with p uniform on (0, 1), so p is drawn directly
    (at m = 1 the mixture is nu itself).  Each coordinate is a contiguous
    1-D column, as in ``_constrained_lambda_weight``.
    """
    top = 2.0 * constraint.min_energy
    nu = sample_balanced(m, constraint, count, rng)
    box = rng.random(count) < DEFENSIVE
    nu[box] = rng.uniform(1.0, top, (int(box.sum()), m))
    proposal = DEFENSIVE / (top - 1.0) ** m + (1.0 - DEFENSIVE) * density_balanced(
        nu, constraint
    )
    log_w = log_density_unconstrained(nu, m, m) - np.log(proposal)
    columns = nu.T.copy()
    for E in (constraint.E_A, constraint.E_B):
        if m <= 2:
            p = rng.random(count)
            c = p * columns + (1.0 - p) * columns[::-1]
        else:
            P = np.abs(sample_haar_unitary(m, rng, size=count)) ** 2
            c = np.array(
                [
                    functools.reduce(np.add, [P[:, h, k] * columns[k] for k in range(m)])
                    for h in range(m)
                ]
            )
        log_w += _constrained_lambda_weight(c.T, E, rng)
    keep = log_w > -np.inf
    # compress, not a boolean index: 8x faster on the rows of nu
    return np.compress(keep, nu, axis=0), log_w[keep]


def _sum_marginal_cdf(m: int, constraint: EnergyConstraint):
    """CDF of S = sum(nu) under the closed-form balanced law.

    The Beta mixture of ``balanced_sum_law``.  For integer p and q the
    regularized incomplete Beta is a binomial tail, in negative-binomial form
    I_x(p, q) = x^p sum_{r < q} C(p + r - 1, r) (1 - x)^r.  Summed over the
    components Beta(p, a + j + 1), x = (S - m)/L gives x^p times a polynomial
    in 1 - x with positive coefficients, so Horner's rule cancels nothing;
    the same CDF in powers of x has degree 34 at m = 4 and loses every digit
    near x = 1.  Term r sums the components with a + j >= r.  The CDF of an
    array needs two temporaries of its size: Horner's rule runs in place.
    """
    L, a, weights, _ = balanced_sum_law(m, constraint)
    p = m * m
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

    return cdf


def _sum_bin_masses(m: int, constraint: EnergyConstraint, edges) -> np.ndarray:
    """Closed-form masses of S = sum(nu) between consecutive ``edges``, to full precision.

    A bin whose lower edge lies below x = (S - m)/L = 1/2 has the difference
    of ``_sum_marginal_cdf`` as its mass.  Above it that difference cancels
    (the top bin at m = 6, E = 7 reads 0 against 1.5e-21), so the mass is a
    difference of the survival function: 1 - I_x(p, q) = I_y(q, p) with
    y = 1 - x, which over the components Beta(p, a + k + 1) of
    ``balanced_sum_law`` sums to
    SF(x) = y^(a+1) sum_k w_k y^k sum_{r < p} C(a + k + r, r) x^r,
    a sum of positive terms.
    """
    L, a, weights, _ = balanced_sum_law(m, constraint)
    k, r = np.arange(a + 1), np.arange(m * m)
    coef = np.array([[math.comb(a + j + i, i) for i in r] for j in k], dtype=float)
    x = np.clip((edges - m) / L, 0.0, 1.0)
    y = 1.0 - x
    # sum_r C(a + k + r, r) x^r for each edge and k, then y^k and w_k
    sf = y ** (a + 1) * ((y[:, None] ** k) * (x[:, None] ** r @ coef.T) @ weights)
    cdf = _sum_marginal_cdf(m, constraint)(edges)
    return np.where(x[:-1] >= 0.5, sf[:-1] - sf[1:], np.diff(cdf))


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
    is compared with the closed-form balanced law: n = 4 with a 2D
    chi-square of (nu1, nu2) and a KS of nu1 + nu2, every other n with a
    histogram (20 bins at n = 2, 10 otherwise), a chi-square and a KS of
    S = sum(nu).  The proposals are drawn from one generator seeded with
    ``seed``, BLOCK at a time, and each block is reduced as it arrives (see
    ``_report``).  In self-test mode the samples are drawn directly from the
    closed form (unit weights), which exercises the comparison statistics
    under the null.
    """
    m = balanced_half(n)
    rng = np.random.default_rng(seed)
    sizes = [min(BLOCK, count - start) for start in range(0, count, BLOCK)]
    if self_test:
        blocks = ((sample_balanced(m, constraint, k, rng), np.zeros(k)) for k in sizes)
    else:
        blocks = (_pipeline_block(m, constraint, size, rng) for size in sizes)
    metadata = {
        "seed": seed,
        "proposal_count": count,
        "n": n,
        "E_A": constraint.E_A,
        "E_B": constraint.E_B,
        "self_test": self_test,
    }
    return _report(m, constraint, blocks, metadata)


def _expected_probs_2p2(edges, constraint, subgrid=8):
    """Bin masses of the closed-form density via midpoint subsampling."""
    bins = edges.size - 1
    fine = np.linspace(edges[0], edges[-1], bins * subgrid + 1)
    mids = 0.5 * (fine[:-1] + fine[1:])
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    mass = density_2p2(X, Y, constraint) * _cell_volume([fine, fine])
    return mass.reshape(bins, subgrid, bins, subgrid).sum(axis=(1, 3))


def _bin_index(x, edges) -> np.ndarray:
    """np.digitize(x, edges) - 1 clipped to the bins, in place.

    The bins are half-open, the last one closed, as in np.histogram.
    """
    idx = np.digitize(x, edges)
    idx -= 1
    return np.clip(idx, 0, edges.size - 2, out=idx)


def _reduce_blocks(blocks, bin_edges):
    """S = sum(nu), the log-weights and the flat bin index, each block as it arrives.

    The binned coordinates are (nu1, nu2) given two edge vectors and S given
    one.  A run keeps 18 bytes per accepted proposal: S, the log-weight and
    the uint16 index.
    """
    sums, weights, flats = [], [], []
    for values, w in blocks:
        S = functools.reduce(np.add, values.T)
        coordinates = values.T if len(bin_edges) > 1 else [S]
        flat, *rest = (_bin_index(x, edges) for x, edges in zip(coordinates, bin_edges))
        for index, edges in zip(rest, bin_edges[1:]):
            flat *= edges.size - 1
            flat += index
        flats.append(flat.astype(np.uint16))
        sums.append(S)
        weights.append(w)
    S = np.concatenate(sums)
    del sums
    weights = np.concatenate(weights)
    return S, weights, np.concatenate(flats)


def _report(m, constraint, blocks, metadata) -> HistogramReport:
    """Histogram, chi-square and KS of the accepted samples against the closed form.

    ``blocks`` yields the (values, log-weights) of each block of proposals, and
    ``metadata``, which holds at least ``proposal_count``, is completed in
    place.  The edges, fixed by the constraint, the expected bin masses, the
    degenerate floor and the CDF of S are built before the first block is
    read, so an empty support is rejected before any draw.  At m = 2 the
    histogram is of (nu1, nu2) on [1, 2 min(E) - 1]^2, with bin masses from
    the density; at every other m it is of S = sum(nu) on [m, 2 min(E)], with
    exact bin masses from ``_sum_bin_masses``.  Each block is binned as it
    arrives (half-open bins, the last one closed, as in np.histogram).  Three
    bincounts over that flat index give the counts and the per-bin sums of
    the weights and of their squares, which the density and the chi-square
    share; the index is freed before the KS statistic of S sorts the
    sample.  An effective sample size
    below MIN_EXPECTED_PER_BIN per bin of positive expected mass (the bins
    the chi-square can keep; at m = 2 those below nu1 + nu2 = 2 min(E)) is a
    degenerate estimate: the metadata then has ``degenerate`` true and the
    ``ess_floor`` it missed.
    """
    bins = 20 if m == 1 else 10
    top = 2.0 * constraint.min_energy
    cdf = _sum_marginal_cdf(m, constraint)
    if m == 2:
        edges = np.linspace(1.0, top - 1.0, bins + 1)
        bin_edges = [edges, edges]
        expected = _expected_probs_2p2(edges, constraint).ravel()
    else:
        bin_edges = [np.linspace(m, top, bins + 1)]
        expected = _sum_bin_masses(m, constraint, bin_edges[0])
    floor = MIN_EXPECTED_PER_BIN * np.count_nonzero(expected > 0)
    S, weights, flat = _reduce_blocks(blocks, bin_edges)
    accepted = S.size
    count = metadata["proposal_count"]
    if accepted == 0:
        raise RuntimeError(
            f"zero accepted samples out of {count} proposals: none has sum(nu) "
            f"below 2 min(E) = {top:.6g}; raise the count"
        )
    # exponentiated against their maximum, in place: every statistic is
    # invariant to the scale, and with a maximum of 1 no square overflows
    weights -= weights.max()
    np.exp(weights, out=weights)
    total = weights.sum()
    squares = weights**2
    ess = float(total**2 / squares.sum())
    metadata.update(
        sample_count=accepted,
        acceptance_rate=accepted / count,
        effective_sample_size=ess,
        ess_fraction=ess / accepted,
        max_weight_share=float(1.0 / total),
    )
    logger.info(
        "verify pipeline n=%d: %d/%d accepted (ESS %.0f)", 2 * m, accepted, count, ess
    )
    if ess < floor:
        metadata.update(degenerate=True, ess_floor=floor)
    shape = (bins,) * len(bin_edges)
    counts = np.bincount(flat, minlength=expected.size).reshape(shape)
    mass = np.bincount(flat, weights=weights, minlength=expected.size)
    mass2 = np.bincount(flat, weights=squares, minlength=expected.size)
    del flat, squares
    density = mass.reshape(shape) / (total * _cell_volume(bin_edges))
    chi2, dof, p = weighted_chi2(mass, mass2, accepted, expected)
    ks = weighted_ks_statistic(S, weights, cdf)
    comparison = {"ks_statistic": ks, "chi2": chi2, "dof": dof, "p_value": p}
    return HistogramReport(bin_edges, counts, density, comparison, metadata)
