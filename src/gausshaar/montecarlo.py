"""Monte Carlo machinery: density samplers and shell-conditioned verification.

The verification pipeline reconstructs the conditional eigenvalue density
P(nu | E_A, E_B) from first principles, with one estimator for every n:
propose nu on the bounded support box, weight it by the unconstrained
invariant factor, draw the mixing unitaries of each subsystem from their
invariant measure, and estimate the probability that the subsystem energies
fall in shells of width epsilon around the targets.  The Dirac energy
constraint is replaced by the shell, and the shell probability is averaged
analytically over the interval of squeezing weights compatible with the
shell at fixed mixing, which multiplies the effective sample size by orders
of magnitude without changing the estimand.
Accepted samples carry the residual importance weights.

Work is partitioned into independently seeded streams spawned from a single
seed; merging is associative, so results are deterministic for a fixed
(seed, partitions) pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .densities import (
    EnergyConstraint,
    density_1p1,
    density_2p2,
    sum_mixture_2p2,
    support_1p1,
)
from .haar import sample_haar_unitary, sample_repulsive, vandermonde_repulsion

logger = logging.getLogger(__name__)

MIN_EXPECTED_PER_BIN = 5.0


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
        widths = [np.diff(e) for e in self.bin_edges]
        cell = widths[0]
        for w in widths[1:]:
            cell = np.multiply.outer(cell, w)
        total = float(np.sum(self.normalized_density * cell))
        if self.counts.sum() > 0 and abs(total - 1.0) > 1e-9:
            raise ValueError(f"normalized density integrates to {total}, not 1")


def sample_density_2p2(
    constraint: EnergyConstraint, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw (nu1, nu2) pairs from the closed-form constrained density, exactly.

    In S = nu1 + nu2 and D = nu1 - nu2 the density factors.  (S - 2)/L, with
    L = 2 min(E) - 2, follows the Beta mixture of ``sum_mixture_2p2``: pick a
    component by its weight, then draw that Beta.  Given S, t = D/(S - 2) has
    density 3 t^2 / 2 on [-1, 1], whose CDF (t^3 + 1)/2 inverts to a cube
    root.  Each row costs three draws; nothing is rejected.
    """
    L, weights = sum_mixture_2p2(constraint)
    k = rng.choice(weights.size, size=count, p=weights / weights.sum())
    y = L * rng.beta(4.0, 3.0 + k)
    t = np.cbrt(2.0 * rng.random(count) - 1.0)
    # nu = 1 + y (1 +/- t)/2 keeps both eigenvalues >= 1 under round-off
    return np.column_stack([1.0 + 0.5 * y * (1.0 + t), 1.0 + 0.5 * y * (1.0 - t)])


def sample_submanifold_energy(
    n: int, E: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw nu-vectors from the fixed-energy simplex density of the submanifold.

    The density is prod (nu_h - nu_k)^2 on {nu >= 1, sum(nu) = 2E}.  The
    eigenvalues x of G G^dag, with G an m x m complex Ginibre matrix, form
    the beta = 2 Laguerre ensemble with zero exponent, density
    prod (x_h - x_k)^2 exp(-sum x); the exponential depends on sum(x) alone
    and the squared Vandermonde is homogeneous, so x / sum(x) has density
    prod (y_h - y_k)^2 on the unit simplex.  Scaling by 2E - m and shifting
    by 1 is exact; nothing is rejected.  The coordinates are shuffled because
    the law is of unordered vectors.  Every sample satisfies sum(nu) = 2E to
    round-off.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even number of modes")
    m = n // 2
    width = 2.0 * E - m
    if width < 0:
        raise ValueError("2E < n/2: the energy simplex is empty")
    shape = (count, m, m)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = rng.permuted(np.linalg.eigvalsh(g @ g.conj().transpose(0, 2, 1)), axis=1)
    return 1.0 + width * x / x.sum(axis=1, keepdims=True)


def _subsystem_energies(U: np.ndarray, lam: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Vectorized (1/2) sum |U_hk|^2 lam_h nu_k over a stack of draws."""
    return 0.5 * np.einsum("ihk,ih,ik->i", np.abs(U) ** 2, lam, np.broadcast_to(nu, lam.shape))


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

    Estimates (1/(2 eps)) P(|E(U, lambda, nu) - E| <= eps) with lambda drawn
    from the pairwise-repulsion density on [1, cutoff]^(n/2) and U Haar.  The
    result carries a cutoff-dependent normalization that is shared across nu
    at fixed (E, cutoff, eps), so only ratios are meaningful.  Returns
    (estimate, standard_error).
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even number of modes")
    m = n // 2
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
    if m == 1:
        lam = rng.uniform(1.0, cutoff, size=(count, 1))
    else:
        lam, _ = sample_repulsive(m, 1.0, cutoff, count, rng)
    U = sample_haar_unitary(m, rng, size=count)
    energies = _subsystem_energies(U, lam, nu)
    hits = (np.abs(energies - E) <= shell_width).astype(float)
    estimate = hits.mean() / (2.0 * shell_width)
    stderr = hits.std(ddof=1) / np.sqrt(count) / (2.0 * shell_width)
    return float(estimate), float(stderr)


# ---------------------------------------------------------------------------
# the shell-band estimator


def _shell_band_lambda(c, E, eps, lam_top, rng):
    """Single-sample importance estimate of the lambda shell integral.

    Given per-draw coefficients c (shape (count, m), each entry >= 1 because
    they are stochastic mixtures of nu >= 1), the subsystem energy is
    sum_h lambda_h c_h / 2.  Each lambda_h is drawn uniformly on the exact
    interval compatible with the energy shell, accounting for the worst cases
    of the not-yet-drawn coordinates; the returned weight is the repulsion
    density of the drawn lambda times the product of interval lengths, an
    unbiased estimate (up to a constant shared across nu) of the shell
    probability under lambda ~ prod |lambda_i - lambda_j| on [1, lam_top]^m.
    A weight of zero marks an infeasible proposal.
    """
    count, m = c.shape
    lam = np.empty_like(c)
    w = np.ones(count)
    acc = np.zeros(count)
    suffix = np.concatenate(
        [np.cumsum(c[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((count, 1))], axis=1
    )
    for h in range(m):
        rem = suffix[:, h]
        lo = np.maximum(1.0, (2.0 * (E - eps) - acc - rem * lam_top) / c[:, h])
        hi = np.minimum(lam_top, (2.0 * (E + eps) - acc - rem) / c[:, h])
        length = np.clip(hi - lo, 0.0, None)
        lam[:, h] = lo + rng.random(count) * length
        acc = acc + lam[:, h] * c[:, h]
        w = w * length
    return w * vandermonde_repulsion(lam)


# ---------------------------------------------------------------------------
# weighted statistics


def weighted_ks_statistic(values, weights, cdf) -> float:
    """Kolmogorov-Smirnov statistic of a weighted sample against a CDF."""
    order = np.argsort(values)
    v = np.asarray(values)[order]
    w = np.asarray(weights)[order]
    cum = np.cumsum(w) / w.sum()
    target = cdf(v)
    lower = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(np.abs(cum - target), np.abs(lower - target))))


def weighted_chi2(bin_index, weights, expected_prob) -> tuple[float, int, float]:
    """Chi-square test of weighted bin masses against expected probabilities.

    Per-bin z-scores use the empirical variance sum(w_i^2) of the bin mass;
    bins whose expected effective count falls below a floor are dropped.
    Returns (chi2, dof, p_value).
    """
    n_bins = expected_prob.size
    W = np.bincount(bin_index, weights=weights, minlength=n_bins)[:n_bins]
    W2 = np.bincount(bin_index, weights=np.asarray(weights) ** 2, minlength=n_bins)[:n_bins]
    total = W.sum()
    if total <= 0:
        return float("nan"), 0, float("nan")
    ess = total**2 / W2.sum()
    mean_w = total / len(weights)
    expected = total * expected_prob
    variance = np.maximum(W2, expected * mean_w)
    keep = (expected_prob * ess >= MIN_EXPECTED_PER_BIN) | (W2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = np.where(variance > 0, (W - expected) ** 2 / variance, 0.0)
    chi2 = float(z2[keep].sum())
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


def _pipeline_partition(m, constraint, count, eps, cutoff, rng):
    """One stream of the pipeline, m eigenvalues a side; returns (values, weights).

    nu is proposed on the box [1, 2 min(E)]^m, the support set by each
    subsystem energy being at least sum(nu)/2: uniformly, except at m = 2,
    where the proposal is the closed-form constrained density (any
    support-covering proposal is valid; the weights are then flat only if the
    closed form matches the pipeline law, so the comparison still detects a
    wrong closed form).  The weight is the invariant factor
    prod nu_j^2 prod (nu_h^2 - nu_k^2)^2 over the proposal density, times a
    single-sample estimate of each subsystem's shell probability from the
    mixing matrix |U|^2 and shell-band lambda draws.  For m <= 2 the Haar
    |U|^2 is [[p, 1 - p], [1 - p, p]] with p uniform on (0, 1), so p is drawn
    directly (at m = 1 the mixture is nu itself).  Lambda values above
    2(E + eps) can never reach the shell (the energy is at least half the
    largest lambda, because the mixing coefficients are stochastic mixtures
    of nu >= 1), so the lambda box is clipped there.
    """
    if m == 2:
        nu = sample_density_2p2(constraint, count, rng)
        proposal = density_2p2(nu[:, 0], nu[:, 1], constraint)
    else:
        nu = rng.uniform(1.0, 2.0 * constraint.min_energy, size=(count, m))
        proposal = 1.0  # a constant density cancels in the normalized weights
    sq = nu**2
    w = np.prod(sq, axis=1) * vandermonde_repulsion(sq) ** 2 / proposal
    for E in (constraint.E_A, constraint.E_B):
        lam_top = min(cutoff, 2.0 * (E + eps))
        if m <= 2:
            p = rng.random((count, 1))
            c = p * nu + (1.0 - p) * nu[:, ::-1]
        else:
            U = sample_haar_unitary(m, rng, size=count)
            c = np.einsum("ihk,ik->ih", np.abs(U) ** 2, nu)
        w = w * _shell_band_lambda(c, E, eps, lam_top, rng)
    keep = w > 0
    return nu[keep], w[keep]


def _sum_marginal_cdf(constraint: EnergyConstraint):
    """CDF of nu1 + nu2 under the closed-form constrained density.

    The Beta mixture of ``sum_mixture_2p2``, with each component's CDF in
    closed form: for integer a and b the regularized incomplete Beta is the
    binomial tail I_x(a, b) = sum_{j >= a} C(a+b-1, j) x^j (1-x)^(a+b-1-j),
    here with a + b - 1 = 6 + k for Beta(4, 3 + k).  The mixture is summed
    once into a degree-8 polynomial in x = (S - 2)/L.
    """
    L, weights = sum_mixture_2p2(constraint)
    x = np.polynomial.Polynomial([0.0, 1.0])
    poly = sum(
        weight * math.comb(6 + k, j) * x**j * (1.0 - x) ** (6 + k - j)
        for k, weight in enumerate(weights / weights.sum())
        for j in range(4, 7 + k)
    )
    return lambda v: poly(np.clip((np.asarray(v, dtype=float) - 2.0) / L, 0.0, 1.0))


def _partition_counts(count: int, partitions: int) -> list[int]:
    base, extra = divmod(count, partitions)
    return [base + (i < extra) for i in range(partitions)]


def verify_constrained_density(
    n: int,
    constraint: EnergyConstraint,
    count: int,
    cutoff: float = 10.0,
    seed: int = 0,
    bins: int | None = None,
    partitions: int = 8,
    self_test: bool = False,
) -> HistogramReport:
    """End-to-end reconstruction of P(nu | E_A, E_B) with shell conditioning.

    For n = 2 and n = 4 the report includes KS and chi-square comparisons
    against the closed-form densities; other even n yield a 1D histogram of
    the pooled eigenvalues without comparison.  In self-test mode the samples
    are drawn directly from the closed form (unit weights), which exercises
    the comparison statistics under the null.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even number of modes")
    m = n // 2
    eps = constraint.shell_width
    # each subsystem energy is at least sum(nu)/2 and each nu >= 1
    if 2.0 * constraint.min_energy <= m:
        raise ValueError(
            f"2 min(E_A, E_B) = {2.0 * constraint.min_energy:.6g} must exceed "
            f"n/2 = {m} (empty support)"
        )
    # lambda values above 2(E + eps) can never land in an energy shell, so
    # the cutoff box must reach at least that far not to truncate the law
    needed = 2.0 * (max(constraint.E_A, constraint.E_B) + eps)
    if not self_test and cutoff < needed:
        raise ValueError(
            f"cutoff {cutoff} too small for the energy shell (needs {needed:.3g})"
        )
    if bins is None:
        bins = 20 if m == 1 else 10

    streams = [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(max(partitions, 1))
    ]
    pieces = []
    for rng, part_count in zip(streams, _partition_counts(count, len(streams))):
        if part_count == 0:
            continue
        if self_test:
            if m == 1:
                vals = rng.uniform(*support_1p1(constraint), part_count)
            elif m == 2:
                vals = sample_density_2p2(constraint, part_count, rng)
            else:
                raise ValueError("self-test mode requires n in {2, 4}")
            pieces.append((np.atleast_2d(vals.reshape(part_count, -1)), np.ones(part_count)))
        else:
            pieces.append(
                _pipeline_partition(m, constraint, part_count, eps, cutoff, rng)
            )

    values = np.concatenate([p[0] for p in pieces], axis=0)
    weights = np.concatenate([p[1] for p in pieces])
    accepted = values.shape[0]
    if accepted == 0:
        raise RuntimeError(
            f"zero accepted samples out of {count} proposals "
            f"(shell {eps}, cutoff {cutoff}); widen the shell or raise the cutoff"
        )
    total = weights.sum()
    ess = float(total**2 / (weights**2).sum())
    metadata = {
        "seed": seed,
        "proposal_count": count,
        "sample_count": accepted,
        "cutoff": cutoff,
        "shell_width": eps,
        "acceptance_rate": accepted / count,
        "effective_sample_size": ess,
        "ess_fraction": ess / accepted,
        "max_weight_share": float(weights.max() / total),
        "partitions": len(streams),
        "n": n,
        "E_A": constraint.E_A,
        "E_B": constraint.E_B,
        "self_test": self_test,
    }
    logger.info(
        "verify pipeline n=%d: %d/%d accepted (ESS %.0f)", n, accepted, count, ess
    )

    if m == 1:
        return _report_1d(values[:, 0], weights, constraint, bins, metadata)
    if m == 2:
        return _report_2d(values, weights, constraint, bins, metadata)
    return _report_pooled(values, weights, constraint, bins, metadata)


def _report_1d(values, weights, constraint, bins, metadata) -> HistogramReport:
    lo, top = support_1p1(constraint)
    hi = max(float(values.max()), top)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, edges)
    whist, _ = np.histogram(values, edges, weights=weights)
    density = whist / (weights.sum() * np.diff(edges))

    ref = density_1p1(0.5 * (edges[:-1] + edges[1:]), constraint)
    expected_prob = ref * np.diff(edges)
    idx = np.clip(np.digitize(values, edges) - 1, 0, bins - 1)
    chi2, dof, p = weighted_chi2(idx, weights, expected_prob)
    ks = weighted_ks_statistic(
        values, weights, lambda v: np.clip((v - lo) / (top - lo), 0.0, 1.0)
    )
    comparison = {"ks_statistic": ks, "chi2": chi2, "dof": dof, "p_value": p}
    return HistogramReport([edges], counts, density, comparison, metadata)


def _expected_probs_2p2(edges, constraint, subgrid=8):
    """Bin masses of the closed-form density via midpoint subsampling."""
    bins = edges.size - 1
    fine = np.linspace(edges[0], edges[-1], bins * subgrid + 1)
    mids = 0.5 * (fine[:-1] + fine[1:])
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    dens = density_2p2(X, Y, constraint)
    cell = (np.diff(fine)[:, None]) * (np.diff(fine)[None, :])
    mass = dens * cell
    return mass.reshape(bins, subgrid, bins, subgrid).sum(axis=(1, 3))


def _report_2d(values, weights, constraint, bins, metadata) -> HistogramReport:
    top = 2.0 * constraint.min_energy
    edges = np.linspace(1.0, top - 1.0, bins + 1)
    counts, _, _ = np.histogram2d(values[:, 0], values[:, 1], bins=[edges, edges])
    whist, _, _ = np.histogram2d(
        values[:, 0], values[:, 1], bins=[edges, edges], weights=weights
    )
    cell = np.diff(edges)[:, None] * np.diff(edges)[None, :]
    density = whist / (weights.sum() * cell)

    expected_prob = _expected_probs_2p2(edges, constraint)
    ix = np.clip(np.digitize(values[:, 0], edges) - 1, 0, bins - 1)
    iy = np.clip(np.digitize(values[:, 1], edges) - 1, 0, bins - 1)
    chi2, dof, p = weighted_chi2(ix * bins + iy, weights, expected_prob.ravel())
    ks = weighted_ks_statistic(
        values.sum(axis=1), weights, _sum_marginal_cdf(constraint)
    )
    comparison = {"ks_statistic": ks, "chi2": chi2, "dof": dof, "p_value": p}
    return HistogramReport(
        [edges, edges], counts.astype(int), density, comparison, metadata
    )


def _report_pooled(values, weights, constraint, bins, metadata) -> HistogramReport:
    pooled = values.ravel()
    pooled_w = np.repeat(weights, values.shape[1])
    edges = np.linspace(1.0, float(pooled.max()), bins + 1)
    counts, _ = np.histogram(pooled, edges)
    whist, _ = np.histogram(pooled, edges, weights=pooled_w)
    density = whist / (pooled_w.sum() * np.diff(edges))
    meta = dict(metadata, sample_count=int(counts.sum()))
    return HistogramReport([edges], counts, density, None, meta)
