"""Closed-form latency bounds for split-replicated storage.

The heart of the package: mean and tail latency upper bounds for a
file split k ways with d-fold probing per chunk, zero-load order
statistics, redundant-request latencies, the two bounds for
non-integral probe ratios, and the predicted lower bound on the
latency gain of splitting over plain replication.  Every bound, the
gain prediction included, returns one report type, ``BoundReport``.
Every value is a deterministic function of its arguments: closed
forms, exact sums and quadrature, no sampling.

Log conventions, fixed throughout: terms descending from maximal
inequalities use natural logs; terms descending from the
doubly-exponential queue tail (the level r and its spill-over) use
base-2 logs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dists
from .distributions import (
    ServiceDistribution,
    SubExpParams,
    canonical_family,
    chunk_dist,
    mgf,
    mgf_domain_sup,
)
from .golden import golden_section_min
from .queue_models import batch_sampling_pmf, double_exp_mean, order_stat_expectation

__all__ = [
    "BoundReport",
    "harmonic",
    "maximal_subexp_bound",
    "m_k_bound",
    "residual_moment",
    "mean_latency_bound_exp",
    "mean_latency_bound_general",
    "mean_latency_bound",
    "tail_latency_bound",
    "zero_load_latency",
    "zero_load_gain",
    "redundant_request_latency",
    "bound_I",
    "bound_II",
    "theoretical_gain",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus enough context to recompute it.

    ``branch`` names the active formula (Phi1..Phi4, Unit/Gauss/Exp,
    BoundI-tight, BoundI-loose, BoundII; a gain prediction takes its
    split bound's); ``auxiliary`` carries intermediate quantities
    (level r, spill-over term, the optimizer location, the replicated
    proxy, ...).
    """

    value: float
    branch: str
    auxiliary: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value}")


def harmonic(k: int) -> float:
    """H(k) = sum_{i=1..k} 1/i, with H(0) = 0."""
    if k < 0 or k != int(k):
        raise ValueError(f"harmonic index must be a nonnegative integer, got {k}")
    if k == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, int(k) + 1)))


def maximal_subexp_bound(n_draws: int, params: SubExpParams, mean: float) -> float:
    """Upper bound on E[max of n_draws] for (tau_sq, b) variables.

    max(tau * sqrt(2 ln n), 2 b ln n) + mean; the two branches are the
    Gaussian-dominated and the linear-tail-dominated regimes of the
    maximal inequality.  n_draws = 1 collapses to the mean.
    """
    n = int(n_draws)
    if n < 1:
        raise ValueError(f"need at least one draw, got {n_draws}")
    ln_n = math.log(n)
    return max(math.sqrt(params.tau_sq) * math.sqrt(2.0 * ln_n), 2.0 * params.b * ln_n) + mean


def residual_moment(dist: ServiceDistribution) -> float:
    """Mean of the stationary residual service time, E[X^2] / (2 E[X])."""
    return dists.moment(dist, 2) / (2 * dists.moment(dist, 1))


_COARSE_POINTS = 128


@functools.cache
def m_k_bound(dist: ServiceDistribution, k: int) -> float:
    """Bound on the expected maximum of k stationary residuals.

    min over s > 0 of (1/s) * ln(k^2 (M(s) - 1) / s) where M is the MGF
    of the service law (mean 1/k in the intended use).  A coarse grid
    brackets the minimum, golden-section search polishes it; the
    objective is unimodal on the MGF's finiteness interval for every
    family handled here.  Cached: a pure function of a frozen law and k.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k}")
    k2 = float(k) ** 2
    s_sup = mgf_domain_sup(dist)
    if s_sup <= 0.0:
        raise ValueError(f"{dist} has no finite MGF region; no residual-max envelope")

    def objective(s: float) -> float:
        try:
            m = mgf(dist, s)
        except ValueError:
            return math.inf
        if not math.isfinite(m) or m <= 1.0:
            return math.inf
        return math.log(k2 * (m - 1.0) / s) / s

    if math.isfinite(s_sup):
        grid = s_sup * np.arange(1, _COARSE_POINTS + 1) / (_COARSE_POINTS + 1)
        vals = [objective(s) for s in grid]
    else:
        # geometric grid around 1/mean, widened until the minimum is interior
        center = 1.0 / dists.mean(dist)
        lo_exp, hi_exp = -8, 8
        while True:
            grid = center * 2.0 ** np.linspace(lo_exp, hi_exp, _COARSE_POINTS)
            vals = [objective(s) for s in grid]
            if int(np.argmin(vals)) < len(grid) - 1:
                break
            hi_exp += 4
    i = int(np.argmin(vals))
    lo = grid[i - 1] if i > 0 else grid[0] / 64.0
    hi = grid[i + 1] if i < len(grid) - 1 else grid[-1]
    _s_star, best = golden_section_min(objective, float(lo), float(hi))
    return min(best, vals[i])


def _check_split(k: int, lam: float, strict: bool) -> None:
    """Reject a split count below 2, a load outside (0, 1) and, if strict, lam <= 1/k."""
    if k < 2 or k != int(k):
        raise ValueError(f"split count k must be an integer >= 2, got {k}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"arrival intensity must lie in (0, 1), got {lam}")
    if strict and lam * k <= 1.0:
        raise ValueError(f"bound needs lam > 1/k (got lam={lam}, k={k}); the low-arrival "
                         "regime is covered by the zero-load order statistics instead")


def _queue_part(k: int, lam: float, params: SubExpParams, level_drop: int):
    """Queue part of the mean-latency bounds: (first branch?, Phi, auxiliary).

    The level r = lg(4 lg k) - lg lg(k/lam) - level_drop is where the
    doubly-exponential queue tail falls to 1/k^3 (the general bound drops
    one level: its summands exclude the task in service), and spill =
    2 lg(k/lam) / (4 k^4 lg k) is the mass beyond it.  Phi is
    2 b ln k + r/k + spill when 2 b^2 ln k >= tau^2 r, else
    tau sqrt(2 ln k) sqrt(r) + r/k + spill.
    """
    lg_k = math.log2(k)
    lg_k_over_lam = math.log2(k / lam)
    r = math.log2(4.0 * lg_k) - math.log2(lg_k_over_lam) - level_drop
    spill = 2.0 * lg_k_over_lam / (4.0 * k**4 * lg_k)
    ln_k = math.log(k)
    first = 2.0 * params.b**2 * ln_k >= params.tau_sq * r
    if first:
        phi = 2.0 * params.b * ln_k + r / k + spill
    else:
        phi = math.sqrt(params.tau_sq) * math.sqrt(2.0 * ln_k) * math.sqrt(r) + r / k + spill
    return first, phi, {"queue_level": r, "spill": spill, "miss_prob": k ** (-3.0)}


def mean_latency_bound_exp(k: int, lam: float, *, strict: bool = True) -> BoundReport:
    """Mean latency bound for exponential chunks (rate k), k-way split.

    Phi3 = 2 ln k / k + r/k + spill   when 2 ln k >= r,
    Phi4 = sqrt(2 ln k) sqrt(r) / k + r/k + spill   otherwise,
    with r = lg(4 lg k) - lg lg(k / lam).  This is the general bound's
    queue part at (tau_sq, b) = (1/k^2, 1/k), one queue level higher
    and with no residual term.  ``strict=False`` evaluates
    the same expressions outside the certified region lam > 1/k
    (useful as a conservative reference; downstream users must floor
    the result at the zero-load latency themselves).

    The bound has no replication factor d.  It stays finite as
    lam -> 1: r -> lg(4 lg k) - lg lg k = 2 and spill -> 1/(2 k^4), so
    the limit is 2 ln k / k + 2/k + 1/(2 k^4) for k >= 3 (Phi3) and
    sqrt(ln 2) + 1 + 1/32 = 1.8638 for k = 2 (Phi4), while the mean
    latency of a split system diverges.
    """
    _check_split(k, lam, strict)
    # written out, not subexp_params(Exponential(k)): changing that envelope must not move this
    params = SubExpParams(tau_sq=1.0 / k**2, b=1.0 / k)
    first, phi, aux = _queue_part(k, lam, params, level_drop=0)
    return BoundReport(value=phi, branch="Phi3" if first else "Phi4", auxiliary=aux)


def mean_latency_bound_general(
    k: int,
    lam: float,
    params: SubExpParams,
    m_k: float,
    *,
    strict: bool = True,
) -> BoundReport:
    """Mean latency bound for (tau_sq, b) sub-exponential chunks.

    Queue part: Phi1 = 2 b ln k + r/k + spill when 2 b^2 ln k >= tau^2 r,
    else Phi2 = tau sqrt(2 ln k) sqrt(r) + r/k + spill, with
    r = lg(4 lg k) - lg lg(k/lam) - 1.  The value adds the residual part
    ``m_k`` = M(k), which is ``m_k_bound(chunk, k)`` for the chunk law.
    """
    _check_split(k, lam, strict)
    first, phi, aux = _queue_part(k, lam, params, level_drop=1)
    return BoundReport(value=phi + m_k, branch="Phi1" if first else "Phi2",
                       auxiliary={**aux, "phi": phi, "residual_max": m_k})


def mean_latency_bound(
    family: str,
    k: int,
    lam: float,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    strict: bool = True,
) -> BoundReport:
    """The mean latency bound that fits the service family, k-way split.

    Exponential chunks take ``mean_latency_bound_exp``; every other
    family takes ``mean_latency_bound_general`` with the chunk law's
    sub-exponential envelope and residual-max term M(k) of the chunk law.
    """
    fam = canonical_family(family)
    if fam == "exponential":
        return mean_latency_bound_exp(k, lam, strict=strict)
    chunk = chunk_dist(fam, k, shift=shift, shape=shape)
    return mean_latency_bound_general(
        k, lam, dists.subexp_params(chunk), m_k_bound(chunk, k), strict=strict)


def tail_latency_bound(k: int, lam: float, epsilon: float, t: float) -> BoundReport:
    """Upper bound on P(latency > t) for exponential chunks, k-way split.

    The queue level r = lg(ln(eps/k) / ln(lam/k)) makes the event
    "some chunk queue exceeds r" cost at most eps; on its complement
    the latency is a sum of at most r exponentials per branch, giving a
    Gaussian regime on [r/k, 2r/k] and an exponential regime beyond.
    Below the anchor r/k the concentration step is vacuous and the
    bound clamps to 1.  ``branch`` names the regime (Unit, Gauss, Exp);
    ``auxiliary`` holds r and the anchor.
    """
    _check_split(k, lam, strict=False)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"tail budget must lie in (0, 1), got {epsilon}")
    if not t >= 0.0:  # NaN too
        raise ValueError(f"latency threshold must be nonnegative, got {t}")
    ratio = math.log(epsilon / k) / math.log(lam / k)
    if ratio <= 1.0:
        raise ValueError(
            f"tail budget {epsilon} too large for lam={lam}, k={k}: queue level would be <= 0"
        )
    r = math.log2(ratio)
    anchor = r / k
    aux = {"queue_level": r, "anchor": anchor}
    if t < anchor:
        return BoundReport(1.0, "Unit", aux)
    if t <= 2.0 * anchor:
        gauss = k * math.exp(-(k**2) * (t - anchor) ** 2 / (2.0 * r))
        return BoundReport(min(1.0, gauss + epsilon), "Gauss", aux)
    return BoundReport(min(1.0, k * math.exp(-(k / 2.0) * (t - anchor)) + epsilon), "Exp", aux)


# Beyond this split count the alternating inclusion-exclusion sum of
# zero_load_latency cancels away more than about 1e-8 of its value.
_MAX_ALTERNATING_K = 32


def zero_load_latency(family: str, k: int, *, shift: float = 0.0, shape: float = 1.0) -> float:
    """Expected slowest chunk of a k-way split of a unit-mean file hitting empty servers.

    Exponential: H(k)/k.  Shifted exponential: shift/k + H(k)(1-shift)/k.
    Weibull chunks: inclusion-exclusion over minima,
    E[max of k] = sum_{j=1..k} (-1)^(j+1) C(k, j) E[min of j], where the
    minimum of j draws stays in the family.  The alternating sum
    cancels, so Weibull takes k <= 32.
    """
    fam = canonical_family(family)
    chunk = chunk_dist(fam, k, shift=shift, shape=shape)  # checks k, shift and shape
    h = harmonic(k)
    if fam == "exponential":
        return h / k
    if fam == "shifted-exponential":
        return shift / k + h * (1.0 - shift) / k
    if k > _MAX_ALTERNATING_K:
        raise ValueError(f"{fam} zero-load latency needs k <= {_MAX_ALTERNATING_K}, got {k}")
    k = int(k)
    js = range(1, k + 1)
    # E[min of j]: the min of j draws of Weibull(m, b) is Weibull(m, b j^(-1/m))
    mins = [dists.mean(chunk) * j ** (-1.0 / chunk.shape) for j in js]
    return math.fsum((-1) ** (j + 1) * math.comb(k, j) * m for j, m in zip(js, mins))


def zero_load_gain(family: str, k: int, *, shift: float = 0.0, shape: float = 1.0) -> float:
    """Latency saved by a k-way split over one whole-file replica, empty system.

    The whole-file mean minus the zero-load split latency; 1 - H(k)/k
    for unit-mean exponential files, and exactly 0 at k = 1 for every
    family.
    """
    full = chunk_dist(family, 1, shift=shift, shape=shape)
    return dists.mean(full) - zero_load_latency(family, k, shift=shift, shape=shape)


def redundant_request_latency(k: int, extra: int) -> float:
    """Zero-load mean latency of a (k + extra)-fan-out, k-th-finisher read.

    (H(k + extra) - H(extra)) / k with exponential rate-k chunks; the
    extra = 0 case is the plain split latency H(k)/k.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"needed completions k must be a positive integer, got {k}")
    if extra < 0 or extra != int(extra):
        raise ValueError(f"extra fan-out must be a nonnegative integer, got {extra}")
    return (harmonic(k + int(extra)) - harmonic(int(extra))) / k


def bound_I(lam: float, d: float, k: int, variant: str = "tight") -> BoundReport:
    """Mean latency bound under batch sampling with probe ratio 1 < d < 2.

    tight: H(k) + sum_{l=1..k} E[Q_(l)] / (k - l + 1) over the order
    statistics of k pmf draws; loose: H(k) + k * E[Q].  Unit-mean
    exponential tasks assumed.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"task count k must be a positive integer, got {k}")
    if variant not in ("tight", "loose"):
        raise ValueError(f"variant must be 'tight' or 'loose', got {variant!r}")
    k = int(k)
    pmf = batch_sampling_pmf(lam, d)
    h = harmonic(k)
    if variant == "loose":
        q_mean = float(np.dot(np.arange(pmf.size), pmf))
        return BoundReport(h + k * q_mean, "BoundI-loose",
                           {"q_mean": q_mean, "q_max": pmf.size - 1})
    order_stat_sum = float(np.sum([
        order_stat_expectation(pmf, k, rank) / (k - rank + 1) for rank in range(1, k + 1)]))
    return BoundReport(h + order_stat_sum, "BoundI-tight",
                       {"q_max": pmf.size - 1, "order_stat_sum": order_stat_sum})


def _interp_moments(pmf) -> tuple[float, float]:
    """Mean and variance of the piecewise-linear interpolant of a pmf.

    Atoms at the integers become a polygonal density on [0, q_max]
    (renormalized); each segment integrates in closed form, so the
    moments are exact for the interpolant.  A batch pmf has at least two
    atoms and a positive one at 0, so the interpolant has positive mass.
    """
    arr = np.asarray(pmf, dtype=float)
    a, b = arr[:-1], arr[1:]
    mass = (a + b) / 2.0
    i = np.arange(arr.size - 1, dtype=float)
    first = i * mass + a / 6.0 + b / 3.0
    second = i**2 * mass + 2.0 * i * (a / 6.0 + b / 3.0) + a / 12.0 + b / 4.0
    z = float(mass.sum())
    mu = float(first.sum()) / z
    var = float(second.sum()) / z - mu * mu
    return mu, max(var, 0.0)


def bound_II(lam: float, d: float, k: int) -> BoundReport:
    """Moment-based alternative to bound_I for batch sampling.

    The queue pmf is smoothed into its piecewise-linear interpolant
    with mean mu and variance var; the order-statistic sum is then
    bounded by k * min_z [z + (mu - z + sqrt((mu - z)^2 + var)) / 2],
    minimized by golden-section search on [-q_max, q_max].

    Known defect: that envelope strictly increases in z, so the search
    returns the bracket's lower edge -q_max and the bracket, not the
    envelope, sets the bound.  At fig5's cell (d = 1.4, k = 10) and
    lam = 0.8, 0.85, 0.9 that gives ``z_star`` near -4, -4 and -5 and
    values 22.562, 24.907 and 31.716, above the loose Bound I's
    20.382, 24.798 and 31.605.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"task count k must be a positive integer, got {k}")
    pmf = batch_sampling_pmf(lam, d)
    q_max = pmf.size - 1
    h = harmonic(k)
    mu, var = _interp_moments(pmf)

    def envelope(z: float) -> float:
        return z + 0.5 * (mu - z + math.sqrt((mu - z) ** 2 + var))

    z_star, inner = golden_section_min(envelope, -float(q_max), float(q_max))
    return BoundReport(h + k * inner, "BoundII",
                       {"interp_mean": mu, "interp_var": var, "z_star": z_star, "q_max": q_max})


def theoretical_gain(
    d: int,
    k: int,
    lam: float,
    family: str = "exponential",
    *,
    shift: float = 0.0,
    shape: float = 1.0,
) -> BoundReport:
    """Predicted latency gain of a k-way split over d-fold replication.

    Replicated side: E[sum of Q whole-file services], with Q's CCDF
    the doubly-exponential queue-tail bound at per-queue load lam with
    d choices; by Wald's identity it is E[Q] E[X] =
    E[X] sum_{r>=1} lam^(d^r).  Split side: the mean latency bound
    (exponential form for exponential chunks, the sub-exponential form
    plus the residual-max term otherwise), extrapolated below
    lam = 1/k.  The report's ``branch`` is the split bound's branch and
    ``auxiliary`` holds ``replicated_proxy`` and ``split_bound``, whose
    difference is the value.  The proxy omits the arriving job's own
    service and the split side is an upper bound, so the prediction is
    a loose lower bound on the gain, negative on most of the paper's
    grid: of the 108 fig3a/fig3b/fig4 cells it is positive only at
    fig3a (4,2,2) lam 0.9, (6,3,2) lam 0.9 and (8,4,2) lam 0.8 and 0.9,
    and its minimum is -3.283 (fig4 (9,3,3) lam 0.4).
    """
    if d < 2 or d != int(d):
        raise ValueError(f"replication factor d must be an integer >= 2, got {d}")
    fam = canonical_family(family)
    full = chunk_dist(fam, 1, shift=shift, shape=shape)
    replicated_proxy = dists.mean(full) * double_exp_mean(d, lam)
    split = mean_latency_bound(fam, k, lam, shift=shift, shape=shape, strict=False)
    return BoundReport(replicated_proxy - split.value, split.branch,
                       {"replicated_proxy": replicated_proxy, "split_bound": split.value})
