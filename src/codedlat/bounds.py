"""Closed-form latency bounds for split-replicated storage.

The heart of the package: mean and tail latency upper bounds for a
file split k ways with d-fold probing per chunk, zero-load order
statistics, redundant-request latencies, the two bounds for
non-integral probe ratios, and the Monte-Carlo lower bound on the
latency gain of splitting over plain replication.

Log conventions, fixed throughout: terms descending from maximal
inequalities use natural logs; terms descending from the
doubly-exponential queue tail (the level r and its spill-over) use
base-2 logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dists
from .distributions import (
    Exponential,
    ServiceDistribution,
    SubExpParams,
    canonical_family,
    chunk_dist,
    mgf,
    mgf_domain_sup,
)
from .golden import golden_section_min
from .queue_models import (
    BatchSamplingDist,
    DoubleExpTailModel,
    batch_sampling_pmf,
    order_stat_expectation,
    pmf_mean,
    sample_queue_length,
    sum_order_stats,
)

__all__ = [
    "BoundReport",
    "GainBound",
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

    ``branch`` names the active formula (Phi1..Phi4, BoundI-tight,
    BoundI-loose, BoundII); ``inputs`` echoes the call, ``auxiliary``
    carries intermediate quantities (level r, spill-over term, the
    optimizer location, ...).
    """

    value: float
    branch: str
    inputs: dict = field(default_factory=dict)
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


def residual_moment(dist: ServiceDistribution, order: int = 1) -> float:
    """n-th moment of the stationary residual service time.

    E[R^n] = E[X^(n+1)] / ((n+1) E[X]); the n = 1 case is the familiar
    E[X^2] / (2 E[X]).
    """
    if order < 1 or order != int(order):
        raise ValueError(f"residual moment order must be a positive integer, got {order}")
    n = int(order)
    return dists.moment(dist, n + 1) / ((n + 1) * dists.moment(dist, 1))


_GOLDEN_TOL = 1e-6
_COARSE_POINTS = 128


def m_k_bound(dist: ServiceDistribution, k: int) -> float:
    """Bound on the expected maximum of k stationary residuals.

    min over s > 0 of (1/s) * ln(k^2 (M(s) - 1) / s) where M is the MGF
    of the service law (mean 1/k in the intended use).  A coarse grid
    brackets the minimum, golden-section search polishes it; the
    objective is unimodal on the MGF's finiteness interval for every
    family handled here.
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
    _s_star, best = golden_section_min(objective, float(lo), float(hi), rel_tol=_GOLDEN_TOL)
    return min(best, vals[i])


def _split_levels(k: int, lam: float, strict: bool):
    """Shared plumbing for the mean-latency bounds.

    Returns (r_exp, spill) where r_exp = lg(4 lg k) - lg lg (k/lam) is
    the queue level that the doubly-exponential tail exceeds with
    probability at most 1/k^3, and spill = 2 lg(k/lam) / (4 k^4 lg k)
    is the mass beyond it.  The general bound uses r_exp - 1 (its summands
    exclude the task in service).
    """
    if k < 2 or k != int(k):
        raise ValueError(f"split count k must be an integer >= 2, got {k}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"arrival intensity must lie in (0, 1), got {lam}")
    if strict and lam * k <= 1.0:
        raise ValueError(
            f"bound needs lam > 1/k (got lam={lam}, k={k}); the low-arrival regime "
            "is covered by the zero-load order statistics instead"
        )
    lg_k = math.log2(k)
    lg_k_over_lam = math.log2(k / lam)
    if lg_k_over_lam <= 0.0 or 4.0 * lg_k <= 0.0:
        raise ValueError(f"inner logs must be positive (k={k}, lam={lam})")
    r_exp = math.log2(4.0 * lg_k) - math.log2(lg_k_over_lam)
    spill = 2.0 * lg_k_over_lam / (4.0 * k**4 * lg_k)
    return r_exp, spill


def mean_latency_bound_exp(k: int, lam: float, *, strict: bool = True) -> BoundReport:
    """Mean latency bound for exponential chunks (rate k), k-way split.

    Phi3 = 2 ln k / k + r/k + spill   when 2 ln k >= r,
    Phi4 = sqrt(2 ln k) sqrt(r) / k + r/k + spill   otherwise,
    with r = lg(4 lg k) - lg lg(k / lam).  ``strict=False`` evaluates
    the same expressions outside the certified region lam > 1/k
    (useful as a conservative reference; downstream users must floor
    the result at the zero-load latency themselves).
    """
    r_exp, spill = _split_levels(k, lam, strict)
    ln_k = math.log(k)
    if 2.0 * ln_k >= r_exp:
        branch = "Phi3"
        value = 2.0 * ln_k / k + r_exp / k + spill
    else:
        branch = "Phi4"
        value = math.sqrt(2.0 * ln_k) * math.sqrt(r_exp) / k + r_exp / k + spill
    return BoundReport(
        value=value,
        branch=branch,
        inputs={"k": k, "lam": lam},
        auxiliary={"queue_level": r_exp, "spill": spill, "miss_prob": k ** (-3.0)},
    )


def mean_latency_bound_general(
    k: int,
    lam: float,
    params: SubExpParams,
    *,
    m_k: float | None = None,
    dist: ServiceDistribution | None = None,
    strict: bool = True,
) -> BoundReport:
    """Mean latency bound for (tau_sq, b) sub-exponential chunks.

    Queue part: Phi1 = 2 b ln k + r/k + spill when 2 b^2 ln k >= tau^2 r,
    else Phi2 = tau sqrt(2 ln k) sqrt(r) + r/k + spill, with
    r = lg(4 lg k) - lg lg(k/lam) - 1.  The residual part M(k) comes
    from ``m_k`` or is computed from ``dist`` via ``m_k_bound``; the
    reported value is their sum.
    """
    r_exp, spill = _split_levels(k, lam, strict)
    r_gen = r_exp - 1.0
    if m_k is None:
        if dist is None:
            raise ValueError("supply either a residual-max bound m_k or the chunk distribution")
        m_k = m_k_bound(dist, k)
    ln_k = math.log(k)
    tau = math.sqrt(params.tau_sq)
    if 2.0 * params.b**2 * ln_k >= params.tau_sq * r_gen:
        branch = "Phi1"
        phi = 2.0 * params.b * ln_k + r_gen / k + spill
    else:
        branch = "Phi2"
        phi = tau * math.sqrt(2.0 * ln_k) * math.sqrt(r_gen) + r_gen / k + spill
    return BoundReport(
        value=phi + m_k,
        branch=branch,
        inputs={"k": k, "lam": lam, "tau_sq": params.tau_sq, "b": params.b},
        auxiliary={
            "queue_level": r_gen,
            "spill": spill,
            "phi": phi,
            "residual_max": m_k,
            "miss_prob": k ** (-3.0),
        },
    )


def mean_latency_bound(
    family: str,
    k: int,
    lam: float,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    m_k: float | None = None,
    strict: bool = True,
) -> BoundReport:
    """The mean latency bound that fits the service family, k-way split.

    Exponential chunks take ``mean_latency_bound_exp``; every other
    family takes ``mean_latency_bound_general`` with the chunk law's
    sub-exponential envelope and residual-max term M(k) (``m_k``, or
    computed from the chunk law).
    """
    fam = canonical_family(family)
    if fam == "exponential":
        return mean_latency_bound_exp(k, lam, strict=strict)
    chunk = chunk_dist(fam, k, shift=shift, shape=shape)
    return mean_latency_bound_general(
        k, lam, dists.subexp_params(chunk), m_k=m_k, dist=chunk, strict=strict)


def tail_latency_bound(k: int, lam: float, epsilon: float, t: float) -> float:
    """Upper bound on P(latency > t) for exponential chunks, k-way split.

    The queue level r = lg(lg(eps/k) / lg(lam/k)) makes the event
    "some chunk queue exceeds r" cost at most eps; on its complement
    the latency is a sum of at most r exponentials per branch, giving a
    Gaussian regime on [r/k, 2r/k] and an exponential regime beyond.
    Below r/k the concentration step is vacuous and the bound clamps
    to 1.
    """
    if k < 2 or k != int(k):
        raise ValueError(f"split count k must be an integer >= 2, got {k}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"arrival intensity must lie in (0, 1), got {lam}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"tail budget must lie in (0, 1), got {epsilon}")
    if t < 0.0:
        raise ValueError(f"latency threshold must be nonnegative, got {t}")
    ratio = math.log(epsilon / k) / math.log(lam / k)
    if ratio <= 1.0:
        raise ValueError(
            f"tail budget {epsilon} too large for lam={lam}, k={k}: queue level would be <= 0"
        )
    r = math.log2(ratio)
    anchor = r / k
    if t < anchor:
        return 1.0
    if t <= 2.0 * anchor:
        return min(1.0, k * math.exp(-(k**2) * (t - anchor) ** 2 / (2.0 * r)) + epsilon)
    return min(1.0, k * math.exp(-(k / 2.0) * (t - anchor)) + epsilon)


_MC_SAMPLES = 200_000


def zero_load_latency(
    family: str,
    k: int,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    unit_mean: bool = True,
    rng=None,
    samples: int = _MC_SAMPLES,
) -> float:
    """Expected slowest chunk of a k-way split hitting empty servers.

    Exponential: H(k)/k.  Shifted exponential, unit-mean convention:
    shift/k + H(k)(1-shift)/k; additive convention: shift/k + H(k)/k.
    Other families fall back to Monte Carlo over ``samples`` draws of
    the chunk law (deterministic under a fixed ``rng`` seed).
    """
    if k < 1 or k != int(k):
        raise ValueError(f"split count must be a positive integer, got {k}")
    fam = canonical_family(family)
    h = harmonic(k)
    if fam == "exponential":
        return h / k
    if fam == "shifted-exponential":
        if unit_mean:
            if not 0.0 <= shift < 1.0:
                raise ValueError(f"unit-mean shift must lie in [0, 1), got {shift}")
            return shift / k + h * (1.0 - shift) / k
        return shift / k + h / k
    _, chunk = dists.service_pair(fam, k, shift=shift, shape=shape, unit_mean=unit_mean)
    if k == 1:
        return dists.mean(chunk)
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(0 if rng is None else int(rng))
    draws = dists.sample(chunk, rng, (int(samples), int(k)))
    return float(draws.max(axis=1).mean())


def zero_load_gain(
    family: str,
    k: int,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    unit_mean: bool = True,
    rng=None,
    samples: int = _MC_SAMPLES,
) -> float:
    """Latency saved by a k-way split over one whole-file replica, empty system.

    The whole-file mean minus the zero-load split latency; 1 - H(k)/k
    for unit-mean exponential files, and exactly 0 at k = 1 for every
    family.
    """
    full, _ = dists.service_pair(family, k, shift=shift, shape=shape, unit_mean=unit_mean)
    return dists.mean(full) - zero_load_latency(
        family, k, shift=shift, shape=shape, unit_mean=unit_mean, rng=rng, samples=samples
    )


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


def bound_I(
    lam: float, d: float, k: int, variant: str = "tight", sample_count: int | None = None
) -> BoundReport:
    """Mean latency bound under batch sampling with probe ratio 1 < d < 2.

    tight: H(k) + sum_{l=1..k} E[Q_(l)] / (k - l + 1) over the order
    statistics of ``sample_count`` pmf draws (default k); loose:
    H(k) + sample_count * E[Q].  Unit-mean exponential tasks assumed.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"task count k must be a positive integer, got {k}")
    if variant not in ("tight", "loose"):
        raise ValueError(f"variant must be 'tight' or 'loose', got {variant!r}")
    n = int(sample_count) if sample_count is not None else int(k)
    if n < k:
        raise ValueError(f"sample count {n} must be at least k={k}")
    dist = batch_sampling_pmf(lam, d)
    h = harmonic(k)
    if variant == "loose":
        value = h + sum_order_stats(dist, n)
        aux = {"q_mean": pmf_mean(dist), "q_max": dist.q_max, "sample_count": n}
    else:
        contributions = [
            order_stat_expectation(dist, n, rank) / (k - rank + 1) for rank in range(1, k + 1)
        ]
        value = h + float(np.sum(contributions))
        aux = {"q_max": dist.q_max, "sample_count": n, "order_stat_sum": float(np.sum(contributions))}
    return BoundReport(
        value=value,
        branch=f"BoundI-{variant}",
        inputs={"lam": lam, "d": d, "k": k},
        auxiliary=aux,
    )


def _interp_moments(pmf) -> tuple[float, float]:
    """Mean and variance of the piecewise-linear interpolant of a pmf.

    Atoms at the integers become a polygonal density on [0, q_max]
    (renormalized); each segment integrates in closed form, so the
    moments are exact for the interpolant.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.size == 1:
        return 0.0, 0.0
    a, b = arr[:-1], arr[1:]
    mass = (a + b) / 2.0
    i = np.arange(arr.size - 1, dtype=float)
    first = i * mass + a / 6.0 + b / 3.0
    second = i**2 * mass + 2.0 * i * (a / 6.0 + b / 3.0) + a / 12.0 + b / 4.0
    z = float(mass.sum())
    if z <= 0.0:
        return 0.0, 0.0
    mu = float(first.sum()) / z
    var = float(second.sum()) / z - mu * mu
    return mu, max(var, 0.0)


def bound_II(lam: float, d: float, k: int) -> BoundReport:
    """Moment-based alternative to bound_I for batch sampling.

    The queue pmf is smoothed into its piecewise-linear interpolant
    with mean mu and variance var; the order-statistic sum is then
    bounded by k * min_z [z + (mu - z + sqrt((mu - z)^2 + var)) / 2],
    minimized by golden-section search on [-q_max, q_max].
    """
    if k < 1 or k != int(k):
        raise ValueError(f"task count k must be a positive integer, got {k}")
    dist = batch_sampling_pmf(lam, d)
    h = harmonic(k)
    mu, var = _interp_moments(dist.pmf)
    if dist.q_max == 0 or (mu == 0.0 and var == 0.0):
        return BoundReport(
            value=h,
            branch="BoundII",
            inputs={"lam": lam, "d": d, "k": k},
            auxiliary={"interp_mean": mu, "interp_var": var, "z_star": 0.0, "q_max": dist.q_max},
        )

    def envelope(z: float) -> float:
        return z + 0.5 * (mu - z + math.sqrt((mu - z) ** 2 + var))

    z_star, inner = golden_section_min(
        envelope, -float(dist.q_max), float(dist.q_max), rel_tol=_GOLDEN_TOL
    )
    return BoundReport(
        value=h + k * inner,
        branch="BoundII",
        inputs={"lam": lam, "d": d, "k": k},
        auxiliary={"interp_mean": mu, "interp_var": var, "z_star": z_star, "q_max": dist.q_max},
    )


@dataclass(frozen=True)
class GainBound:
    """Predicted gain of splitting over replication, with its MC error.

    ``replicated_proxy`` is the Monte-Carlo estimate of the expected
    total service of the jobs an arriving request finds queued under
    d-choice dispatch; the prediction subtracts the split side's mean
    latency bound from it.
    """

    value: float
    std_err: float
    replicated_proxy: float
    split_bound: BoundReport


def theoretical_gain(
    d: int,
    k: int,
    lam: float,
    family: str = "exponential",
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    seed: int = 0,
    samples: int = _MC_SAMPLES,
    m_k: float | None = None,
) -> GainBound:
    """Predicted latency gain of a k-way split over d-fold replication.

    Replicated side: Monte Carlo of E[sum of Q whole-file services],
    Q drawn by treating the doubly-exponential queue-tail bound as an
    exact CCDF at per-queue load lam with d choices.  Split side: the
    mean latency bound (exponential form for exponential chunks, the
    sub-exponential form plus the residual-max term otherwise),
    extrapolated below lam = 1/k.  Because the proxy omits the
    arriving job's own service while the sampled tail is fatter than
    the queue a d-choice job actually joins, the two effects offset
    and the difference tracks the simulated gain from below across the
    stable-load range.  ``std_err`` is the Monte-Carlo error of the
    replicated side; ``m_k`` is passed on to the general mean bound.
    """
    if d < 2 or d != int(d):
        raise ValueError(f"replication factor d must be an integer >= 2, got {d}")
    fam = canonical_family(family)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(90,)))
    model = DoubleExpTailModel(lam=lam, d=float(d), per_queue_load=lam)
    q = sample_queue_length(model, rng, int(samples))
    full, _ = dists.service_pair(fam, k, shift=shift, shape=shape)
    pool = dists.sample(full, rng, int(q.sum()))
    csum = np.concatenate(([0.0], np.cumsum(pool)))
    ends = np.cumsum(q)
    sums = csum[ends] - csum[ends - q]
    replicated_proxy = float(sums.mean())
    std_err = float(sums.std(ddof=1) / math.sqrt(len(sums)))

    report = mean_latency_bound(fam, k, lam, shift=shift, shape=shape, m_k=m_k, strict=False)
    return GainBound(
        value=replicated_proxy - report.value,
        std_err=std_err,
        replicated_proxy=replicated_proxy,
        split_bound=report,
    )
