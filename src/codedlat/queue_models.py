"""Analytic queue-length laws for randomized load balancing.

Two stationary models live here.  ``DoubleExpTailModel`` is the
doubly-exponential tail of a queue fed through d-fold sampling: the
chance of seeing r or more tasks decays like load^(d^r).  The batch
sampling model is the geometric-type pmf of a queue probed in batches
when the probe ratio sits strictly between one and two, together with
the exact order-statistic expectations the non-integral-redundancy
bounds are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DoubleExpTailModel",
    "double_exp_ccdf",
    "sample_queue_length",
    "BatchSamplingDist",
    "batch_sampling_pmf",
    "order_stat_expectation",
    "sum_order_stats",
    "pmf_mean",
]


@dataclass(frozen=True)
class DoubleExpTailModel:
    """Tail P(Q >= r) <= c_u * per_queue_load^(d^r) for r >= 1."""

    lam: float
    d: float
    per_queue_load: float
    c_u: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"arrival intensity must lie in (0, 1), got {self.lam}")
        if not self.d > 1.0:
            raise ValueError(f"choice count d must exceed 1, got {self.d}")
        if not 0.0 < self.per_queue_load < 1.0:
            raise ValueError(f"per-queue load must lie in (0, 1), got {self.per_queue_load}")
        if not self.c_u > 0.0:
            raise ValueError(f"tail constant must be positive, got {self.c_u}")


def double_exp_ccdf(model: DoubleExpTailModel, r: float) -> float:
    """Clamped tail value min(1, c_u * load^(d^r)).

    The raw formula is only meaningful for r >= 1; at r = 0 it returns
    the clamped formula value (load, for c_u = 1) rather than the
    trivial 1, and callers that need a genuine CCDF treat r = 0
    specially.  Underflow to exactly 0 for huge r is fine.
    """
    if r < 0:
        raise ValueError(f"queue level must be nonnegative, got {r}")
    exponent = model.d**r * math.log(model.per_queue_load)
    return min(1.0, model.c_u * math.exp(exponent))


def sample_queue_length(model: DoubleExpTailModel, rng: np.random.Generator, size=None):
    """Draw queue lengths whose tail matches ``double_exp_ccdf`` for r >= 1.

    P(Q >= r) = min(1, c_u * load^(d^r)) for every integer r >= 1 and
    P(Q >= 0) = 1, which is the tightest valid CCDF under the model.
    Inverse transform: Q >= r iff ln(U/c_u)/ln(load) >= d^r.
    """
    scalar = size is None
    u = rng.random(1 if scalar else size)
    x = np.log(u / model.c_u) / math.log(model.per_queue_load)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.floor(np.log(np.maximum(x, 1e-300)) / math.log(model.d))
    q = np.where(x < model.d, 0.0, q).astype(np.int64)
    return int(q[0]) if scalar else q


@dataclass(frozen=True, eq=False)
class BatchSamplingDist:
    """Stationary queue pmf under batch probing, truncated at q_max."""

    lam: float
    probe_ratio: float
    q_max: int
    pmf: np.ndarray  # index i = P(Q = i), i in 0..q_max; do not mutate

    def __post_init__(self):
        total = float(np.sum(self.pmf))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1, got {total}")
        if np.any(self.pmf < -1e-15):
            raise ValueError("pmf entries must be nonnegative")


def batch_sampling_pmf(lam: float, d: float) -> BatchSamplingDist:
    """Stationary pmf for probe ratio 1 < d < 2 at arrival intensity lam.

    The support ends at q_max = ceil(log((d-1)/(d(1-lam))) / log(lam*d));
    below it the pmf is (1-lam)(lam*d)^i, and the final atom carries the
    residual mass so the whole thing is a proper distribution.  The
    resonant point lam*d = 1 is rejected (the geometric form degenerates).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"arrival intensity must lie in (0, 1), got {lam}")
    if not 1.0 < d < 2.0:
        raise ValueError(f"probe ratio must lie strictly between 1 and 2, got {d}")
    if abs(lam * d - 1.0) < 1e-12:
        raise ValueError(f"lam*d = 1 is a removable singularity of the pmf; got lam={lam}, d={d}")
    q_max = math.ceil(math.log((d - 1.0) / (d * (1.0 - lam))) / math.log(lam * d))
    if q_max < 1:
        raise ValueError(f"degenerate support (q_max={q_max}) for lam={lam}, d={d}")
    pmf = np.empty(q_max + 1)
    pmf[0] = 1.0 - lam
    for i in range(1, q_max):
        pmf[i] = (1.0 - lam) * (lam * d) ** i
    residual = 1.0 - float(np.sum(pmf[:q_max]))
    if residual < -1e-9:
        raise ValueError(f"negative residual mass {residual} for lam={lam}, d={d}")
    pmf[q_max] = max(residual, 0.0)
    return BatchSamplingDist(lam=lam, probe_ratio=d, q_max=q_max, pmf=pmf)


def _as_pmf(pmf) -> np.ndarray:
    if isinstance(pmf, BatchSamplingDist):
        pmf = pmf.pmf
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("pmf must be a nonempty 1-d array of probabilities over 0..q_max")
    if np.any(arr < -1e-15) or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("pmf must be nonnegative and sum to 1")
    return arr


def pmf_mean(pmf) -> float:
    arr = _as_pmf(pmf)
    return float(np.dot(np.arange(arr.size), arr))


def order_stat_expectation(pmf, sample_count: int, rank: int) -> float:
    """E of the rank-th smallest of ``sample_count`` iid draws from ``pmf``.

    Uses the tail identity E[Q_(rank)] = sum_m P(Q_(rank) >= m) with
    P(Q_(rank) >= m) = P(Binomial(N, F(m-1)) <= rank-1), summed term by
    term from exact binomial coefficients; no sampling involved.
    """
    arr = _as_pmf(pmf)
    n = int(sample_count)
    if n < 1:
        raise ValueError(f"sample count must be positive, got {sample_count}")
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {rank}")
    cdf_below = np.cumsum(arr)[:-1]  # F(m-1) for m = 1..q_max
    if cdf_below.size == 0:
        return 0.0
    f = np.minimum(cdf_below, 1.0)[:, None]
    j = np.arange(rank)
    coef = np.array([math.comb(n, i) for i in j], dtype=float)
    return float(np.sum(coef * f**j * (1.0 - f) ** (n - j)))


def sum_order_stats(pmf, sample_count: int) -> float:
    """Sum over all ranks of E[Q_(rank)], which collapses to N * E[Q]."""
    n = int(sample_count)
    if n < 1:
        raise ValueError(f"sample count must be positive, got {sample_count}")
    return n * pmf_mean(pmf)
