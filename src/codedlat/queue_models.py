"""Analytic queue-length laws for randomized load balancing.

Two stationary laws live here, each a function of two numbers.
``double_exp_mean`` is the mean of the doubly-exponential tail of a
queue fed through d-fold sampling: the chance of seeing r or more
tasks decays like load^(d^r).  ``batch_sampling_pmf`` is the
geometric-type pmf of a queue probed in batches when the probe ratio
sits strictly between one and two, as a plain array over 0..q_max;
``order_stat_expectation`` gives the exact order-statistic
expectations of such a pmf that the non-integral-redundancy bounds are
built from.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import is_count

__all__ = [
    "double_exp_mean",
    "batch_sampling_pmf",
    "order_stat_expectation",
]


def double_exp_mean(d: float, load: float) -> float:
    """E[Q] = sum over r >= 1 of P(Q >= r), with P(Q >= r) = load^(d^r).

    The mean of the queue length whose CCDF is the doubly-exponential
    tail of d-choice dispatch at per-queue load ``load`` for every
    integer r >= 1 (and 1 at r = 0), the tightest valid law under the
    model.  The terms fall doubly exponentially, so the sum stops at
    the first one that no longer changes it.
    """
    if not d > 1.0:
        raise ValueError(f"choice count d must exceed 1, got {d}")
    if not 0.0 < load < 1.0:
        raise ValueError(f"per-queue load must lie in (0, 1), got {load}")
    log_load = math.log(load)
    total, r = 0.0, 1
    while True:
        term = math.exp(d**r * log_load)
        if total + term == total:
            return total
        total += term
        r += 1


def batch_sampling_pmf(lam: float, d: float) -> np.ndarray:
    """Stationary queue pmf for probe ratio 1 < d < 2 at arrival intensity lam.

    Index i holds P(Q = i) for i in 0..q_max, q_max = size - 1 =
    ceil(log((d-1)/(d(1-lam))) / log(lam*d)).  Below q_max the pmf is
    (1-lam)(lam*d)^i, and the final atom carries the residual mass so
    the whole thing is a proper distribution; a residual within 1e-9
    below zero is rounding and clamps to 0, and the sum must still lie
    within 1e-12 of 1.  The resonant point lam*d = 1 is rejected (the
    geometric form degenerates).
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
    total = float(np.sum(pmf))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pmf must sum to 1, got {total} for lam={lam}, d={d}")
    return pmf


def order_stat_expectation(pmf, sample_count: int, rank: int) -> float:
    """E of the rank-th smallest of ``sample_count`` iid draws from ``pmf``.

    ``pmf`` is a nonempty 1-d array of probabilities over 0..q_max that
    sums to 1 within 1e-9.  Uses the tail identity
    E[Q_(rank)] = sum_m P(Q_(rank) >= m) with
    P(Q_(rank) >= m) = P(Binomial(N, F(m-1)) <= rank-1), summed term by
    term from exact binomial coefficients; no sampling involved.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("pmf must be a nonempty 1-d array of probabilities over 0..q_max")
    if np.any(arr < -1e-15) or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("pmf must be nonnegative and sum to 1")
    if not is_count(sample_count, 1):
        raise ValueError(f"sample_count must be a positive integer, got {sample_count!r}")
    n = sample_count
    if not is_count(rank, 1) or rank > n:
        raise ValueError(f"rank must be an integer in 1..{n}, got {rank!r}")
    cdf_below = np.cumsum(arr)[:-1]  # F(m-1) for m = 1..q_max
    if cdf_below.size == 0:
        return 0.0
    f = np.minimum(cdf_below, 1.0)[:, None]
    j = np.arange(rank)
    coef = np.array([math.comb(n, i) for i in j], dtype=float)
    return float(np.sum(coef * f**j * (1.0 - f) ** (n - j)))
