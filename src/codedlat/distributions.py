"""Service-time laws for storage servers.

Four families cover the regimes of interest: ``Exponential`` and
``ShiftedExponential`` admit closed forms everywhere, ``Weibull``
needs the gamma function for moments and adaptive quadrature for its
moment generating function, and ``Pareto`` is polynomially tailed and
only participates in sampling and moments.  A
degenerate ``Constant`` rounds the set out for control experiments.

All families expose the same free-function surface: ``sample``,
``mean`` / ``moment``, ``mgf``, plus the helpers used by the bounds
layer (``subexp_params``) and by the experiment builders
(``chunk_dist``, ``service_pair``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

__all__ = [
    "Constant",
    "Exponential",
    "ShiftedExponential",
    "Weibull",
    "Pareto",
    "ServiceDistribution",
    "SubExpParams",
    "sample",
    "moment",
    "mean",
    "mgf",
    "mgf_domain_sup",
    "chunk_dist",
    "service_pair",
    "subexp_params",
]


@dataclass(frozen=True)
class Constant:
    """Degenerate law: every draw equals ``value``.

    The zero-variance limit of the other families; handy as a control
    in residual-time experiments.  Sampling consumes no RNG state.
    """

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError(f"value must be positive, got {self.value}")


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class ShiftedExponential:
    """Constant ``shift`` plus an Exponential(rate) tail."""

    shift: float
    rate: float

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class Weibull:
    """Weibull law, density (m/b)(x/b)^(m-1) exp(-(x/b)^m) with m=shape, b=scale."""

    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class Pareto:
    """Pareto law on [minimum, inf) with tail P(X > x) = (minimum/x)^exponent."""

    exponent: float
    minimum: float

    def __post_init__(self):
        if not self.exponent > 0:
            raise ValueError(f"tail exponent must be positive, got {self.exponent}")
        if not self.minimum > 0:
            raise ValueError(f"support minimum must be positive, got {self.minimum}")


ServiceDistribution = Constant | Exponential | ShiftedExponential | Weibull | Pareto


@dataclass(frozen=True)
class SubExpParams:
    """Sub-exponential envelope (tau_sq, b) for a centered MGF bound."""

    tau_sq: float
    b: float

    def __post_init__(self):
        if self.tau_sq < 0 or self.b < 0:
            raise ValueError(f"envelope parameters must be nonnegative: {self}")


def sample(dist: ServiceDistribution, rng: np.random.Generator, size=None):
    """Draw from ``dist`` using ``rng``; scalar when ``size`` is None.

    Identical (seed, call sequence) pairs yield identical draws.
    """
    if isinstance(dist, Constant):
        return dist.value if size is None else np.full(size, dist.value)
    if isinstance(dist, Exponential):
        return rng.exponential(1.0 / dist.rate, size)
    if isinstance(dist, ShiftedExponential):
        return dist.shift + rng.exponential(1.0 / dist.rate, size)
    if isinstance(dist, Weibull):
        return dist.scale * rng.weibull(dist.shape, size)
    if isinstance(dist, Pareto):
        # 1 + Lomax(exponent) is Pareto with unit minimum
        return dist.minimum * (1.0 + rng.pareto(dist.exponent, size))
    raise TypeError(f"not a service distribution: {dist!r}")


def moment(dist: ServiceDistribution, order: int) -> float:
    """Raw moment E[X^order], in closed form for every family.

    Pareto moments of order >= exponent are infinite and raise.
    """
    if order < 0 or order != int(order):
        raise ValueError(f"moment order must be a nonnegative integer, got {order}")
    n = int(order)
    if isinstance(dist, Constant):
        return dist.value**n
    if isinstance(dist, Exponential):
        return math.factorial(n) / dist.rate**n
    if isinstance(dist, ShiftedExponential):
        # binomial expansion of (shift + Y)^n with Y exponential
        return sum(
            math.comb(n, i) * dist.shift ** (n - i) * math.factorial(i) / dist.rate**i
            for i in range(n + 1)
        )
    if isinstance(dist, Weibull):
        return dist.scale**n * float(_gamma(1.0 + n / dist.shape))
    if isinstance(dist, Pareto):
        if dist.exponent <= n:
            raise ValueError(
                f"Pareto moment of order {n} is infinite for tail exponent {dist.exponent}"
            )
        return dist.exponent * dist.minimum**n / (dist.exponent - n)
    raise TypeError(f"not a service distribution: {dist!r}")


def mean(dist: ServiceDistribution) -> float:
    return moment(dist, 1)


def mgf_domain_sup(dist: ServiceDistribution) -> float:
    """Supremum of s with E[exp(sX)] finite (``inf`` when unrestricted)."""
    if isinstance(dist, Constant):
        return math.inf
    if isinstance(dist, (Exponential, ShiftedExponential)):
        return dist.rate
    if isinstance(dist, Weibull):
        if dist.shape > 1.0:
            return math.inf
        if dist.shape == 1.0:
            return 1.0 / dist.scale
        return 0.0
    if isinstance(dist, Pareto):
        return 0.0
    raise TypeError(f"not a service distribution: {dist!r}")


# Quadrature controls for MGFs without closed form.  The upper limit is
# pushed out until the integrand drops below _TAIL_EPS; the integral is
# then evaluated adaptively to _ABS_TOL.
_ABS_TOL = 1e-9
_TAIL_EPS = 1e-12
_LOG_TAIL = math.log(_TAIL_EPS)


def _quad_mgf(log_integrand, lo: float, start: float) -> float:
    hi = max(start, lo + 1.0)
    for _ in range(200):
        if log_integrand(hi) < _LOG_TAIL and log_integrand(hi) <= log_integrand(hi / 2):
            break
        hi *= 2.0
    val, _err = integrate.quad(
        lambda x: math.exp(log_integrand(x)), lo, hi, epsabs=_ABS_TOL, epsrel=1e-10, limit=200
    )
    return val


def mgf(dist: ServiceDistribution, s: float) -> float:
    """Moment generating function E[exp(sX)].

    Closed form for the exponential families; adaptive quadrature for
    Weibull (shape >= 1 required when s > 0) and for Pareto at s < 0.
    Raises ValueError outside the finiteness region.
    """
    if s == 0.0:
        return 1.0
    if isinstance(dist, Constant):
        return math.exp(s * dist.value)
    if isinstance(dist, Exponential):
        if s >= dist.rate:
            raise ValueError(f"MGF diverges at s={s} >= rate={dist.rate}")
        return dist.rate / (dist.rate - s)
    if isinstance(dist, ShiftedExponential):
        if s >= dist.rate:
            raise ValueError(f"MGF diverges at s={s} >= rate={dist.rate}")
        return math.exp(s * dist.shift) * dist.rate / (dist.rate - s)
    if isinstance(dist, Weibull):
        m, b = dist.shape, dist.scale
        if s > 0 and m < 1.0:
            raise ValueError(f"Weibull MGF diverges for s>0 when shape={m} < 1")
        if s > 0 and m == 1.0 and s >= 1.0 / b:
            raise ValueError(f"MGF diverges at s={s} >= 1/scale={1.0 / b}")

        def log_g(x, _s=s, _m=m, _b=b):
            if x <= 0:
                return -math.inf
            u = x / _b
            return _s * x - u**_m + (_m - 1.0) * math.log(u) + math.log(_m / _b)

        if s > 0 and m > 1.0:
            # stationary point of the exponent; guard astronomically large values
            x_star = b * (s * b / m) ** (1.0 / (m - 1.0))
            if s * x_star - (x_star / b) ** m > 700.0:
                return math.inf
            start = 2.0 * max(x_star, b)
        else:
            start = 2.0 * b
        return _quad_mgf(log_g, 0.0, start)
    if isinstance(dist, Pareto):
        if s > 0:
            raise ValueError("Pareto MGF diverges for every s > 0")
        a, x0 = dist.exponent, dist.minimum

        def log_g(x, _s=s, _a=a, _x0=x0):
            return _s * x + math.log(_a) + _a * math.log(_x0) - (_a + 1.0) * math.log(x)

        return _quad_mgf(log_g, x0, 2.0 * x0)
    raise TypeError(f"not a service distribution: {dist!r}")


_FAMILY_ALIASES = {
    "exponential": "exponential",
    "exp": "exponential",
    "shifted-exponential": "shifted-exponential",
    "shifted": "shifted-exponential",
    "shift": "shifted-exponential",
    "weibull": "weibull",
    "pareto": "pareto",
}


def canonical_family(family: str) -> str:
    try:
        return _FAMILY_ALIASES[family.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown distribution family {family!r}") from None


def chunk_dist(
    family: str, k: int, *, shift: float = 0.0, shape: float = 1.0
) -> ServiceDistribution:
    """Family member with mean exactly 1/k, for chunks of a unit-mean file.

    exponential          -> Exponential(rate=k)
    shifted-exponential  -> ShiftedExponential(shift/k, k/(1-shift)), 0 <= shift < 1
    weibull              -> Weibull(shape, scale=1/(k * Gamma(1+1/shape)))
    pareto               -> Pareto(shape, minimum=(shape-1)/(shape*k)), shape > 1
    """
    if k < 1 or k != int(k):
        raise ValueError(f"split count k must be a positive integer, got {k}")
    fam = canonical_family(family)
    if fam == "exponential":
        return Exponential(rate=float(k))
    if fam == "shifted-exponential":
        if not 0.0 <= shift < 1.0:
            raise ValueError(f"shift must lie in [0, 1) for unit mean, got {shift}")
        return ShiftedExponential(shift=shift / k, rate=k / (1.0 - shift))
    if fam == "weibull":
        return Weibull(shape=shape, scale=1.0 / (k * float(_gamma(1.0 + 1.0 / shape))))
    if fam == "pareto":
        if shape <= 1.0:
            raise ValueError(f"Pareto tail exponent must exceed 1 for a finite mean, got {shape}")
        return Pareto(exponent=shape, minimum=(shape - 1.0) / (shape * k))
    raise AssertionError(fam)


def service_pair(
    family: str,
    k: int,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    unit_mean: bool = True,
) -> tuple[ServiceDistribution, ServiceDistribution]:
    """(whole-file law, chunk law) with chunk mean = file mean / k.

    With ``unit_mean`` the file law is normalized to mean one.  The
    alternative keeps the exponential tail at unit rate and adds the
    shift on top (file mean 1 + shift, chunk = shift/k + Exp(k)); it
    exists for the shifted family only, where both conventions are in
    circulation.
    """
    fam = canonical_family(family)
    if unit_mean or fam == "exponential":
        return chunk_dist(fam, 1, shift=shift, shape=shape), chunk_dist(
            fam, k, shift=shift, shape=shape
        )
    if fam != "shifted-exponential":
        raise ValueError(f"additive-shift convention is defined only for shifted family, not {fam}")
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    return (
        ShiftedExponential(shift=shift, rate=1.0),
        ShiftedExponential(shift=shift / k, rate=float(k)),
    )


# Multiplier calibrating the Weibull envelope off its Orlicz-type norm.
_WEIBULL_ENVELOPE_CONST = 6.0


def subexp_params(dist: ServiceDistribution) -> SubExpParams:
    """Sub-exponential envelope (tau_sq, b) used by the latency bounds.

    Exponential(rate r):        (1/r^2, 1/r)
    ShiftedExponential(c, r):   (1 + 1/r^2, 1/r)   [the constant part is
                                budgeted a unit variance proxy and no b]
    Weibull(m >= 1, b):         tau = b_env = 6 * scale * sqrt(Gamma(2/m)/(2m))

    The exponential envelope bounds the centered MGF for s <= 0 only;
    it is the envelope the downstream maximal inequalities are
    calibrated against, not a two-sided certificate.  Pareto has no
    finite envelope and raises.  Constant is the degenerate (0, 0)
    envelope.
    """
    if isinstance(dist, Constant):
        return SubExpParams(tau_sq=0.0, b=0.0)
    if isinstance(dist, Exponential):
        inv = 1.0 / dist.rate
        return SubExpParams(tau_sq=inv * inv, b=inv)
    if isinstance(dist, ShiftedExponential):
        inv = 1.0 / dist.rate
        return SubExpParams(tau_sq=1.0 + inv * inv, b=inv)
    if isinstance(dist, Weibull):
        if dist.shape < 1.0:
            raise ValueError(f"no sub-exponential envelope for Weibull shape {dist.shape} < 1")
        m = dist.shape
        env = _WEIBULL_ENVELOPE_CONST * dist.scale * math.sqrt(_gamma(2.0 / m) / (2.0 * m))
        return SubExpParams(tau_sq=env * env, b=env)
    if isinstance(dist, Pareto):
        raise ValueError("Pareto is heavy tailed and has no sub-exponential envelope")
    raise TypeError(f"not a service distribution: {dist!r}")
