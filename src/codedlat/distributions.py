"""Service-time laws for storage servers.

The paper's three sub-exponential families: ``Exponential`` and
``ShiftedExponential`` admit closed forms everywhere, and ``Weibull``
needs the gamma function for moments and a fixed-node trapezoid rule in
log space for its moment generating function.  A degenerate
``Constant`` rounds the set out for control experiments.

Each law's dataclass holds its whole definition: sampler, raw moment,
MGF domain, MGF, envelope and, for a named family, its names, the
parameters it reads and its mean-1/k member.  The law's methods are
private: the free functions ``sample``, ``mean`` / ``moment``, ``mgf``,
``mgf_domain_sup`` and ``subexp_params`` check their arguments and call
into the law, and ``chunk_dist`` builds one by family name.  Files
have unit mean: ``chunk_dist(family, 1)`` is the file law and
``chunk_dist(family, k)`` the law of its mean-1/k chunks.  A file
D + Exp(1) is the unit-mean file with shift D/(1+D), run at load
lam (1+D), with every latency scaled by 1+D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constant",
    "Exponential",
    "ShiftedExponential",
    "Weibull",
    "ServiceDistribution",
    "SubExpParams",
    "FAMILIES",
    "sample",
    "moment",
    "mean",
    "mgf",
    "mgf_domain_sup",
    "chunk_dist",
    "subexp_params",
]


@dataclass(frozen=True)
class SubExpParams:
    """Sub-exponential envelope (tau_sq, b) for a centered MGF bound."""

    tau_sq: float
    b: float

    def __post_init__(self):
        if self.tau_sq < 0 or self.b < 0:
            raise ValueError(f"envelope parameters must be nonnegative: {self}")


def _gamma(x: float) -> float:
    """``math.gamma``, but ``inf`` where Gamma(x) overflows a float (x > 171.62).

    A Weibull chunk of a tiny shape then gets scale 0 and fails the law's
    own range check instead of raising ``OverflowError``.
    """
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


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

    def _sample(self, rng, size):
        return self.value if size is None else np.full(size, self.value)

    def _moment(self, n: int) -> float:
        return self.value**n

    def _mgf_domain_sup(self) -> float:
        return math.inf

    def _mgf(self, s: float) -> float:
        return math.exp(s * self.value)

    def _subexp_params(self) -> SubExpParams:
        return SubExpParams(tau_sq=0.0, b=0.0)


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (mean ``1/rate``)."""

    rate: float
    names = ("exponential", "exp")
    reads = ()

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @classmethod
    def chunk(cls, k: int, shift: float, shape: float) -> Exponential:
        return cls(rate=float(k))

    def _sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def _moment(self, n: int) -> float:
        return math.factorial(n) / self.rate**n

    def _mgf_domain_sup(self) -> float:
        return self.rate

    def _mgf(self, s: float) -> float:
        return self.rate / (self.rate - s)

    def _subexp_params(self) -> SubExpParams:
        inv = 1.0 / self.rate
        return SubExpParams(tau_sq=inv * inv, b=inv)


@dataclass(frozen=True)
class ShiftedExponential:
    """Constant ``shift`` plus an Exponential(rate) tail."""

    shift: float
    rate: float
    names = ("shifted-exponential", "shifted", "shift")
    reads = ("shift",)

    def __post_init__(self):
        if self.shift < 0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @classmethod
    def chunk(cls, k: int, shift: float, shape: float) -> ShiftedExponential:
        if not 0.0 <= shift < 1.0:
            raise ValueError(f"shift must lie in [0, 1) for unit mean, got {shift}")
        return cls(shift=shift / k, rate=k / (1.0 - shift))

    def _sample(self, rng, size):
        return self.shift + rng.exponential(1.0 / self.rate, size)

    def _moment(self, n: int) -> float:
        # binomial expansion of (shift + Y)^n with Y exponential
        return sum(
            math.comb(n, i) * self.shift ** (n - i) * math.factorial(i) / self.rate**i
            for i in range(n + 1)
        )

    def _mgf_domain_sup(self) -> float:
        return self.rate

    def _mgf(self, s: float) -> float:
        return math.exp(s * self.shift) * self.rate / (self.rate - s)

    def _subexp_params(self) -> SubExpParams:
        inv = 1.0 / self.rate
        return SubExpParams(tau_sq=1.0 + inv * inv, b=inv)


# Multiplier calibrating the Weibull envelope off its Orlicz-type norm.
_WEIBULL_ENVELOPE_CONST = 6.0


@dataclass(frozen=True)
class Weibull:
    """Weibull law, density (m/b)(x/b)^(m-1) exp(-(x/b)^m) with m=shape, b=scale."""

    shape: float
    scale: float
    names = ("weibull",)
    reads = ("shape",)

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if math.isinf(self.shape) or math.isinf(self.scale):
            raise ValueError(f"shape and scale must be finite, got {self.shape}, {self.scale}")

    @classmethod
    def chunk(cls, k: int, shift: float, shape: float) -> Weibull:
        if not shape > 0:
            raise ValueError(f"Weibull shape must be positive, got {shape}")
        return cls(shape=shape, scale=1.0 / (k * _gamma(1.0 + 1.0 / shape)))

    def _sample(self, rng, size):
        return self.scale * rng.weibull(self.shape, size)

    def _moment(self, n: int) -> float:
        return self.scale**n * _gamma(1.0 + n / self.shape)

    def _mgf_domain_sup(self) -> float:
        if self.shape > 1.0:
            return math.inf
        if self.shape == 1.0:
            return 1.0 / self.scale
        return 0.0

    def _mgf(self, s: float) -> float:
        m, b = self.shape, self.scale
        if s > 0 and m > 1.0:
            # stationary point of the exponent; guard astronomically large values
            x_star = b * (s * b / m) ** (1.0 / (m - 1.0))
            if s * x_star - (x_star / b) ** m > 700.0:
                return math.inf
        # u = (x/b)^m is Exp(1); with v = ln u, M(s) integrates exp(h(v)) over the line,
        # h(v) = c e^(v/m) - e^v + v smooth and unimodal.  The tails of exp(h) decay at least
        # exponentially, so the trapezoid rule on equispaced nodes converges exponentially
        # (Trefethen & Weideman, SIAM Review 2014), at a rate proportional to the width of
        # the strip about the line in which exp(h) still decays: 400 nodes serve the width
        # pi/2 of exp(-e^v), and below shape 1, c e^(v/m) with c < 0 narrows the strip to
        # m pi/2, which takes 400 / m.  Newton from v = 0 finds the peak.
        c = s * b

        def h(v):
            return c * np.exp(v / m) - np.exp(v) + v

        v = 0.0
        for _ in range(100):
            q, e = c / m * math.exp(v / m), math.exp(v)
            if c > 0:  # the peak solves v = ln(1 + q), concave in v: Newton climbs to it
                f, slope, curvature = v - math.log1p(q), 1.0 - q / (m * (1.0 + q)), q / m - e
            else:  # h'(v) = 1 + q - e^v is concave and decreasing, and h'(0) <= 0
                f, slope, curvature = 1.0 + q - e, q / m - e, q / m - e
            v -= f / slope
            if abs(f / slope) <= 1e-12 * max(1.0, abs(v)):
                break
        # the window's sides start 9 widths (-h'')^(-1/2) out from the peak and grow by
        # half until h lies 40 below the peak
        top, ends = h(v), []
        for side in (-1.0, 1.0):
            reach = 9.0 * (-curvature) ** -0.5
            while h(v + side * reach) > top - 40.0:
                reach *= 1.5
            ends.append(v + side * reach)
        nodes, step = np.linspace(*ends, math.ceil(400 / min(m, 1.0)), retstep=True)
        try:
            return math.exp(top + math.log(step * float(np.exp(h(nodes) - top).sum())))
        except OverflowError:
            return math.inf

    def _subexp_params(self) -> SubExpParams:
        m = self.shape
        if m < 1.0:
            raise ValueError(f"no sub-exponential envelope for Weibull shape {m} < 1")
        env = _WEIBULL_ENVELOPE_CONST * self.scale * math.sqrt(_gamma(2.0 / m) / (2.0 * m))
        return SubExpParams(tau_sq=env * env, b=env)


ServiceDistribution = Constant | Exponential | ShiftedExponential | Weibull


def sample(dist: ServiceDistribution, rng: np.random.Generator, size=None):
    """Draw from ``dist`` using ``rng``; scalar when ``size`` is None.

    Identical (seed, call sequence) pairs yield identical draws.
    """
    return dist._sample(rng, size)


def moment(dist: ServiceDistribution, order: int) -> float:
    """Raw moment E[X^order], in closed form for every family."""
    if order < 0 or order != int(order):
        raise ValueError(f"moment order must be a nonnegative integer, got {order}")
    return dist._moment(int(order))


def mean(dist: ServiceDistribution) -> float:
    return moment(dist, 1)


def mgf_domain_sup(dist: ServiceDistribution) -> float:
    """Supremum of s with E[exp(sX)] finite (``inf`` when unrestricted)."""
    return dist._mgf_domain_sup()


def mgf(dist: ServiceDistribution, s: float) -> float:
    """Moment generating function E[exp(sX)].

    Closed form for the exponential families; a fixed-node trapezoid
    rule in log space for Weibull.  Raises ValueError outside the
    finiteness region s < ``mgf_domain_sup``.
    """
    if s == 0.0:
        return 1.0
    if s >= mgf_domain_sup(dist):
        raise ValueError(f"MGF of {dist} diverges at s={s} >= {mgf_domain_sup(dist)}")
    return dist._mgf(s)


def subexp_params(dist: ServiceDistribution) -> SubExpParams:
    """Sub-exponential envelope (tau_sq, b) used by the latency bounds.

    Exponential(rate r):        (1/r^2, 1/r)
    ShiftedExponential(c, r):   (1 + 1/r^2, 1/r)   [the constant part is
                                budgeted a unit variance proxy and no b]
    Weibull(m >= 1, b):         tau = b_env = 6 * scale * sqrt(Gamma(2/m)/(2m))

    The exponential envelope bounds the centered MGF for s <= 0 only;
    it is the envelope the downstream maximal inequalities are
    calibrated against, not a two-sided certificate.  Weibull below
    shape 1 has no envelope and raises.  Constant is the degenerate
    (0, 0) envelope.
    """
    return dist._subexp_params()


# every accepted family name -> its law; the law's first name is canonical, its ``reads``
# names the parameters of (shift, shape) it reads, and ``chunk`` builds its mean-1/k member
_FAMILIES = {name: law for law in (Exponential, ShiftedExponential, Weibull) for name in law.names}
FAMILIES = tuple(name for name, law in _FAMILIES.items() if name == law.names[0])


def canonical_family(family: str) -> str:
    try:
        return _FAMILIES[family.strip().lower()].names[0]
    except KeyError:
        raise ValueError(f"unknown distribution family {family!r} "
                         f"(expected one of {', '.join(FAMILIES)})") from None


def unread_parameter(family: str, shift: float, shape: float) -> str | None:
    """"shift" or "shape" when set off its default (0, 1) but ``family`` does not read it."""
    reads = _FAMILIES[canonical_family(family)].reads
    if shift != 0.0 and "shift" not in reads:
        return "shift"
    return "shape" if shape != 1.0 and "shape" not in reads else None


def chunk_dist(
    family: str, k: int, *, shift: float = 0.0, shape: float = 1.0
) -> ServiceDistribution:
    """Family member with mean exactly 1/k, for chunks of a unit-mean file.

    exponential          -> Exponential(rate=k)
    shifted-exponential  -> ShiftedExponential(shift/k, k/(1-shift)), 0 <= shift < 1
    weibull              -> Weibull(shape, scale=1/(k * Gamma(1+1/shape)))

    A parameter the family does not read is ignored here;
    ``unread_parameter`` is what rejects it.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"split count k must be a positive integer, got {k}")
    return _FAMILIES[canonical_family(family)].chunk(k, shift, shape)
