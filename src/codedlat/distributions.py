"""Service-time laws for storage servers.

Four families cover the regimes of interest: ``Exponential`` and
``ShiftedExponential`` admit closed forms everywhere, ``Weibull``
needs the gamma function for moments and a fixed-node trapezoid rule
in log space for its moment generating function, and ``Pareto`` is
polynomially tailed: it has no sub-exponential envelope, and its MGF,
finite for s <= 0 only, takes the same rule.  A degenerate
``Constant`` rounds the set out for control experiments.

All families expose the same free-function surface: ``sample``,
``mean`` / ``moment``, ``mgf``, plus the helpers used by the bounds
layer (``subexp_params``) and by the experiment builders
(``chunk_dist``).  Files have unit mean: ``chunk_dist(family, 1)`` is
the file law and ``chunk_dist(family, k)`` the law of its mean-1/k chunks.
A file D + Exp(1) is the unit-mean file with shift D/(1+D), run at
load lam (1+D), with every latency scaled by 1+D.
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
    "Pareto",
    "ServiceDistribution",
    "SubExpParams",
    "sample",
    "moment",
    "mean",
    "mgf",
    "mgf_domain_sup",
    "chunk_dist",
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


# Cephes coefficients, highest power first: rational P/Q for gamma on [2, 3), Stirling series
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_STIRLING = (7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
             3.47222221605458667310e-3, 8.33333333333482257126e-2)


def _polevl(x: float, coef) -> float:
    ans = 0.0  # Horner's rule in the order of Cephes polevl
    for c in coef:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma for x > 0, ported from Cephes ``Gamma`` (Moshier, 1989).

    ``scipy.special.gamma`` runs the same routine, and the port must stay
    bit-identical to it: the Weibull scales 1/(k Gamma(1 + 1/m)) feed
    every fig4 number, and ``math.gamma`` differs in the last bit on
    most arguments.
    """
    if x >= 171.624376956302725:
        return math.inf
    if x > 33.0:  # Stirling's series
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIRLING)
        if x > 143.01608:  # split the power so that it does not overflow
            v = x ** (0.5 * x - 0.25)
            y = v * (v / math.exp(x))
        else:
            y = x ** (x - 0.5) / math.exp(x)
        return 2.50662827463100050242 * y * w
    z = 1.0  # recur to [2, 3), where the rational P/Q applies
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    return z * _polevl(x - 2.0, _GAMMA_P) / _polevl(x - 2.0, _GAMMA_Q)


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
        return dist.scale**n * _gamma(1.0 + n / dist.shape)
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


def _log_space_integral(h, slopes, v: float, strip: float = 1.0) -> float:
    """Integral over the line of exp(h), for h smooth and unimodal.

    Newton from ``v`` finds the peak as the root of an f, given
    ``slopes(v)`` = (f, f', h''); each caller picks f and v so that the
    iterates move monotonically.  The tails of exp(h) decay at least
    exponentially, so the trapezoid rule on equispaced nodes converges
    exponentially (Trefethen & Weideman, SIAM Review 2014), at a rate
    proportional to the width of the strip about the line in which exp(h)
    still decays: 400 nodes serve the width pi/2 of exp(-e^v), and a strip
    ``strip`` times as wide takes 400 / ``strip``.  The nodes span a window
    whose sides start 9 widths (-h'')^(-1/2) out from the peak and grow by
    half until h lies 40 below the peak.
    """
    for _ in range(100):
        f, slope, curvature = slopes(v)
        v -= f / slope
        if abs(f / slope) <= 1e-12 * max(1.0, abs(v)):
            break
    top, ends = h(v), []
    for side in (-1.0, 1.0):
        reach = 9.0 * (-curvature) ** -0.5
        while h(v + side * reach) > top - 40.0:
            reach *= 1.5
        ends.append(v + side * reach)
    nodes, step = np.linspace(*ends, math.ceil(400 / strip), retstep=True)
    try:
        return math.exp(top + math.log(step * float(np.exp(h(nodes) - top).sum())))
    except OverflowError:
        return math.inf


def mgf(dist: ServiceDistribution, s: float) -> float:
    """Moment generating function E[exp(sX)].

    Closed form for the exponential families; a fixed-node trapezoid
    rule in log space (``_log_space_integral``) for Weibull and Pareto.
    Raises ValueError outside the finiteness region s < ``mgf_domain_sup``.
    """
    if s == 0.0:
        return 1.0
    if s >= mgf_domain_sup(dist):
        raise ValueError(f"MGF of {dist} diverges at s={s} >= {mgf_domain_sup(dist)}")
    if isinstance(dist, Constant):
        return math.exp(s * dist.value)
    if isinstance(dist, (Exponential, ShiftedExponential)):
        return math.exp(s * getattr(dist, "shift", 0.0)) * dist.rate / (dist.rate - s)
    if isinstance(dist, Weibull):
        m, b = dist.shape, dist.scale
        if s > 0 and m > 1.0:
            # stationary point of the exponent; guard astronomically large values
            x_star = b * (s * b / m) ** (1.0 / (m - 1.0))
            if s * x_star - (x_star / b) ** m > 700.0:
                return math.inf
        c = s * b  # u = (x/b)^m is Exp(1); with v = ln u, M(s) integrates exp(h(v))

        def slopes(v):
            q, e = c / m * math.exp(v / m), math.exp(v)
            if c > 0:  # the peak solves v = ln(1 + q), concave in v: Newton climbs to it
                return v - math.log1p(q), 1.0 - q / (m * (1.0 + q)), q / m - e
            # h'(v) = 1 + q - e^v is concave and decreasing, and h'(0) <= 0
            return 1.0 + q - e, q / m - e, q / m - e

        # below shape 1, c e^(v/m) with c < 0 narrows the strip to m pi/2
        return _log_space_integral(lambda v: c * np.exp(v / m) - np.exp(v) + v, slopes, 0.0,
                                   min(m, 1.0))
    if isinstance(dist, Pareto):
        a, c = dist.exponent, -s * dist.minimum
        # x = minimum (1 + e^w): M(s) is a times the integral of exp(h(w)), with
        # h(w) = w - c (1 + e^w) - (a + 1) ln(1 + e^w)

        def slopes(w):  # h' is decreasing, and negative from w = -ln a on
            e = math.exp(w)
            p = e / (1.0 + e)
            curvature = -c * e - (a + 1.0) * p * (1.0 - p)
            return 1.0 - c * e - (a + 1.0) * p, curvature, curvature

        return a * _log_space_integral(
            lambda w: w - c * (1.0 + np.exp(w)) - (a + 1.0) * np.logaddexp(0.0, w),
            slopes, max(0.0, -math.log(a)))
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


def unread_parameter(family: str, shift: float, shape: float) -> str | None:
    """"shift" or "shape" when set off its default (0, 1) but ``family`` does not read it."""
    fam = canonical_family(family)
    if shift != 0.0 and fam != "shifted-exponential":
        return "shift"
    return "shape" if shape != 1.0 and fam not in ("weibull", "pareto") else None


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
        if not shape > 0:
            raise ValueError(f"Weibull shape must be positive, got {shape}")
        return Weibull(shape=shape, scale=1.0 / (k * _gamma(1.0 + 1.0 / shape)))
    if fam == "pareto":
        if shape <= 1.0:
            raise ValueError(f"Pareto tail exponent must exceed 1 for a finite mean, got {shape}")
        return Pareto(exponent=shape, minimum=(shape - 1.0) / (shape * k))
    raise AssertionError(fam)


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
