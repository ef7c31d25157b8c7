import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedlat.distributions import (
    Constant,
    Exponential,
    ShiftedExponential,
    SubExpParams,
    Weibull,
    _gamma,
    canonical_family,
    chunk_dist,
    mean,
    mgf,
    mgf_domain_sup,
    moment,
    sample,
    subexp_params,
)

RNG_SEED = 20240611


def test_closed_form_moments():
    assert mean(Exponential(rate=2.0)) == pytest.approx(0.5)
    assert moment(Exponential(rate=2.0), 2) == pytest.approx(0.5)
    assert moment(Exponential(rate=2.0), 3) == pytest.approx(0.75)
    # E[(c + Y)^2] = c^2 + 2c/r + 2/r^2
    assert moment(ShiftedExponential(shift=0.1, rate=2.0), 2) == pytest.approx(0.61)
    assert mean(ShiftedExponential(shift=0.1, rate=2.0)) == pytest.approx(0.6)
    w = Weibull(shape=1.5, scale=0.7)
    assert moment(w, 2) == pytest.approx(0.49 * math.gamma(1.0 + 2.0 / 1.5))
    assert moment(Constant(value=0.7), 2) == pytest.approx(0.49)


# every Weibull shape a preset, config or test uses, and a margin below 1
_WEIBULL_SHAPES = (0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.05, 1.5, 2.0, 3.0)


def test_gamma_is_math_gamma_within_ulps_of_scipy_and_inf_past_the_float_range():
    from scipy.special import gamma as scipy_gamma

    rng = np.random.default_rng(RNG_SEED)
    # the arguments the package passes: 1 + n/m (moments, chunk scales), 2/m (envelope)
    exact = [1.0 + n / m for m in _WEIBULL_SHAPES for n in range(5)] + [2.0 / m for m in _WEIBULL_SHAPES]
    # tiny arguments, the middle of the range and the top of the float range
    edges = [1e-300, 1e-12, 5e-10, 9.999999999e-10, 1e-9, 0.5, 1.0, 2.0, 2.5, 3.0, 32.999999,
             33.0, 33.000001, 60.0, 143.01608, 143.01609, 171.6]
    xs = np.concatenate([
        exact, edges, rng.uniform(1e-9, 33.0, 20_000), rng.uniform(33.0, 172.0, 5_000),
        np.exp(rng.uniform(math.log(1e-300), math.log(1e4), 20_000)),
    ])
    xs = xs[xs < 171.62]
    got = np.array([_gamma(float(x)) for x in xs])
    ulps = np.abs(got.view(np.int64) - scipy_gamma(xs).view(np.int64))
    assert ulps.max() <= 16, xs[ulps.argmax()]
    assert [_gamma(172.0), _gamma(1e4)] == [math.inf] * 2


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(rate=3.0),
        ShiftedExponential(shift=0.2, rate=1.5),
        Weibull(shape=1.5, scale=0.9),
        Weibull(shape=0.8, scale=0.4),
        Weibull(shape=3.0, scale=0.3),
        Constant(value=1.3),
    ],
)
def test_sample_mean_matches_first_moment(dist):
    rng = np.random.default_rng(RNG_SEED)
    draws = sample(dist, rng, 200_000)
    se = draws.std() / math.sqrt(len(draws)) if draws.std() > 0 else 1e-12
    assert abs(draws.mean() - mean(dist)) < 5 * se + 1e-12
    assert np.all(draws >= 0.0)


def test_constant_sampling_consumes_no_rng():
    rng = np.random.default_rng(RNG_SEED)
    before = rng.bit_generator.state
    assert sample(Constant(value=0.4), rng) == 0.4
    assert np.all(sample(Constant(value=0.4), rng, 5) == 0.4)
    assert rng.bit_generator.state == before


def test_exponential_mgf_closed_form():
    d = Exponential(rate=2.0)
    for s in (-1.0, 0.0, 0.5, 1.9):
        assert mgf(d, s) == pytest.approx(2.0 / (2.0 - s) if s != 0 else 1.0)
    with pytest.raises(ValueError):
        mgf(d, 2.0)


def test_quadrature_mgf_matches_monte_carlo():
    rng = np.random.default_rng(RNG_SEED)
    w = Weibull(shape=1.5, scale=0.6)
    draws = sample(w, rng, 400_000)
    for s in (-0.7, 0.4, 1.1):
        mc = np.exp(s * draws).mean()
        mc_se = np.exp(s * draws).std() / math.sqrt(len(draws))
        assert abs(mgf(w, s) - mc) < 5 * mc_se


def _weibull_edge(shape):
    """s * scale at which the Weibull MGF's exponent s x - (x/scale)^shape peaks at 700."""
    return shape * (700.0 / (shape - 1.0)) ** ((shape - 1.0) / shape)


def _weibull_mgf_reference(dist, s):
    """30-digit E[exp(sX)]: u = (x/scale)^shape is Exp(1), so integrate exp(c u^(1/shape) - u)."""
    with mpmath.workdps(30):
        m, c = mpmath.mpf(dist.shape), mpmath.mpf(s * dist.scale)
        points = [0, 1, mpmath.inf]
        if c > 0 and m > 1:
            u_star = (c / m) ** (m / (m - 1))
            points = [0, u_star / 4, u_star, 4 * u_star + 10, mpmath.inf]
        return mpmath.quad(lambda u: mpmath.exp(c * u ** (1 / m) - u), points)


@pytest.mark.parametrize("shape", [0.3, 0.7, 1.0, 1.05, 1.5, 2.0, 3.0])
def test_weibull_mgf_matches_high_precision_reference(shape):
    dist = Weibull(shape=shape, scale=0.5)
    # s * scale from -3 up to the domain's end, or to the 700 overflow guard's edge
    top = -0.05 if shape < 1.0 else 0.95 if shape == 1.0 else _weibull_edge(shape) * (1 - 1e-6)
    for sb in np.linspace(-3.0, top, 9):
        s = float(sb) / dist.scale
        want = _weibull_mgf_reference(dist, s)
        assert abs(mgf(dist, s) - want) <= 1e-11 * want, (shape, s)
    if shape > 1.0:
        assert mgf(dist, _weibull_edge(shape) * (1 + 1e-6) / dist.scale) == math.inf


def test_mgf_domain_sup():
    assert mgf_domain_sup(Exponential(rate=2.0)) == pytest.approx(2.0)
    assert mgf_domain_sup(ShiftedExponential(shift=0.1, rate=3.0)) == pytest.approx(3.0)
    assert mgf_domain_sup(Weibull(shape=1.5, scale=1.0)) == math.inf
    assert mgf_domain_sup(Weibull(shape=1.0, scale=0.5)) == pytest.approx(2.0)
    assert mgf_domain_sup(Weibull(shape=0.7, scale=1.0)) == 0.0
    assert mgf_domain_sup(Constant(value=2.0)) == math.inf


def test_subexp_envelopes():
    assert subexp_params(Exponential(rate=8.0)) == SubExpParams(tau_sq=1.0 / 64.0, b=1.0 / 8.0)
    p = subexp_params(ShiftedExponential(shift=0.3, rate=4.0))
    assert p.tau_sq == pytest.approx(1.0 + 1.0 / 16.0)
    assert p.b == pytest.approx(0.25)
    assert subexp_params(Constant(value=0.9)) == SubExpParams(tau_sq=0.0, b=0.0)
    w = subexp_params(Weibull(shape=1.5, scale=0.5))
    assert w.tau_sq == pytest.approx(w.b**2)
    with pytest.raises(ValueError):
        subexp_params(Weibull(shape=0.9, scale=1.0))


def test_exponential_envelope_bounds_centered_mgf_below_zero():
    # the envelope certifies E exp(s(X - EX)) <= exp(s^2 tau^2 / 2) on s <= 0
    d = Exponential(rate=2.0)
    p = subexp_params(d)
    for s in np.linspace(-1.0 / p.b, 0.0, 12):
        centered = math.exp(-s * mean(d)) * mgf(d, s)
        assert centered <= math.exp(s * s * p.tau_sq / 2.0) + 1e-12


_FRACTIONS = [i / 100 for i in range(1, 101)]  # s b on a grid of (0, 1]


def _envelope_fails(dist):
    """The grid points s b, s < the MGF's domain, where E exp(s(X - EX)) > exp(s^2 tau^2 / 2)."""
    p = subexp_params(dist)
    return [f for f in _FRACTIONS if f / p.b < mgf_domain_sup(dist)
            and math.exp(-f / p.b * mean(dist)) * mgf(dist, f / p.b)
            > math.exp((f / p.b) ** 2 * p.tau_sq / 2.0)]


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("shape", [1.0, 1.2, 1.5, 2.0, 3.0])
def test_weibull_envelope_certifies_the_centered_mgf(shape, k):
    # the maximal inequality uses the envelope on s in (0, 1/b]
    assert _envelope_fails(chunk_dist("weibull", k, shape=shape)) == []


def test_exponential_envelope_fails_for_every_positive_s():
    # known defect: the envelope is one-sided by design, and fails from s = 0.01/b on
    for k in (1, 4):
        assert _envelope_fails(chunk_dist("exponential", k)) == _FRACTIONS[:-1]


def test_shifted_exponential_envelope_fails_near_one_over_b():
    # known defect: at shift 0.1 it fails from 0.75/b for whole files and from 0.98/b for
    # k = 2 chunks; s = 1/b is the edge of the MGF's domain
    fails = {k: _envelope_fails(chunk_dist("shifted-exponential", k, shift=0.1)) for k in (1, 2, 4)}
    assert fails == {1: _FRACTIONS[74:-1], 2: _FRACTIONS[97:-1], 4: []}


def test_canonical_family_aliases():
    assert canonical_family("exp") == "exponential"
    assert canonical_family("shift") == "shifted-exponential"
    assert canonical_family("shifted") == "shifted-exponential"
    assert canonical_family("weibull") == "weibull"
    with pytest.raises(ValueError, match=r"expected one of exponential, shifted-exponential, weibull\)"):
        canonical_family("levy")


@given(
    k=st.integers(min_value=1, max_value=32),
    family=st.sampled_from(["exponential", "shifted-exponential", "weibull"]),
)
@settings(max_examples=60, deadline=None)
def test_chunk_mean_is_reciprocal_k(k, family):
    chunk = chunk_dist(family, k, shift=0.1, shape=1.5)
    assert mean(chunk) == pytest.approx(1.0 / k, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        ShiftedExponential(shift=-0.1, rate=1.0)
    with pytest.raises(ValueError):
        Weibull(shape=0.0, scale=1.0)
    for shape in (0.0, -1.0):  # rejected before the scale 1/(k Gamma(1 + 1/shape))
        with pytest.raises(ValueError, match="shape must be positive"):
            chunk_dist("weibull", 4, shape=shape)
    with pytest.raises(ValueError):
        Constant(value=0.0)


@pytest.mark.parametrize("count", [2.5, 2.0, True])
@pytest.mark.parametrize("call,name", [(lambda v: moment(Exponential(rate=2.0), v), "order"),
                                       (lambda v: chunk_dist("exponential", v), "k")],
                         ids=["moment", "chunk_dist"])
def test_counts_reject_a_non_integer(call, name, count):
    with pytest.raises(ValueError, match=rf"\b{name}\b.*must be"):
        call(count)


def test_weibull_rejects_an_infinite_parameter():
    # an infinite shape would reach Gamma(2/shape) = Gamma(0) in the envelope
    for shape, scale in ((math.inf, 1.0), (1.5, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            Weibull(shape=shape, scale=scale)
    with pytest.raises(ValueError, match="must be finite"):
        chunk_dist("weibull", 4, shape=math.inf)


@pytest.mark.parametrize("law", [Constant(1.0), Exponential(2.0), ShiftedExponential(0.1, 2.0),
                                 Weibull(1.5, 1.0)], ids=lambda law: type(law).__name__)
def test_a_law_exposes_no_unchecked_method(law):
    # the checked free functions are the one public surface: a law's own MGF skips the
    # domain check, so Exponential(2.0)'s would read -2.0 at s = 3 where mgf(...) raises
    for name in ("sample", "moment", "mgf_domain_sup", "mgf", "subexp_params"):
        assert not hasattr(law, name), name
