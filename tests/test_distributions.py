import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedlat.distributions import (
    Constant,
    Exponential,
    Pareto,
    ShiftedExponential,
    SubExpParams,
    Weibull,
    canonical_family,
    chunk_dist,
    mean,
    mgf,
    mgf_domain_sup,
    moment,
    sample,
    service_pair,
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
    p = Pareto(exponent=3.0, minimum=0.5)
    assert mean(p) == pytest.approx(0.75)
    assert moment(Constant(value=0.7), 2) == pytest.approx(0.49)


def test_pareto_moment_divergence():
    with pytest.raises(ValueError):
        moment(Pareto(exponent=2.5, minimum=1.0), 3)


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(rate=3.0),
        ShiftedExponential(shift=0.2, rate=1.5),
        Weibull(shape=1.5, scale=0.9),
        Weibull(shape=0.8, scale=0.4),
        Pareto(exponent=4.0, minimum=0.3),
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


def test_mgf_domain_sup():
    assert mgf_domain_sup(Exponential(rate=2.0)) == pytest.approx(2.0)
    assert mgf_domain_sup(ShiftedExponential(shift=0.1, rate=3.0)) == pytest.approx(3.0)
    assert mgf_domain_sup(Weibull(shape=1.5, scale=1.0)) == math.inf
    assert mgf_domain_sup(Weibull(shape=1.0, scale=0.5)) == pytest.approx(2.0)
    assert mgf_domain_sup(Pareto(exponent=3.0, minimum=1.0)) == 0.0
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
        subexp_params(Pareto(exponent=3.0, minimum=1.0))
    with pytest.raises(ValueError):
        subexp_params(Weibull(shape=0.9, scale=1.0))


def test_exponential_envelope_bounds_centered_mgf_below_zero():
    # the envelope certifies E exp(s(X - EX)) <= exp(s^2 tau^2 / 2) on s <= 0
    d = Exponential(rate=2.0)
    p = subexp_params(d)
    for s in np.linspace(-1.0 / p.b, 0.0, 12):
        centered = math.exp(-s * mean(d)) * mgf(d, s)
        assert centered <= math.exp(s * s * p.tau_sq / 2.0) + 1e-12


def test_canonical_family_aliases():
    assert canonical_family("exp") == "exponential"
    assert canonical_family("shift") == "shifted-exponential"
    assert canonical_family("shifted") == "shifted-exponential"
    assert canonical_family("weibull") == "weibull"
    with pytest.raises(ValueError):
        canonical_family("levy")


@given(
    k=st.integers(min_value=1, max_value=32),
    family=st.sampled_from(["exponential", "shifted-exponential", "weibull"]),
)
@settings(max_examples=60, deadline=None)
def test_chunk_mean_is_reciprocal_k(k, family):
    chunk = chunk_dist(family, k, shift=0.1, shape=1.5)
    assert mean(chunk) == pytest.approx(1.0 / k, rel=1e-12)


@given(k=st.integers(min_value=1, max_value=16))
@settings(max_examples=30, deadline=None)
def test_service_pair_unit_mean(k):
    full, chunk = service_pair("shifted-exponential", k, shift=0.2)
    assert mean(full) == pytest.approx(1.0)
    assert mean(chunk) == pytest.approx(1.0 / k)


def test_service_pair_additive_shift():
    # non-normalized variant: the shift rides on top of a unit-mean tail
    full, chunk = service_pair("shifted-exponential", 2, shift=0.2, unit_mean=False)
    assert mean(full) == pytest.approx(1.2)
    assert mean(chunk) == pytest.approx(0.6)


def test_validation():
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        ShiftedExponential(shift=-0.1, rate=1.0)
    with pytest.raises(ValueError):
        Weibull(shape=0.0, scale=1.0)
    with pytest.raises(ValueError):
        Pareto(exponent=0.0, minimum=1.0)
    # infinite-mean Pareto constructs fine; divergence surfaces at moment()
    with pytest.raises(ValueError):
        mean(Pareto(exponent=1.0, minimum=1.0))
    with pytest.raises(ValueError):
        Constant(value=0.0)
