import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedlat import bounds
from codedlat.distributions import (
    Constant,
    Exponential,
    Pareto,
    ShiftedExponential,
    SubExpParams,
    Weibull,
    chunk_dist,
    subexp_params,
)

RNG_SEED = 477051


def test_harmonic():
    assert bounds.harmonic(0) == 0.0
    assert bounds.harmonic(1) == 1.0
    assert bounds.harmonic(4) == pytest.approx(25.0 / 12.0, abs=1e-15)


# ---------------------------------------------------------------------------
# mean latency bounds, exponential chunks


def test_mean_bound_exp_reference_point():
    report = bounds.mean_latency_bound_exp(8, 0.9)
    assert report.branch == "Phi3"
    assert report.value == pytest.approx(0.761075335, abs=1e-9)
    assert report.auxiliary["queue_level"] == pytest.approx(1.92869355, abs=1e-8)
    assert report.auxiliary["spill"] == pytest.approx(1.28255334e-4, rel=1e-8)
    # additive structure: service stage + queueing stage + truncation spill
    rebuilt = (
        2.0 * math.log(8) / 8
        + report.auxiliary["queue_level"] / 8
        + report.auxiliary["spill"]
    )
    assert report.value == pytest.approx(rebuilt, abs=1e-12)


def test_mean_bound_exp_wide_branch():
    # near saturation the queue level exceeds 2 ln k and the Gaussian
    # half of the maximal inequality takes over
    report = bounds.mean_latency_bound_exp(2, 0.99)
    assert report.branch == "Phi4"
    assert report.value == pytest.approx(1.849539639, abs=1e-9)
    r = report.auxiliary["queue_level"]
    rebuilt = (
        math.sqrt(2.0 * math.log(2) * r) / 2
        + r / 2
        + report.auxiliary["spill"]
    )
    assert report.value == pytest.approx(rebuilt, abs=1e-12)


@given(
    k=st.integers(min_value=2, max_value=64),
    lam=st.floats(min_value=0.05, max_value=0.99),
)
@settings(max_examples=150, deadline=None)
def test_mean_bound_exp_recomputable_from_auxiliary(k, lam):
    if lam * k <= 1.0:
        with pytest.raises(ValueError):
            bounds.mean_latency_bound_exp(k, lam)
        report = bounds.mean_latency_bound_exp(k, lam, strict=False)
    else:
        report = bounds.mean_latency_bound_exp(k, lam)
    r = report.auxiliary["queue_level"]
    spill = report.auxiliary["spill"]
    if report.branch == "Phi3":
        assert 2.0 * math.log(k) >= r
        rebuilt = 2.0 * math.log(k) / k + r / k + spill
    else:
        assert 2.0 * math.log(k) < r
        rebuilt = math.sqrt(2.0 * math.log(k) * r) / k + r / k + spill
    assert report.value == pytest.approx(rebuilt, abs=1e-12)
    assert math.isfinite(report.value)
    assert spill >= 0.0


def test_mean_bound_exp_strict_region():
    with pytest.raises(ValueError):
        bounds.mean_latency_bound_exp(4, 0.25)
    report = bounds.mean_latency_bound_exp(4, 0.25, strict=False)
    # extrapolated level can go negative; the linear branch absorbs it
    assert report.branch == "Phi3"
    assert math.isfinite(report.value)


# ---------------------------------------------------------------------------
# mean latency bounds, sub-exponential chunks


def test_mean_bound_general_reference_point():
    chunk = Exponential(rate=8.0)
    report = bounds.mean_latency_bound_general(
        8, 0.9, SubExpParams(tau_sq=1.0 / 64.0, b=1.0 / 8.0), dist=chunk
    )
    assert report.branch == "Phi1"
    assert report.auxiliary["phi"] == pytest.approx(0.636075335, abs=1e-9)
    assert report.auxiliary["residual_max"] == pytest.approx(0.575877942, abs=1e-6)
    assert report.value == pytest.approx(1.211953277, abs=1e-6)
    # one fewer queue level than the exponential-only bound
    exp_report = bounds.mean_latency_bound_exp(8, 0.9)
    assert report.auxiliary["queue_level"] == pytest.approx(
        exp_report.auxiliary["queue_level"] - 1.0, abs=1e-12
    )
    rebuilt = (
        2.0 * (1.0 / 8.0) * math.log(8)
        + report.auxiliary["queue_level"] / 8
        + report.auxiliary["spill"]
    )
    assert report.auxiliary["phi"] == pytest.approx(rebuilt, abs=1e-12)


def test_mean_bound_general_gaussian_branch():
    report = bounds.mean_latency_bound_general(
        4, 0.9, SubExpParams(tau_sq=1.0506, b=0.225), m_k=0.0
    )
    assert report.branch == "Phi2"
    assert report.value == pytest.approx(1.839697615, abs=1e-9)
    r = report.auxiliary["queue_level"]
    rebuilt = (
        math.sqrt(1.0506) * math.sqrt(2.0 * math.log(4) * r)
        + r / 4
        + report.auxiliary["spill"]
    )
    assert report.value == pytest.approx(rebuilt, abs=1e-9)


def test_mean_bound_general_constant_envelope_collapses():
    # tau = b = 0 removes the service fluctuation term entirely
    report = bounds.mean_latency_bound_general(
        4, 0.9, SubExpParams(tau_sq=0.0, b=0.0), m_k=0.0
    )
    assert report.branch == "Phi1"
    expected = report.auxiliary["queue_level"] / 4 + report.auxiliary["spill"]
    assert report.value == pytest.approx(expected, abs=1e-12)


def test_mean_bound_general_needs_residual_source():
    with pytest.raises(ValueError):
        bounds.mean_latency_bound_general(4, 0.9, SubExpParams(0.1, 0.1))


@pytest.mark.parametrize("family,shift,shape", [
    ("exponential", 0.0, 1.0), ("shifted-exponential", 0.1, 1.0), ("weibull", 0.0, 1.5),
])
def test_mean_latency_bound_picks_the_family_form(family, shift, shape):
    report = bounds.mean_latency_bound(family, 4, 0.9, shift=shift, shape=shape)
    if family == "exponential":
        assert report == bounds.mean_latency_bound_exp(4, 0.9)
    else:
        chunk = chunk_dist(family, 4, shift=shift, shape=shape)
        general = bounds.mean_latency_bound_general(4, 0.9, subexp_params(chunk), dist=chunk)
        assert report == general
        assert bounds.mean_latency_bound(family, 4, 0.9, shift=shift, shape=shape, m_k=0.5) == \
            bounds.mean_latency_bound_general(4, 0.9, subexp_params(chunk), m_k=0.5)
    with pytest.raises(ValueError, match="lam > 1/k"):
        bounds.mean_latency_bound(family, 4, 0.2, shift=shift, shape=shape)
    assert bounds.mean_latency_bound(family, 4, 0.2, shift=shift, shape=shape, strict=False).value > 0


def test_mean_bound_general_negative_level_uses_linear_branch():
    chunk = ShiftedExponential(shift=0.05, rate=2.0 / 0.9)
    report = bounds.mean_latency_bound_general(
        2, 0.1, SubExpParams(tau_sq=1.2025, b=0.45), dist=chunk, strict=False
    )
    assert report.branch == "Phi1"
    assert math.isfinite(report.value)


# ---------------------------------------------------------------------------
# residual-of-maximum term


def test_m_k_reference_values():
    assert bounds.m_k_bound(Exponential(rate=8.0), 8) == pytest.approx(0.575877942, abs=1e-6)
    assert bounds.m_k_bound(Exponential(rate=1.0), 1) == pytest.approx(1.000060567, abs=1e-6)


def test_m_k_weibull_evaluates_coarse_grid_once(monkeypatch):
    # unbounded MGF domain: 128 grid points plus the golden-section steps
    calls = []
    real_mgf = bounds.mgf
    monkeypatch.setattr(bounds, "mgf", lambda dist, s: calls.append(s) or real_mgf(dist, s))
    bounds.m_k_bound(chunk_dist("weibull", 4, shape=1.5), 4)
    assert len(calls) == 159


@pytest.mark.parametrize("k,want", [
    (2, 0.8145601269601256), (3, 0.6388517961001472), (4, 0.5246931051519599),
])
def test_m_k_weibull_reference_values_bit_exact(k, want):
    assert bounds.m_k_bound(chunk_dist("weibull", k, shape=1.5), k) == want


def test_m_k_scales_with_chunk_count():
    # residual of the max of k mean-1/k chunks shrinks as k grows
    vals = [bounds.m_k_bound(Exponential(rate=float(k)), k) for k in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_residual_moment():
    assert bounds.residual_moment(Exponential(rate=2.0)) == pytest.approx(0.5)
    assert bounds.residual_moment(ShiftedExponential(shift=0.1, rate=2.0)) == pytest.approx(
        0.61 / 1.2
    )
    # uniform residual of a deterministic service
    assert bounds.residual_moment(Constant(value=0.7)) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        bounds.residual_moment(Pareto(exponent=1.5, minimum=1.0))


def test_maximal_subexp_bound():
    assert bounds.maximal_subexp_bound(
        100, SubExpParams(tau_sq=1.0, b=1.0), 1.0
    ) == pytest.approx(1.0 + 2.0 * math.log(100), abs=1e-12)
    # small draw counts sit in the Gaussian half
    small = bounds.maximal_subexp_bound(2, SubExpParams(tau_sq=4.0, b=0.1), 0.0)
    assert small == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2)), abs=1e-12)
    assert bounds.maximal_subexp_bound(1, SubExpParams(tau_sq=1.0, b=1.0), 0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# zero-load closed forms


def test_zero_load_latency_exponential_exact():
    for k, expect in ((2, 0.75), (3, 11.0 / 18.0), (4, 25.0 / 48.0)):
        assert bounds.zero_load_latency("exponential", k) == pytest.approx(expect, abs=1e-12)


def test_zero_load_latency_shifted_exact():
    assert bounds.zero_load_latency("shifted-exponential", 2, shift=0.1) == pytest.approx(0.725)


def test_zero_load_latency_weibull_matches_order_stat_formula():
    k, m = 2, 1.5
    scale = 1.0 / (k * math.gamma(1.0 + 1.0 / m))
    expect = scale * math.gamma(1.0 + 1.0 / m) * (2.0 - 2.0 ** (-1.0 / m))
    got = bounds.zero_load_latency("weibull", k, shape=m, rng=RNG_SEED)
    assert got == pytest.approx(expect, rel=5e-3)


def test_zero_load_gain_worked_examples():
    assert bounds.zero_load_gain("exponential", 2) == pytest.approx(0.25, abs=1e-12)
    assert bounds.zero_load_gain(
        "shifted-exponential", 2, shift=0.2, unit_mean=False
    ) == pytest.approx(0.35, abs=1e-12)


def test_redundant_request_latency():
    assert bounds.redundant_request_latency(4, 0) == pytest.approx(25.0 / 48.0, abs=1e-12)
    assert bounds.redundant_request_latency(4, 4) == pytest.approx(0.158630952, abs=1e-9)
    # extra copies can only help
    vals = [bounds.redundant_request_latency(4, e) for e in range(6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# tail bound


def test_tail_bound_reference_points():
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 0.1) == 1.0
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 1.5) == pytest.approx(0.437265639, abs=1e-9)
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 60.0) == pytest.approx(0.01, abs=1e-12)


def test_tail_bound_monotone_and_clamped():
    grid = np.linspace(0.0, 6.0, 200)
    vals = [bounds.tail_latency_bound(4, 0.5, 0.01, float(t)) for t in grid]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tail_bound_rejects_vacuous_budget():
    # epsilon above lam: the truncation level would be non-positive
    with pytest.raises(ValueError):
        bounds.tail_latency_bound(2, 0.9, 0.95, 1.0)


# ---------------------------------------------------------------------------
# batch sampling bounds


def test_bound_I_reference_points():
    loose = bounds.bound_I(0.9, 1.4, 10, variant="loose")
    tight = bounds.bound_I(0.9, 1.4, 10, variant="tight")
    assert loose.branch == "BoundI-loose"
    assert loose.value == pytest.approx(31.604942494, abs=1e-9)
    assert tight.value == pytest.approx(14.093459537, abs=1e-9)
    assert tight.value < loose.value
    # loose = full harmonic sum plus k times the mean queue backlog
    q_mean = loose.auxiliary["q_mean"]
    assert loose.value == pytest.approx(bounds.harmonic(10) + 10.0 * q_mean, abs=1e-12)


def test_bound_I_tight_uses_order_statistics():
    tight = bounds.bound_I(0.9, 1.4, 10, variant="tight")
    assert tight.auxiliary["order_stat_sum"] < 10.0 * bounds.bound_I(
        0.9, 1.4, 10, variant="loose"
    ).auxiliary["q_mean"]


def test_bound_I_rejects_unknown_variant():
    with pytest.raises(ValueError):
        bounds.bound_I(0.9, 1.4, 10, variant="middling")


def test_bound_II_reference_point():
    report = bounds.bound_II(0.9, 1.4, 10)
    assert report.value == pytest.approx(31.715914420, abs=1e-9)
    assert report.auxiliary["interp_mean"] == pytest.approx(2.82027, abs=1e-4)
    assert report.auxiliary["interp_var"] == pytest.approx(1.84131, abs=1e-4)
    # envelope is nondecreasing in the shift, so the minimizer pins to
    # the lower edge of the search interval
    assert report.auxiliary["z_star"] == pytest.approx(-report.auxiliary["q_max"], abs=1e-4)


def test_bound_II_dominates_tight_bound_I_on_grid():
    for lam in (0.8, 0.85, 0.9):
        tight = bounds.bound_I(lam, 1.4, 10, variant="tight")
        assert bounds.bound_II(lam, 1.4, 10).value >= tight.value - 1e-9


# ---------------------------------------------------------------------------
# gain prediction


def test_theoretical_gain_deterministic():
    a = bounds.theoretical_gain(2, 4, 0.5, seed=11)
    b = bounds.theoretical_gain(2, 4, 0.5, seed=11)
    assert a == b


def test_theoretical_gain_structure():
    gb = bounds.theoretical_gain(2, 4, 0.9, samples=300_000, seed=1)
    assert gb.value == pytest.approx(gb.replicated_proxy - gb.split_bound.value, abs=1e-12)
    assert gb.split_bound.branch == "Phi3"
    # proxy tracks the mean-field queue backlog: sum of clamped tails
    expect = sum(min(1.0, 0.9 ** (2**r)) for r in range(1, 40))
    assert gb.replicated_proxy == pytest.approx(expect, abs=4.0 * gb.std_err)


def test_theoretical_gain_low_load_is_conservative():
    # the proxy empties out while the extrapolated split bound stays
    # positive, so the prediction undershoots the simulated gain badly
    # at light load; it remains a valid lower bound, which is what the
    # sweep checks consume
    gb = bounds.theoretical_gain(2, 2, 0.01, seed=3)
    assert gb.replicated_proxy < 0.01
    assert gb.value < 0.0
    assert gb.value >= -gb.split_bound.value


def test_theoretical_gain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bounds.theoretical_gain(1, 4, 0.5)
    with pytest.raises(ValueError):
        bounds.theoretical_gain(2, 4, 0.5, family="pareto")


@given(
    d=st.integers(min_value=2, max_value=3),
    k=st.integers(min_value=2, max_value=8),
    lam=st.floats(min_value=0.3, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_theoretical_gain_finite_across_grid(d, k, lam):
    gb = bounds.theoretical_gain(d, k, lam, samples=20_000)
    assert math.isfinite(gb.value)
    assert gb.std_err > 0.0


def test_bound_report_requires_finite_value():
    with pytest.raises(ValueError):
        bounds.BoundReport(value=math.inf, branch="x", inputs={}, auxiliary={})
