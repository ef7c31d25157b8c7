import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from codedlat import bounds, harness
from codedlat.distributions import (
    Constant,
    Exponential,
    ShiftedExponential,
    SubExpParams,
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


@pytest.mark.parametrize("k, branch, limit", [
    (2, "Phi4", math.sqrt(math.log(2)) + 1 + 1 / 32),
    (4, "Phi3", 2 * math.log(4) / 4 + 2 / 4 + 1 / (2 * 4**4)),
])
def test_mean_bound_exp_stays_finite_as_load_nears_one(k, branch, limit):
    # r -> 2 and spill -> 1/(2 k^4) as lam -> 1; 1e-6 below saturation
    # the value sits within O(1e-6) of the limit
    report = bounds.mean_latency_bound_exp(k, 1 - 1e-6)
    assert report.branch == branch
    assert report.auxiliary["queue_level"] == pytest.approx(2.0, rel=1e-5)
    assert report.auxiliary["spill"] == pytest.approx(1 / (2 * k**4), rel=1e-5)
    assert report.value == pytest.approx(limit, rel=1e-5)


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


@pytest.mark.parametrize("k, lam, want, branch", [
    (2, 0.9, 1.7228486190772396, "Phi4"),
    (4, 0.9, 1.1688287081483053, "Phi3"),
    (8, 0.9, 0.7610753345083623, "Phi3"),
    (16, 0.5, 0.45146262109267654, "Phi3"),
])
def test_mean_bound_exp_bit_exact_at_powers_of_two(k, lam, want, branch):
    # at power-of-two k the envelope (1/k^2, 1/k) is exact, so routing the bound through the
    # shared queue part leaves the hand-written closed form's value unchanged to the bit
    report = bounds.mean_latency_bound_exp(k, lam)
    assert (report.value, report.branch) == (want, branch)


def test_mean_bound_exp_is_the_general_queue_part_one_level_up():
    # over the whole grid the value is the closed form rebuilt from its own level and spill to
    # within 2 ulp (b ln k with b = 1/k need not round like ln k / k), and the general
    # bound's level sits exactly one below
    params = SubExpParams(tau_sq=1.0, b=1.0)
    for k in range(2, 65):
        ln_k = math.log(k)
        for i in range(1, 200):
            lam = i / 200
            report = bounds.mean_latency_bound_exp(k, lam, strict=False)
            r, spill = report.auxiliary["queue_level"], report.auxiliary["spill"]
            if report.branch == "Phi3":
                rebuilt = 2.0 * ln_k / k + r / k + spill
            else:
                rebuilt = math.sqrt(2.0 * ln_k) * math.sqrt(r) / k + r / k + spill
            assert abs(report.value - rebuilt) <= 2 * math.ulp(rebuilt), (k, lam)
            general = bounds.mean_latency_bound_general(k, lam, params, 0.0, strict=False)
            assert general.auxiliary["queue_level"] == r - 1.0, (k, lam)


# ---------------------------------------------------------------------------
# mean latency bounds, sub-exponential chunks


def test_mean_bound_general_reference_point():
    chunk = Exponential(rate=8.0)
    report = bounds.mean_latency_bound_general(
        8, 0.9, SubExpParams(tau_sq=1.0 / 64.0, b=1.0 / 8.0), bounds.m_k_bound(chunk, 8)
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


@pytest.mark.parametrize("family,shift,shape", [
    ("exponential", 0.0, 1.0), ("shifted-exponential", 0.1, 1.0), ("weibull", 0.0, 1.5),
])
def test_mean_latency_bound_picks_the_family_form(family, shift, shape):
    report = bounds.mean_latency_bound(family, 4, 0.9, shift=shift, shape=shape)
    if family == "exponential":
        assert report == bounds.mean_latency_bound_exp(4, 0.9)
    else:
        chunk = chunk_dist(family, 4, shift=shift, shape=shape)
        general = bounds.mean_latency_bound_general(
            4, 0.9, subexp_params(chunk), bounds.m_k_bound(chunk, 4))
        assert report == general
    with pytest.raises(ValueError, match="lam > 1/k"):
        bounds.mean_latency_bound(family, 4, 0.2, shift=shift, shape=shape)
    assert bounds.mean_latency_bound(family, 4, 0.2, shift=shift, shape=shape, strict=False).value > 0


def test_mean_bound_general_negative_level_uses_linear_branch():
    chunk = ShiftedExponential(shift=0.05, rate=2.0 / 0.9)
    report = bounds.mean_latency_bound_general(
        2, 0.1, SubExpParams(tau_sq=1.2025, b=0.45), bounds.m_k_bound(chunk, 2), strict=False
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
    bounds.m_k_bound.cache_clear()
    bounds.m_k_bound(chunk_dist("weibull", 4, shape=1.5), 4)
    assert len(calls) == 159


@pytest.mark.parametrize("k,want", [
    (2, 0.8145601269601197), (3, 0.6388517961001365), (4, 0.524693105151959),
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


def test_maximal_subexp_bound():
    assert bounds.maximal_subexp_bound(
        100, SubExpParams(tau_sq=1.0, b=1.0), 1.0
    ) == pytest.approx(1.0 + 2.0 * math.log(100), abs=1e-12)
    # small draw counts sit in the Gaussian half
    small = bounds.maximal_subexp_bound(2, SubExpParams(tau_sq=4.0, b=0.1), 0.0)
    assert small == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2)), abs=1e-12)
    assert bounds.maximal_subexp_bound(1, SubExpParams(tau_sq=1.0, b=1.0), 0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("n_draws", [2.5, 2.0, True, 0])
def test_maximal_subexp_bound_rejects_a_non_integer_draw_count(n_draws):
    with pytest.raises(ValueError, match="n_draws"):
        bounds.maximal_subexp_bound(n_draws, SubExpParams(tau_sq=1.0, b=1.0), 0.0)


_EXP4 = Exponential(rate=4.0)
_COUNT_ARGS = {
    "harmonic": (bounds.harmonic, "k"),
    "m_k_bound": (lambda v: bounds.m_k_bound(_EXP4, v), "k"),
    "mean_exp": (lambda v: bounds.mean_latency_bound_exp(v, 0.9), "k"),
    "mean_weibull": (lambda v: bounds.mean_latency_bound("weibull", v, 0.9, shape=1.5), "k"),
    "tail": (lambda v: bounds.tail_latency_bound(v, 0.9, 0.1, 1.0), "k"),
    "redundant_k": (lambda v: bounds.redundant_request_latency(v, 1), "k"),
    "redundant_extra": (lambda v: bounds.redundant_request_latency(2, v), "extra"),
    "bound_I": (lambda v: bounds.bound_I(0.8, 1.4, v), "k"),
    "bound_II": (lambda v: bounds.bound_II(0.8, 1.4, v), "k"),
    "gain_d": (lambda v: bounds.theoretical_gain(v, 4, 0.5), "d"),
}


@pytest.mark.parametrize("count", [2.5, 4.0, True])
@pytest.mark.parametrize("call,name", _COUNT_ARGS.values(), ids=list(_COUNT_ARGS))
def test_bound_counts_reject_a_non_integer(call, name, count):
    # an integral float or a bool ran before; a cached m_k_bound of 1 or 4 must not answer for it
    for k in (1, 4):
        bounds.m_k_bound(_EXP4, k)
    with pytest.raises(ValueError, match=rf"\b{name}\b.*must be"):
        call(count)


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
    got = bounds.zero_load_latency("weibull", k, shape=m)
    assert got == pytest.approx(expect, rel=1e-12)


def _expected_max_by_quadrature(chunk, k: int) -> float:
    """E[max of k] = integral of 1 - F^k over (0, inf), by adaptive quadrature."""
    def survival(x):
        return math.exp(-((x / chunk.scale) ** chunk.shape))

    return integrate.quad(lambda x: -math.expm1(k * math.log1p(-survival(x))) if x > 0 else 1.0,
                          0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("family, shape", [
    ("weibull", 0.7), ("weibull", 1.5), ("weibull", 3.0),
])
def test_zero_load_latency_matches_quadrature_of_the_max(family, shape):
    # inclusion-exclusion over minima against a direct integral of the max's tail
    for k in range(2, 17):
        want = _expected_max_by_quadrature(chunk_dist(family, k, shape=shape), k)
        assert bounds.zero_load_latency(family, k, shape=shape) == pytest.approx(want, rel=1e-9)


def test_zero_load_latency_rejects_split_counts_the_alternating_sum_cannot_resolve():
    assert bounds.zero_load_latency("weibull", 32, shape=1.5) > 0.0
    with pytest.raises(ValueError):
        bounds.zero_load_latency("weibull", 33, shape=1.5)
    assert bounds.zero_load_latency("exponential", 33) == bounds.harmonic(33) / 33


def test_zero_load_gain_worked_examples():
    assert bounds.zero_load_gain("exponential", 2) == pytest.approx(0.25, abs=1e-12)
    # a file 0.2 + Exp(1) is the unit-mean file with shift 0.2/1.2, in time units of 1.2
    assert 1.2 * bounds.zero_load_gain(
        "shifted-exponential", 2, shift=0.2 / 1.2
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
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 0.1).value == 1.0
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 1.5).value == pytest.approx(0.437265639, abs=1e-9)
    assert bounds.tail_latency_bound(4, 0.5, 0.01, 60.0).value == pytest.approx(0.01, abs=1e-12)
    assert bounds.tail_latency_bound(4, 0.5, 0.01, math.inf).value == 0.01


def test_tail_bound_reports_its_regime():
    k, lam, eps = 4, 0.5, 0.01
    level = math.log2(math.log(eps / k) / math.log(lam / k))
    anchor = level / k
    report = bounds.tail_latency_bound(k, lam, eps, 0.0)
    assert report.auxiliary == {"queue_level": level, "anchor": anchor}
    for t, regime in [(0.0, "Unit"), (np.nextafter(anchor, 0.0), "Unit"), (anchor, "Gauss"),
                      (2.0 * anchor, "Gauss"), (np.nextafter(2.0 * anchor, 9.0), "Exp")]:
        assert bounds.tail_latency_bound(k, lam, eps, float(t)).branch == regime


def test_tail_bound_monotone_and_clamped():
    grid = np.linspace(0.0, 6.0, 200)
    vals = [bounds.tail_latency_bound(4, 0.5, 0.01, float(t)).value for t in grid]
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
    assert report.value == pytest.approx(31.715914176, abs=1e-9)
    assert report.auxiliary["interp_mean"] == pytest.approx(2.82027, abs=1e-4)
    assert report.auxiliary["interp_var"] == pytest.approx(1.84131, abs=1e-4)
    assert report.auxiliary["q_max"] == 5


# fig5's cell, ratio 1.4 and k = 10: (lam, tight I, loose I, II)
_FIG5_BOUNDS = [
    (0.8, 10.221501447458264, 20.381512253968264, 22.562140878977328),
    (0.85, 11.754757612795538, 24.79792975396825, 24.90700061543598),
    (0.9, 14.093459537421747, 31.604942493968256, 31.715914175506157),
]


@pytest.mark.parametrize("lam,tight,loose,moment", _FIG5_BOUNDS)
def test_batch_bounds_reference_values_bit_exact(lam, tight, loose, moment):
    assert bounds.bound_I(lam, 1.4, 10, variant="tight").value == tight
    assert bounds.bound_I(lam, 1.4, 10, variant="loose").value == loose
    assert bounds.bound_II(lam, 1.4, 10).value == moment


def _bound_II_envelope(aux):
    mu, var = aux["interp_mean"], aux["interp_var"]
    return lambda z: z + 0.5 * (mu - z + math.sqrt((mu - z) ** 2 + var))


@pytest.mark.parametrize("lam,ratio,k", [
    (0.8, 1.4, 10), (0.85, 1.4, 10), (0.9, 1.4, 10), (0.5, 1.25, 4), (0.3, 1.9, 2),
])
def test_bound_II_is_the_envelope_at_the_bracket_edge(lam, ratio, k):
    report = bounds.bound_II(lam, ratio, k)
    env = _bound_II_envelope(report.auxiliary)
    q_max = report.auxiliary["q_max"]
    assert report.value == bounds.harmonic(k) + k * env(-float(q_max))


@pytest.mark.parametrize("lam,ratio,k", [
    (0.8, 1.4, 10), (0.85, 1.4, 10), (0.9, 1.4, 10),
    (0.5, 1.25, 4), (0.3, 1.9, 2), (0.95, 1.1, 20), (0.99, 1.4, 10),
])
def test_bound_II_envelope_is_nondecreasing_on_its_bracket(lam, ratio, k):
    # slope (1 - (mu - z) / sqrt((mu - z)^2 + var)) / 2 >= 0: the bracket's lower
    # edge -q_max is the envelope's exact minimum over [-q_max, q_max]
    aux = bounds.bound_II(lam, ratio, k).auxiliary
    env = _bound_II_envelope(aux)
    values = [env(z) for z in np.linspace(-aux["q_max"], aux["q_max"], 2001)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert min(values) == values[0]


def test_bound_II_dominates_tight_bound_I_on_grid():
    for lam in (0.8, 0.85, 0.9):
        tight = bounds.bound_I(lam, 1.4, 10, variant="tight")
        assert bounds.bound_II(lam, 1.4, 10).value >= tight.value - 1e-9


# ---------------------------------------------------------------------------
# gain prediction


def test_theoretical_gain_structure():
    gb = bounds.theoretical_gain(2, 4, 0.9)
    aux = gb.auxiliary
    assert gb.value == pytest.approx(aux["replicated_proxy"] - aux["split_bound"], abs=1e-12)
    split = bounds.mean_latency_bound_exp(4, 0.9, strict=False)
    assert split.branch == "Phi3"
    assert (gb.branch, aux["split_bound"]) == (split.branch, split.value)
    # proxy is the mean-field queue backlog: sum of clamped tails
    expect = sum(min(1.0, 0.9 ** (2**r)) for r in range(1, 40))
    assert aux["replicated_proxy"] == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("d,k,lam,family,kwargs,want", [
    (2, 2, 0.9, "exponential", {}, 0.39453785655509943),
    (2, 3, 0.5, "shifted-exponential", {"shift": 0.1}, -1.619795034529635),
    (3, 3, 0.4, "weibull", {"shape": 1.5}, -3.2833924654490736),
], ids=["fig3a-422", "fig3b-632", "fig4-933"])
def test_theoretical_gain_reference_values_bit_exact(d, k, lam, family, kwargs, want):
    assert bounds.theoretical_gain(d, k, lam, family, **kwargs).value == want


def _replicated_backlog_mc(draw_file, d: int, lam: float, rng, n: int = 200_000):
    """Monte Carlo of E[sum of Q file services], P(Q >= r) = lam^(d^r) for r >= 1.

    Inverse transform: with U uniform, Q >= r iff ln U / ln lam >= d^r.
    Returns the mean and its standard error.
    """
    x = np.log1p(-rng.random(n)) / math.log(lam)
    q = np.floor(np.log(np.maximum(x, 1.0)) / math.log(d)).astype(np.int64)
    sums = np.bincount(np.repeat(np.arange(n), q), weights=draw_file(rng, int(q.sum())),
                       minlength=n)
    return sums.mean(), sums.std(ddof=1) / math.sqrt(n)


_FILE_DRAWS = {  # unit-mean whole-file laws, drawn here apart from the package
    "exponential": (dict(), lambda rng, n: rng.exponential(1.0, n)),
    "shifted-exponential": (dict(shift=0.1), lambda rng, n: 0.1 + 0.9 * rng.exponential(1.0, n)),
    "weibull": (dict(shape=1.5), lambda rng, n: rng.weibull(1.5, n) / math.gamma(1.0 + 1.0 / 1.5)),
}


@pytest.mark.parametrize("family", sorted(_FILE_DRAWS))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_replicated_proxy_matches_monte_carlo_of_the_queued_work(family, d, lam):
    kwargs, draw_file = _FILE_DRAWS[family]
    rng = np.random.default_rng([RNG_SEED, d, int(10 * lam), len(family)])
    mc, se = _replicated_backlog_mc(draw_file, d, lam, rng)
    gb = bounds.theoretical_gain(d, 4, lam, family, **kwargs)
    assert abs(gb.auxiliary["replicated_proxy"] - mc) <= 4.0 * se


def test_theoretical_gain_low_load_is_conservative():
    # the proxy empties out while the extrapolated split bound stays
    # positive, so the prediction undershoots the simulated gain badly
    # at light load; it remains a valid lower bound, which is what the
    # sweep checks consume
    gb = bounds.theoretical_gain(2, 2, 0.01)
    assert gb.auxiliary["replicated_proxy"] < 0.01
    assert gb.value < 0.0
    assert gb.value >= -gb.auxiliary["split_bound"]


def test_theoretical_gain_peak_memory():
    # closed forms and quadrature hold no sample arrays: this call peaks near 15 kB
    bounds.theoretical_gain(2, 4, 0.9, "weibull", shape=1.5)  # warm caches
    bounds.m_k_bound.cache_clear()  # but trace the residual-max search itself
    tracemalloc.start()
    try:
        bounds.theoretical_gain(2, 4, 0.9, "weibull", shape=1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e3


def test_theoretical_gain_is_positive_on_four_paper_cells():
    # the prediction is a loose lower bound: over the 108 fig3a/fig3b/fig4
    # cells it is positive only at high load on exponential chunks
    gains = {}
    for name in ("fig3a", "fig3b", "fig4"):
        spec = harness.build_spec(harness.preset_entries(name))
        for n, k, d in spec.codes:
            for lam in spec.lam_grid:
                gains[name, n, k, d, lam] = bounds.theoretical_gain(
                    d, k, lam, spec.family, shift=spec.shift, shape=spec.shape).value
    assert len(gains) == 108
    assert sorted(cell for cell, g in gains.items() if g > 0) == [
        ("fig3a", 4, 2, 2, 0.9), ("fig3a", 6, 3, 2, 0.9),
        ("fig3a", 8, 4, 2, 0.8), ("fig3a", 8, 4, 2, 0.9),
    ]
    assert min(gains.values()) == pytest.approx(-3.283, abs=5e-4)
    assert min(gains, key=gains.get) == ("fig4", 9, 3, 3, 0.4)


def test_theoretical_gain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bounds.theoretical_gain(1, 4, 0.5)
    with pytest.raises(ValueError):
        bounds.theoretical_gain(2, 4, 0.5, family="weibull", shape=0.7)


@given(
    d=st.integers(min_value=2, max_value=3),
    k=st.integers(min_value=2, max_value=8),
    lam=st.floats(min_value=0.3, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_theoretical_gain_finite_across_grid(d, k, lam):
    gb = bounds.theoretical_gain(d, k, lam)
    assert math.isfinite(gb.value)
    assert gb.auxiliary["replicated_proxy"] > 0.0


def test_bound_report_requires_finite_value():
    with pytest.raises(ValueError):
        bounds.BoundReport(value=math.inf, branch="x", auxiliary={})
