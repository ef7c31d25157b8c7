import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codedlat.queue_models import (
    BatchSamplingDist,
    DoubleExpTailModel,
    batch_sampling_pmf,
    double_exp_ccdf,
    double_exp_mean,
    order_stat_expectation,
    pmf_mean,
    sum_order_stats,
)


def test_double_exp_ccdf_values():
    m = DoubleExpTailModel(d=2.0, per_queue_load=0.9)
    assert double_exp_ccdf(m, 1) == pytest.approx(0.81)
    assert double_exp_ccdf(m, 2) == pytest.approx(0.9**4)
    assert double_exp_ccdf(m, 3) == pytest.approx(0.9**8)
    assert double_exp_ccdf(m, 0) == pytest.approx(0.9)  # the load, not the trivial 1
    assert double_exp_ccdf(m, 40) == 0.0  # underflow is fine


def test_double_exp_ccdf_monotone():
    m = DoubleExpTailModel(d=1.4, per_queue_load=0.7)
    values = [double_exp_ccdf(m, r) for r in range(0, 12)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_double_exp_mean_sums_the_tail():
    m = DoubleExpTailModel(d=2.0, per_queue_load=0.9)
    expect = sum(0.9 ** (2**r) for r in range(1, 60))
    assert double_exp_mean(m) == pytest.approx(expect, rel=1e-14)
    # a load far below one leaves nothing queued
    assert double_exp_mean(DoubleExpTailModel(d=3.0, per_queue_load=1e-300)) == 0.0


def test_batch_sampling_pmf_reference_point():
    b = batch_sampling_pmf(0.9, 1.4)
    assert b.q_max == 5
    assert b.pmf[0] == pytest.approx(0.1)
    assert b.pmf[1] == pytest.approx(0.126)
    assert b.pmf[5] == pytest.approx(0.163155024, abs=1e-9)
    assert pmf_mean(b) == pytest.approx(2.867597424, abs=1e-9)
    assert float(np.sum(b.pmf)) == pytest.approx(1.0, abs=1e-12)


def test_batch_sampling_pmf_rejects_resonance():
    with pytest.raises(ValueError):
        batch_sampling_pmf(0.8, 1.25)  # lam * d = 1


@given(
    lam=st.floats(min_value=0.3, max_value=0.95),
    d=st.floats(min_value=1.05, max_value=1.95),
)
@settings(max_examples=120, deadline=None)
def test_batch_sampling_pmf_is_distribution(lam, d):
    try:
        b = batch_sampling_pmf(lam, d)
    except ValueError:
        assume(False)
    assert np.all(b.pmf >= 0.0)
    assert float(np.sum(b.pmf)) == pytest.approx(1.0, abs=1e-12)
    # geometric body below the truncation atom
    for i in range(b.q_max):
        assert b.pmf[i] == pytest.approx((1.0 - lam) * (lam * d) ** i, rel=1e-12)


def test_order_stat_expectation_two_coin_draws():
    pmf = [0.5, 0.5]
    assert order_stat_expectation(pmf, 2, 1) == pytest.approx(0.25)
    assert order_stat_expectation(pmf, 2, 2) == pytest.approx(0.75)
    assert order_stat_expectation([1.0], 7, 3) == 0.0


def test_order_stat_expectation_rank_validation():
    with pytest.raises(ValueError):
        order_stat_expectation([0.5, 0.5], 2, 0)
    with pytest.raises(ValueError):
        order_stat_expectation([0.5, 0.5], 2, 3)


@st.composite
def pmfs(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    total = sum(weights)
    assume(total > 1e-9)
    return [w / total for w in weights]


@given(pmf=pmfs(), n=st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_order_stats_sum_identity_and_monotonicity(pmf, n):
    arr = np.array(pmf)
    arr = arr / arr.sum()  # renormalize away float drift
    values = [order_stat_expectation(arr, n, rank) for rank in range(1, n + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert sum(values) == pytest.approx(sum_order_stats(arr, n), abs=1e-9)
    assert sum_order_stats(arr, n) == pytest.approx(n * pmf_mean(arr), abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        DoubleExpTailModel(d=2.0, per_queue_load=1.0)
    with pytest.raises(ValueError):
        DoubleExpTailModel(d=1.0, per_queue_load=0.5)
    with pytest.raises(ValueError):
        BatchSamplingDist(q_max=1, pmf=np.array([0.7, 0.7]))


@pytest.mark.parametrize("lam", [0.8, 0.85, 0.9])
def test_order_stat_expectation_matches_explicit_binomial_sum(lam):
    # the fig5 cell: probe ratio 14/10, ten draws
    pmf = batch_sampling_pmf(lam, 1.4)
    cdf = np.cumsum(pmf.pmf)[:-1]
    n = 10
    for rank in range(1, n + 1):
        want = sum(
            math.comb(n, j) * float(f) ** j * (1.0 - float(f)) ** (n - j)
            for f in cdf for j in range(rank)
        )
        assert order_stat_expectation(pmf, n, rank) == pytest.approx(want, rel=0, abs=1e-12)
