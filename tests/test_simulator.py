import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from codedlat.bounds import harmonic, redundant_request_latency, residual_moment
from codedlat.distributions import Constant, Exponential, ShiftedExponential, Weibull
from codedlat import simulator
from codedlat.simulator import (
    BatchSampling,
    ClusterConfig,
    KSplit,
    LeastKOfN,
    NaiveReplication,
    RedundantRequest,
    _draw_distinct,
    empirical_residual,
    gain_experiment,
    run,
    run_many,
)


def _config(policy, service, lam=0.5, **kw):
    kw.setdefault("L", 200)
    kw.setdefault("warmup_jobs", 2_000)
    kw.setdefault("measured_jobs", 15_000)
    return ClusterConfig(lam=lam, policy=policy, service=service, **kw)


@pytest.mark.parametrize(
    "policy,service",
    [
        (NaiveReplication(d=2), Exponential(rate=1.0)),
        (NaiveReplication(d=3), Weibull(shape=1.5, scale=1.0)),
        (KSplit(k=3, d=2), Exponential(rate=3.0)),
        (LeastKOfN(n=6, k=3), ShiftedExponential(shift=0.05, rate=4.0)),
        (BatchSampling(n=5, k=4), Exponential(rate=1.0)),
    ],
)
def test_fast_and_event_engines_agree_exactly(policy, service):
    fast = run(_config(policy, service, engine="fast"))
    event = run(_config(policy, service, engine="event"))
    assert fast == event


class _CountingRng:
    """A generator that records which of its drawing methods are used."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.used = set()

    def __getattr__(self, name):
        self.used.add(name)
        return getattr(self._rng, name)


# (L, m, path): the sampler shuffles where whole-row redraws of a
# with-replacement row would cost more than a shuffle of all L servers;
# (64, 8) has 8 m >= L yet still redraws rows
_SAMPLER_CASES = [
    (2, 2, "permuted"), (6, 5, "permuted"), (12, 12, "permuted"), (300, 200, "permuted"),
    (5, 1, "integers"), (3, 2, "integers"), (64, 8, "integers"), (200, 6, "integers"),
    (2000, 24, "integers"),
]


@pytest.mark.parametrize("L,m,path", _SAMPLER_CASES)
def test_candidate_rows_distinct_and_in_range(L, m, path):
    rng = _CountingRng(3)
    rows = _draw_distinct(rng, L, m)
    block = np.array([next(rows) for _ in range(3 * max(1, 8192 // m) + 7)])
    assert rng.used == {path}
    assert block.shape[1] == m
    assert block.min() >= 0 and block.max() < L
    srt = np.sort(block, axis=1)
    assert not (srt[:, 1:] == srt[:, :-1]).any()


@pytest.mark.parametrize("L,m", [(6, 5), (10, 4)])  # one case per path
def test_candidate_rows_uniform_in_every_position(L, m):
    rows = _draw_distinct(np.random.default_rng(11), L, m)
    block = np.array([next(rows) for _ in range(30_000)])
    for pos in range(m):
        assert chisquare(np.bincount(block[:, pos], minlength=L)).pvalue > 1e-4
    # ordered pairs of the first two positions: uniform over the L (L - 1) distinct pairs
    pairs = np.bincount(block[:, 0] * L + block[:, 1], minlength=L * L).reshape(L, L)
    assert not pairs.diagonal().any()
    assert chisquare(pairs[~np.eye(L, dtype=bool)]).pvalue > 1e-4


@pytest.mark.parametrize(
    "policy,service",
    [
        (NaiveReplication(d=4), Exponential(rate=1.0)),
        (KSplit(k=2, d=2), Exponential(rate=2.0)),
        (LeastKOfN(n=5, k=2), Exponential(rate=2.0)),
        (BatchSampling(n=5, k=4), Exponential(rate=1.0)),
    ],
)
@pytest.mark.parametrize("L", [6, 2000])  # shuffled rows, redrawn rows
def test_engines_agree_on_both_candidate_paths(policy, service, L):
    config = ClusterConfig(lam=0.6, policy=policy, service=service, L=L,
                           warmup_jobs=500, measured_jobs=3_000)
    assert run(config) == run(replace(config, engine="event"))


def _lanes():
    """Configs mixing every non-purging policy, two laws, three loads and two cluster
    sizes (L = 6 shuffles candidate rows, L = 2000 redraws them), 10,000 jobs each."""
    policies = [
        (NaiveReplication(d=2), Exponential(rate=1.0)),
        (NaiveReplication(d=3), Weibull(shape=1.5, scale=1.0)),
        (KSplit(k=3, d=2), Exponential(rate=3.0)),
        (LeastKOfN(n=6, k=3), Weibull(shape=1.5, scale=0.3)),
        (BatchSampling(n=5, k=4), Exponential(rate=1.0)),
    ]
    return [
        ClusterConfig(lam=lam, policy=policy, service=service, L=L, seed=17 * i + j,
                      warmup_jobs=3_000, measured_jobs=7_000, keep_samples=True)
        for i, (policy, service) in enumerate(policies)
        for j, (lam, L) in enumerate([(0.3, 2000), (0.6, 6), (0.9, 2000)])
    ]


def _lockstep_only(monkeypatch):
    def scalar(config):
        raise AssertionError("a lane ran on the scalar engine")

    monkeypatch.setattr(simulator, "_run_fast", scalar)


def test_lockstep_lanes_equal_scalar_runs(monkeypatch):
    configs = _lanes()
    assert configs[0].warmup_jobs + configs[0].measured_jobs > simulator._BLOCK
    want = [run(c) for c in configs]
    _lockstep_only(monkeypatch)
    got = run_many(configs)
    assert got == want
    for a, b in zip(got, want):
        assert np.array_equal(a.samples, b.samples)


def test_lockstep_lanes_equal_event_engine():
    configs = _lanes()[::2]
    assert run_many(configs) == [run(replace(c, engine="event")) for c in configs]


def test_ring_overflow_grows_and_stays_exact(monkeypatch):
    # LeastKOfN(4, 4) has no choice: each server is an M/M/1 queue at
    # load 0.9, whose length passes 1, 2, 4, 8 and 16 within the run
    configs = _lanes() + [
        ClusterConfig(lam=0.9, policy=LeastKOfN(n=4, k=4), service=Exponential(rate=4.0),
                      L=40, seed=s, warmup_jobs=3_000, measured_jobs=7_000, keep_samples=True)
        for s in range(2)
    ]
    want = [run(c) for c in configs]
    depths = []
    real_grow = simulator._grow

    def grow(ring, wp):
        depths.append(ring.shape[1])
        return real_grow(ring, wp)

    monkeypatch.setattr(simulator, "_RING", 1)
    monkeypatch.setattr(simulator, "_grow", grow)
    _lockstep_only(monkeypatch)
    assert run_many(configs) == want
    assert depths[:5] == [1, 2, 4, 8, 16]
    assert max(q for stats in want for q, _ in stats.queue_ccdf) >= 16


def test_run_many_keeps_order_across_engines_and_groups():
    configs = _lanes()[:7] + [
        _config(RedundantRequest(k=2, extra=1), Exponential(rate=2.0), measured_jobs=2_000),
        _config(KSplit(k=2, d=2), Exponential(rate=2.0), measured_jobs=2_000, engine="event"),
        _config(KSplit(k=2, d=2), Exponential(rate=2.0), measured_jobs=3_000),
    ]
    assert run_many(configs) == [run(c) for c in configs]


def test_identical_config_is_bit_identical():
    config = _config(KSplit(k=2, d=2), Exponential(rate=2.0), lam=0.7, seed=9)
    assert run(config) == run(config)


def test_seed_changes_output():
    base = _config(KSplit(k=2, d=2), Exponential(rate=2.0), seed=0)
    other = _config(KSplit(k=2, d=2), Exponential(rate=2.0), seed=1)
    assert run(base).mean != run(other).mean


def test_zero_load_least_k_of_n_closed_form():
    config = ClusterConfig(
        lam=0.01,
        policy=LeastKOfN(n=4, k=2),
        service=Exponential(rate=2.0),
        L=500,
        warmup_jobs=1_000,
        measured_jobs=30_000,
    )
    stats = run(config)
    assert stats.mean == pytest.approx(0.75, abs=0.01)


def test_batch_sampling_rate_and_service_convention():
    # batch jobs arrive at lam * L / k and carry unit-mean tasks, so at
    # vanishing load the job latency is the full harmonic sum H(k)
    config = ClusterConfig(
        lam=0.01,
        policy=BatchSampling(n=14, k=10),
        service=Exponential(rate=1.0),
        L=500,
        warmup_jobs=500,
        measured_jobs=12_000,
    )
    stats = run(config)
    assert stats.mean == pytest.approx(harmonic(10), abs=0.03)


def test_event_engine_invariants():
    policies = [
        (NaiveReplication(d=2), Exponential(rate=1.0)),
        (KSplit(k=2, d=2), Exponential(rate=2.0)),
        (LeastKOfN(n=4, k=2), Exponential(rate=2.0)),
        (BatchSampling(n=3, k=2), Exponential(rate=1.0)),
        (RedundantRequest(k=2, extra=2), Exponential(rate=2.0)),
    ]
    for policy, service in policies:
        config = _config(
            policy, service, lam=0.6, measured_jobs=4_000,
            engine="event", check_invariants=True,
        )
        stats = run(config)
        assert stats.job_count == 4_000


def test_probed_queue_lengths_count_only_live_tasks():
    # purged siblings may still sit in a queue; check_invariants compares
    # every probed length with the live tasks of that server
    config = ClusterConfig(
        lam=0.5, policy=RedundantRequest(k=4, extra=4), service=Exponential(rate=4.0),
        L=2000, seed=1, warmup_jobs=2_000, measured_jobs=5_000,
        engine="event", check_invariants=True,
    )
    stats = run(config)
    assert stats == run(replace(config, check_invariants=False))


def test_redundant_request_needs_event_engine():
    with pytest.raises(ValueError):
        _config(RedundantRequest(k=2, extra=1), Exponential(rate=2.0), engine="fast")
    # engine selection picks the event engine automatically
    stats = run(_config(RedundantRequest(k=2, extra=1), Exponential(rate=2.0), lam=0.3))
    assert stats.job_count == 15_000


def test_redundant_request_low_load_closed_form():
    config = ClusterConfig(
        lam=0.01,
        policy=RedundantRequest(k=2, extra=2),
        service=Exponential(rate=2.0),
        L=400,
        warmup_jobs=500,
        measured_jobs=25_000,
    )
    stats = run(config)
    assert stats.mean == pytest.approx(redundant_request_latency(2, 2), abs=0.01)


def test_purging_beats_waiting_for_everyone():
    # with purging, finishing 2 of 4 is strictly faster than all 4
    kw = dict(lam=0.2, L=300, warmup_jobs=500, measured_jobs=8_000)
    purged = run(ClusterConfig(
        policy=RedundantRequest(k=2, extra=2), service=Exponential(rate=2.0), **kw))
    waited = run(ClusterConfig(
        policy=LeastKOfN(n=4, k=4), service=Exponential(rate=2.0), **kw))
    assert purged.mean < waited.mean


def test_latency_stats_shape():
    config = _config(KSplit(k=2, d=2), Exponential(rate=2.0), keep_samples=True)
    stats = run(config)
    samples = stats.samples
    assert samples is not None and len(samples) == stats.job_count
    assert samples.min() <= stats.mean <= samples.max()
    assert stats.std_err > 0.0
    assert stats.quantiles[0.5] <= stats.quantiles[0.9] <= stats.quantiles[0.99]
    ccdf_probs = [p for _, p in stats.ccdf]
    assert all(a >= b for a, b in zip(ccdf_probs, ccdf_probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in ccdf_probs)
    queue_probs = [p for _, p in stats.queue_ccdf]
    assert queue_probs[0] == 1.0  # P(Q >= 0)
    assert all(a >= b for a, b in zip(queue_probs, queue_probs[1:]))


def test_config_validation():
    exp = Exponential(rate=1.0)
    with pytest.raises(ValueError):
        ClusterConfig(lam=1.0, policy=NaiveReplication(d=2), service=exp)
    with pytest.raises(ValueError):
        ClusterConfig(lam=0.5, policy=LeastKOfN(n=600, k=2), service=exp, L=500)
    with pytest.raises(ValueError):
        ClusterConfig(lam=0.5, policy=NaiveReplication(d=2), service=exp, engine="warp")
    with pytest.raises(ValueError):
        NaiveReplication(d=1)
    with pytest.raises(ValueError):
        LeastKOfN(n=3, k=4)
    with pytest.raises(ValueError):
        BatchSampling(n=20, k=10)  # probe ratio must stay below 2
    with pytest.raises(ValueError):
        RedundantRequest(k=0, extra=1)


def test_gain_experiment_degenerate_split_is_exactly_zero():
    result = gain_experiment(1, 2, 0.3, L=300, warmup_jobs=500, measured_jobs=5_000)
    assert result.gain == 0.0
    assert result.replicated.mean == result.split.mean


def test_gain_experiment_zero_load_matches_closed_form():
    result = gain_experiment(2, 2, 0.01, L=400, warmup_jobs=500, measured_jobs=25_000)
    assert result.gain == pytest.approx(0.25, abs=0.02)
    assert result.std_err < 0.01


def test_empirical_residual_matches_renewal_formula():
    for service, lam in [
        (Exponential(rate=2.0), 0.7),
        (ShiftedExponential(shift=0.1, rate=2.0), 0.5),
        (Constant(value=0.8), 0.5),
    ]:
        want = residual_moment(service)
        got = empirical_residual(service, lam, seed=4, jobs=150_000)
        assert got == pytest.approx(want, rel=0.02)


def test_empirical_residual_rejects_unstable_queue():
    with pytest.raises(ValueError):
        empirical_residual(Exponential(rate=1.0), 1.1)
