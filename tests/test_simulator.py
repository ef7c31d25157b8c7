import itertools
import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from codedlat.bounds import harmonic, redundant_request_latency, residual_moment
from codedlat.distributions import Constant, Exponential, ShiftedExponential, Weibull, chunk_dist
from codedlat import harness, simulator
from codedlat.simulator import (
    BatchSampling,
    ClusterConfig,
    KSplit,
    LeastKOfN,
    NaiveReplication,
    RedundantRequest,
    _candidate_blocks,
    empirical_residual,
    run,
    run_many,
)


# (warmup, measured) jobs at the scalar engine's chunk edges: one job; warmup ending
# on a chunk's last job; warmup ending on the next chunk's first job, then whole chunks
_CHUNK_EDGES = [(0, 1), (simulator._CHUNK - 1, 2),
                (simulator._CHUNK + 1, 3 * simulator._CHUNK - 1)]


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
        (KSplit(k=8, d=3), Exponential(rate=8.0)),
    ],
)
def test_fast_and_event_engines_agree_exactly(policy, service):
    for warmup, measured in [(2_000, 15_000), *_CHUNK_EDGES]:
        config = _config(policy, service, warmup_jobs=warmup, measured_jobs=measured,
                         keep_samples=True)
        fast = run(config)
        event = run(replace(config, engine="event"))
        assert fast == event, (warmup, measured)
        assert np.array_equal(fast.samples, event.samples)


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


def _candidate_rows(rng, L, m, count):
    """The first ``count`` rows of ``_candidate_blocks``, read block by block."""
    blocks, rows = _candidate_blocks(rng, L, m), []
    while sum(map(len, rows)) < count:
        rows.append(next(blocks))
    return np.concatenate(rows)[:count]


@pytest.mark.parametrize("L,m,path", _SAMPLER_CASES)
def test_candidate_rows_distinct_and_in_range(L, m, path):
    rng = _CountingRng(3)
    block = _candidate_rows(rng, L, m, 3 * max(1, 8192 // m) + 7)
    assert rng.used == {path}
    assert block.shape[1] == m
    assert block.min() >= 0 and block.max() < L
    srt = np.sort(block, axis=1)
    assert not (srt[:, 1:] == srt[:, :-1]).any()


@pytest.mark.parametrize("L,m", [(6, 5), (10, 4)])  # one case per path
def test_candidate_rows_uniform_in_every_position(L, m):
    block = _candidate_rows(np.random.default_rng(11), L, m, 30_000)
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


def test_scalar_runs_of_one_pick_per_group_take_the_fused_step(monkeypatch):
    # the scalar engine finds NaiveReplication's and KSplit's group minima while
    # probing; the event engine and every other shape keep the shared ``_choose``
    def choose(*args):
        raise AssertionError("a run called _choose")

    monkeypatch.setattr(simulator, "_choose", choose)
    for policy in (NaiveReplication(d=3), KSplit(k=3, d=2)):
        config = _config(policy, Exponential(rate=2.0), warmup_jobs=100, measured_jobs=200)
        assert run(config).job_count == 200
        with pytest.raises(AssertionError, match="_choose"):
            run(replace(config, engine="event"))
    for policy in (LeastKOfN(n=6, k=3), RedundantRequest(k=2, extra=1)):
        config = _config(policy, Exponential(rate=2.0), warmup_jobs=100, measured_jobs=200)
        with pytest.raises(AssertionError, match="_choose"):
            run(config)


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


def test_job_rate_divides_by_the_work_per_job():
    batch = ClusterConfig(0.85, BatchSampling(n=14, k=10), Exponential(rate=1.0), L=500)
    assert batch.job_rate == 500 * 0.85 / 10
    split = ClusterConfig(0.85, KSplit(k=10, d=2), Exponential(rate=10.0), L=500)
    assert split.job_rate == 500 * 0.85


def test_event_engine_invariants():
    policies = [
        (NaiveReplication(d=2), Exponential(rate=1.0)),
        (KSplit(k=2, d=2), Exponential(rate=2.0)),
        (LeastKOfN(n=4, k=2), Exponential(rate=2.0)),
        (BatchSampling(n=3, k=2), Exponential(rate=1.0)),
        (RedundantRequest(k=2, extra=2), Exponential(rate=2.0)),
    ]
    for policy, service in policies:
        config = _config(policy, service, lam=0.6, measured_jobs=4_000, engine="event")
        stats = run(config)
        assert stats.job_count == 4_000


def _faulty_push(monkeypatch, fault, at):
    """Make the event engine's ``at``-th ``heappush`` push ``fault(entry)``, or
    nothing when that is None; an entry is (time, seq, (job, service, server))."""
    real, pushes = simulator.heappush, itertools.count()

    def push(heap, entry):
        if next(pushes) == at:
            entry = fault(entry)
            if entry is None:
                return
        real(heap, entry)

    monkeypatch.setattr(simulator, "heappush", push)


_MUTATED = [(KSplit(k=2, d=2), Exponential(rate=2.0)),
            (RedundantRequest(k=2, extra=2), Exponential(rate=2.0))]


@pytest.mark.parametrize("policy,service", _MUTATED)
def test_event_engine_catches_a_task_finished_early(monkeypatch, policy, service):
    # the first completion is pushed for its job's arrival epoch, before its service ends
    _faulty_push(monkeypatch, lambda e: (e[2][0].t, *e[1:]), at=0)
    config = _config(policy, service, L=20, warmup_jobs=50, measured_jobs=200, engine="event")
    with pytest.raises(AssertionError, match="task finished before its service demand"):
        run(config)


def test_event_engine_catches_a_lost_completion(monkeypatch):
    # no purge can end the stranded task (every task is needed), so its server stays busy
    _faulty_push(monkeypatch, lambda e: None, at=10)
    config = _config(*_MUTATED[0], L=20, warmup_jobs=50, measured_jobs=200, engine="event")
    with pytest.raises(AssertionError, match="a server still busy after the drain"):
        run(config)


@pytest.mark.parametrize("policy,service", _MUTATED)
def test_event_engine_catches_a_job_never_done(monkeypatch, policy, service):
    # job 5 waits for more completions than it has tasks; every server still drains
    real = simulator._Job
    monkeypatch.setattr(simulator, "_Job", lambda t, idx, remaining:
                        real(t, idx, remaining + 100 * (idx == 5)))
    config = _config(policy, service, L=20, warmup_jobs=50, measured_jobs=200, engine="event")
    with pytest.raises(RuntimeError, match="only 249 of 250 jobs completed"):
        run(config)


@pytest.mark.parametrize(
    "policy,service,lam",
    [
        *((RedundantRequest(k=4, extra=extra), Exponential(rate=4.0), lam)
          for extra in (1, 2, 4) for lam in (0.01, 0.5)),
        (BatchSampling(n=14, k=10), Exponential(rate=1.0), 0.85),
        # siblings started together finish together, so many heap entries share a
        # time and only their seq orders them: a seq that ``heapreplace`` reused
        # would compare two tasks
        (RedundantRequest(k=4, extra=4), Constant(value=0.25), 0.5),
    ],
)
def test_engines_agree_on_the_benchmarked_shapes(policy, service, lam):
    for warmup, measured in _CHUNK_EDGES:
        config = _config(policy, service, lam=lam, L=2000, warmup_jobs=warmup,
                         measured_jobs=measured, keep_samples=True)
        fast = run(config)
        event = run(replace(config, engine="event"))
        assert fast == event, (warmup, measured)
        assert np.array_equal(fast.samples, event.samples)


@pytest.mark.parametrize("probed", [
    [],
    [0, 9, 3, 9, 12],  # lengths past the counts seen so far
    np.random.default_rng(4).integers(0, 20, 1_536).tolist(),
])
def test_tally_adds_a_plain_bincount(probed):
    counts = np.array([5, 0, 3, 1, 2, 0, 7, 1], dtype=np.int64)
    expect = np.bincount(probed, minlength=counts.size)
    expect[: counts.size] += counts
    tally = simulator._tally(counts, probed)
    assert tally.dtype == expect.dtype and np.array_equal(tally, expect)


def test_probed_queue_lengths_count_only_live_tasks():
    # a purged sibling leaves its queue at once, so a probed length is the
    # queue plus the task in service; the fast engine counts pending leave times
    config = ClusterConfig(
        lam=0.5, policy=RedundantRequest(k=4, extra=4), service=Exponential(rate=4.0),
        L=2000, seed=1, warmup_jobs=2_000, measured_jobs=5_000, engine="event",
    )
    assert run(config) == run(replace(config, engine="fast"))


def test_purging_fast_engine_equals_event_oracle():
    # the fast engine caps each task's departure at its job's needed-th one;
    # the event engine purges from a heap and checks every run
    cases = [
        (RedundantRequest(k=k, extra=extra), service, lam, 40)
        for k, extra in [(1, 0), (2, 1), (3, 2), (2, 3), (4, 4)]
        for service in (Exponential(rate=float(k)), Weibull(shape=1.5, scale=1.0 / k))
        for lam in (0.05, 0.9)
    ] + [
        (RedundantRequest(k=2, extra=2), Constant(value=0.5), lam, 40)  # ties between siblings
        for lam in (0.3, 0.8)
    ] + [
        # every server probed by every job, so equal queues tie at most probes: the
        # fast engine's fused group minimum against the event engine's ``_choose``
        (policy, service, lam, L)
        for policy, service, L in [(KSplit(k=8, d=3), Exponential(rate=8.0), 24),
                                   (NaiveReplication(d=2), Exponential(rate=1.0), 2)]
        for lam in (0.3, 0.9)
    ] + [
        # no choice and no purge: M/M/1 queues at load 0.9 pass length 16, so the
        # fast engine's tally of probed lengths grows across chunks
        (LeastKOfN(n=4, k=4), Exponential(rate=4.0), 0.9, 40)
    ]
    for i, (policy, service, lam, L) in enumerate(cases):
        for warmup, measured in [(500, 2_000), *_CHUNK_EDGES]:
            config = _config(policy, service, lam=lam, L=L, seed=i, warmup_jobs=warmup,
                             measured_jobs=measured, keep_samples=True)
            fast = run(config)
            event = run(replace(config, engine="event"))
            assert fast == event, (policy, service, lam, warmup, measured)
            assert np.array_equal(fast.samples, event.samples)
    assert fast.queue_ccdf[-1][0] >= 16  # the deep case's last run, 65 + 191 jobs


def _residual_job_by_job(service, rate, seed, jobs, warmup):
    """``empirical_residual`` summed one arrival gap and one service at a time."""
    arrivals, _, svc = simulator._streams(seed, rate, service)
    pending, t, acc, busy = deque(), 0.0, 0.0, 0
    for j in range(jobs):
        t += float(arrivals.take(1)[0])
        while pending and pending[0] <= t:
            pending.popleft()
        if j >= warmup and pending:
            acc += pending[0] - t
            busy += 1
        pending.append((pending[-1] if pending else t) + float(svc.take(1)[0]))
    return acc / busy


def test_chunk_size_leaves_scalar_runs_and_residuals_unchanged(monkeypatch):
    configs = [
        _config(policy, service, lam=0.8, warmup_jobs=101, measured_jobs=250, keep_samples=True)
        for policy, service in [
            (KSplit(k=3, d=2), Exponential(rate=3.0)),
            (LeastKOfN(n=6, k=3), Exponential(rate=3.0)),
            (RedundantRequest(k=2, extra=2), Exponential(rate=2.0)),
        ]
    ]
    events = [replace(c, engine="event") for c in configs]
    lanes = [replace(c, warmup_jobs=101, measured_jobs=250) for c in _lanes()[::2]]
    assert len(lanes) >= simulator._LOCKSTEP_MIN_LANES
    laned = []
    real_lanes = simulator._run_lanes

    def run_lanes(group):
        laned.append(len(group))
        return real_lanes(group)

    def outputs():
        stats = [run(c) for c in configs + events] + run_many(lanes)
        return stats, [s.samples for s in stats], empirical_residual(
            Exponential(rate=2.0), 1.8, seed=4, warmup_jobs=100, measured_jobs=901)

    monkeypatch.setattr(simulator, "_run_lanes", run_lanes)
    reference = _residual_job_by_job(Exponential(rate=2.0), 1.8, seed=4, jobs=1_001, warmup=100)
    want, want_samples, want_residual = outputs()
    assert want_residual == reference
    for chunk in (1, 7):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        got, got_samples, got_residual = outputs()
        assert got == want, chunk
        assert all(np.array_equal(a, b) for a, b in zip(got_samples, want_samples))
        assert got_residual == want_residual
    assert laned == [len(lanes)] * 3


def test_run_many_runs_purging_configs_one_by_one(monkeypatch):
    lanes = _lanes()[:6]
    purging = [replace(c, policy=RedundantRequest(k=2, extra=1), service=Exponential(rate=2.0))
               for c in lanes]
    configs = [c for pair in zip(lanes, purging) for c in pair]
    want = [run(c) for c in configs]
    laned = []
    real_lanes = simulator._run_lanes

    def run_lanes(group):
        laned.extend(group)
        return real_lanes(group)

    monkeypatch.setattr(simulator, "_run_lanes", run_lanes)
    assert run_many(configs) == want
    assert laned == lanes


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
        ClusterConfig(lam=0.5, policy=NaiveReplication(d=2), service=exp, engine="auto")
    with pytest.raises(ValueError):
        NaiveReplication(d=1)
    with pytest.raises(ValueError):
        LeastKOfN(n=3, k=4)
    with pytest.raises(ValueError):
        BatchSampling(n=20, k=10)  # probe ratio must stay below 2
    with pytest.raises(ValueError):
        RedundantRequest(k=0, extra=1)


def test_gain_experiment_degenerate_split_is_exactly_zero():
    # at k = 1 the two arms coincide
    replicated, split = run_many(harness.gain_arms(1, 2, 0.3, L=300, warmup_jobs=500,
                                                   measured_jobs=5_000))
    assert replicated.mean - split.mean == 0.0


def test_gain_experiment_zero_load_matches_closed_form():
    replicated, split = run_many(harness.gain_arms(2, 2, 0.01, L=400, warmup_jobs=500,
                                                   measured_jobs=25_000))
    assert replicated.mean - split.mean == pytest.approx(0.25, abs=0.02)
    assert math.hypot(replicated.std_err, split.std_err) < 0.01


@pytest.mark.parametrize("lam", [0.3, 0.7, 0.9])
def test_gain_std_err_matches_the_paired_difference(lam):
    # the arms share only their arrival epochs, so pairing them per job
    # leaves the quadrature standard error where it is
    arms = harness.gain_arms(4, 2, lam, "weibull", seed=3, shape=1.5, L=500,
                             warmup_jobs=10_000, measured_jobs=10_000)
    stats = run_many([replace(c, keep_samples=True) for c in arms])
    diff = stats[0].samples - stats[1].samples
    paired = diff.std(ddof=1) / math.sqrt(diff.size)
    spec = harness.SweepSpec("gain-sweep", (lam,), ((8, 4, 2),), "weibull", shape=1.5)
    (row,) = harness._gain_rows(spec, (8, 4, 2), lam, 3, stats)
    assert row.sim_se == pytest.approx(paired, rel=0.03)


@pytest.mark.parametrize("policy,additive", [
    (NaiveReplication(d=2), ShiftedExponential(shift=0.2, rate=1.0)),
    (LeastKOfN(n=4, k=2), ShiftedExponential(shift=0.1, rate=2.0)),
])
def test_additive_shift_is_the_rescaled_unit_mean_law(policy, additive):
    # a file 0.2 + Exp(1) is the unit-mean file with shift 0.2/1.2 at 1.2x the load,
    # in time units of 1.2: the same seed draws the same jobs
    unit = chunk_dist("shifted-exponential", getattr(policy, "k", 1), shift=0.2 / 1.2)
    want = run(_config(policy, additive, lam=0.5))
    got = run(_config(policy, unit, lam=0.5 * 1.2))
    assert 1.2 * got.mean == pytest.approx(want.mean, rel=1e-12)
    assert got.queue_ccdf == want.queue_ccdf


def test_empirical_residual_matches_renewal_formula():
    for service, lam in [
        (Exponential(rate=2.0), 0.7),
        (ShiftedExponential(shift=0.1, rate=2.0), 0.5),
        (Constant(value=0.8), 0.5),
    ]:
        want = residual_moment(service)
        got = empirical_residual(service, lam, seed=4, warmup_jobs=15_000, measured_jobs=135_000)
        assert got == pytest.approx(want, rel=0.02)


def test_empirical_residual_rejects_unstable_queue():
    with pytest.raises(ValueError):
        empirical_residual(Exponential(rate=1.0), 1.1)


@pytest.mark.parametrize("budgets,message", [
    (dict(warmup_jobs=-5000, measured_jobs=20_000), "warmup_jobs must be nonnegative, got -5000"),
    (dict(measured_jobs=0), "measured_jobs must be positive, got 0"),
])
def test_empirical_residual_rejects_bad_run_lengths_before_any_draw(monkeypatch, budgets, message):
    monkeypatch.setattr(simulator, "_streams", lambda *args: pytest.fail("drew before checking"))
    with pytest.raises(ValueError, match=message):
        empirical_residual(Exponential(rate=1.0), 0.5, **budgets)


def test_empirical_residual_without_a_busy_arrival_raises():
    # one measured arrival at load 0.01 finds the server idle
    with pytest.raises(RuntimeError, match="no busy arrivals observed"):
        empirical_residual(Exponential(rate=1.0), 0.01, warmup_jobs=0, measured_jobs=1)
