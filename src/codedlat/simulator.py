"""Discrete-event simulation of FCFS server banks under randomized dispatch.

Jobs arrive as a Poisson stream to a bank of first-come first-served
servers.  A dispatch policy probes a random server subset per job and
enqueues one task per selected server; the job's latency runs from its
arrival to the completion of the last task it needs.

Two engines produce bit-identical results for non-purging policies.
The fast engine exploits the FCFS identity departure = max(arrival,
previous departure) + service, so it never materializes future events;
the event engine maintains an explicit event heap and is required for
``RedundantRequest``, whose purges change server state mid-service.
Both consume the same three RNG streams (arrivals, selection, service)
in the same order, each drawn in blocks (selection candidates as blocks
of server rows), which is what makes their outputs interchangeable.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dists
from .distributions import ServiceDistribution

__all__ = [
    "NaiveReplication",
    "KSplit",
    "LeastKOfN",
    "BatchSampling",
    "RedundantRequest",
    "Policy",
    "ClusterConfig",
    "LatencyStats",
    "GainResult",
    "run",
    "gain_experiment",
    "empirical_residual",
]


# ---------------------------------------------------------------------------
# dispatch policies

@dataclass(frozen=True)
class NaiveReplication:
    """Whole file to the least loaded of d randomly probed servers."""

    d: int

    def __post_init__(self):
        if self.d < 2 or self.d != int(self.d):
            raise ValueError(f"choice count d must be an integer >= 2, got {self.d}")


@dataclass(frozen=True)
class KSplit:
    """k chunks, each to the least loaded of its own batch of d probes.

    Probes k*d distinct servers, partitions them into k consecutive
    batches in draw order, and takes the per-batch minimum.
    """

    k: int
    d: int

    def __post_init__(self):
        if self.k < 2 or self.k != int(self.k):
            raise ValueError(f"split count k must be an integer >= 2, got {self.k}")
        if self.d < 2 or self.d != int(self.d):
            raise ValueError(f"choice count d must be an integer >= 2, got {self.d}")


@dataclass(frozen=True)
class LeastKOfN:
    """k chunks to the k least loaded of n randomly probed servers."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k != int(self.k):
            raise ValueError(f"split count k must be a positive integer, got {self.k}")
        if self.n < self.k or self.n != int(self.n):
            raise ValueError(f"probe count n must be an integer >= k={self.k}, got {self.n}")


@dataclass(frozen=True)
class BatchSampling:
    """k unit-mean tasks to the k least loaded of n probes, 1 < n/k < 2.

    Same selection mechanics as LeastKOfN but the analytical regime is
    a fractional probe ratio; the harness pairs it with unit-mean task
    service and a job rate scaled down by k.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k != int(self.k):
            raise ValueError(f"task count k must be a positive integer, got {self.k}")
        if self.n != int(self.n) or not self.k < self.n < 2 * self.k:
            raise ValueError(
                f"probe count must satisfy 1 < n/k < 2, got n={self.n}, k={self.k}"
            )


@dataclass(frozen=True)
class RedundantRequest:
    """k + extra tasks dispatched; job done at the k-th completion.

    The extra outstanding tasks are purged instantly at that moment:
    queued ones vanish, an in-service one is terminated and its server
    immediately starts the next task.
    """

    k: int
    extra: int = 0

    def __post_init__(self):
        if self.k < 1 or self.k != int(self.k):
            raise ValueError(f"needed completions k must be a positive integer, got {self.k}")
        if self.extra < 0 or self.extra != int(self.extra):
            raise ValueError(f"extra fan-out must be a nonnegative integer, got {self.extra}")


Policy = NaiveReplication | KSplit | LeastKOfN | BatchSampling | RedundantRequest


def _fanout(policy: Policy) -> int:
    """Servers probed per job."""
    if isinstance(policy, NaiveReplication):
        return policy.d
    if isinstance(policy, KSplit):
        return policy.k * policy.d
    if isinstance(policy, (LeastKOfN, BatchSampling)):
        return policy.n
    if isinstance(policy, RedundantRequest):
        return policy.k + policy.extra
    raise TypeError(f"unknown policy: {policy!r}")


def _tasks_per_job(policy: Policy) -> int:
    if isinstance(policy, NaiveReplication):
        return 1
    if isinstance(policy, RedundantRequest):
        return policy.k + policy.extra
    return policy.k


def _completions_needed(policy: Policy) -> int:
    if isinstance(policy, RedundantRequest):
        return policy.k
    return _tasks_per_job(policy)


def _split_count(policy: Policy) -> int:
    return 1 if isinstance(policy, NaiveReplication) else policy.k


# ---------------------------------------------------------------------------
# configuration and results

@dataclass(frozen=True)
class ClusterConfig:
    """One simulation run: cluster size, load, policy, service law.

    ``lam`` is the per-server arrival intensity; the Poisson job rate
    is L*lam, except under BatchSampling where it is L*lam/k so that
    unit-mean tasks still load each server to lam.  Omitted sizes fall
    back to L = max(2000, 200k), warmup = 20 L jobs, and a measurement
    budget of one million tasks.
    """

    lam: float
    policy: Policy
    service: ServiceDistribution
    L: int | None = None
    seed: int = 0
    warmup_jobs: int | None = None
    measured_jobs: int | None = None
    keep_samples: bool = False
    engine: str = "auto"  # "auto" | "fast" | "event"
    check_invariants: bool = False

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"per-server intensity must lie in (0, 1), got {self.lam}")
        if self.engine not in ("auto", "fast", "event"):
            raise ValueError(f"engine must be 'auto', 'fast' or 'event', got {self.engine!r}")
        if self.engine == "fast" and isinstance(self.policy, RedundantRequest):
            raise ValueError("the fast engine cannot purge; use engine='event' or 'auto'")
        if self.L is None:
            object.__setattr__(self, "L", max(2000, 200 * _split_count(self.policy)))
        if self.L < _fanout(self.policy):
            raise ValueError(
                f"cluster of {self.L} servers cannot host a policy probing "
                f"{_fanout(self.policy)}"
            )
        if self.warmup_jobs is None:
            object.__setattr__(self, "warmup_jobs", 20 * self.L)
        if self.measured_jobs is None:
            object.__setattr__(
                self, "measured_jobs", max(1, 1_000_000 // _tasks_per_job(self.policy))
            )
        if self.warmup_jobs < 0:
            raise ValueError(f"warmup_jobs must be nonnegative, got {self.warmup_jobs}")
        if self.measured_jobs < 1:
            raise ValueError(f"measured_jobs must be positive, got {self.measured_jobs}")


@dataclass(frozen=True)
class LatencyStats:
    """Summary of the measured jobs of one run.

    ``ccdf`` holds (t, empirical P(latency > t)) on a grid of observed
    order statistics; ``queue_ccdf`` holds (r, P(queue length >= r))
    over every queue probed at the arrival epochs of measured jobs.
    """

    mean: float
    std_err: float
    quantiles: dict[float, float]
    ccdf: tuple[tuple[float, float], ...]
    queue_ccdf: tuple[tuple[int, float], ...]
    job_count: int
    samples: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GainResult:
    """Simulated latency gain of a split arm over a replicated arm."""

    gain: float
    std_err: float
    replicated: LatencyStats
    split: LatencyStats


# ---------------------------------------------------------------------------
# shared randomness plumbing

_BLOCK = 8192


class _Stream:
    """Sequential sampler drawing fixed-size blocks from one generator.

    Both engines must call ``take``/``take1`` in the same order with
    the same sizes; the block size is fixed so the underlying call
    pattern (hence the generator state) depends only on that order.
    Selection candidates come in blocks too, from ``_draw_distinct``.
    """

    __slots__ = ("_rng", "_draw", "_buf", "_pos")

    def __init__(self, rng, draw):
        self._rng = rng
        self._draw = draw
        self._buf = np.asarray(draw(rng, _BLOCK), dtype=float)
        self._pos = 0

    def _refill(self, need: int):
        rest = self._buf[self._pos:]
        fresh = np.asarray(self._draw(self._rng, max(_BLOCK, need)), dtype=float)
        self._buf = np.concatenate([rest, fresh])
        self._pos = 0

    def take(self, m: int) -> np.ndarray:
        if self._pos + m > self._buf.size:
            self._refill(m)
        out = self._buf[self._pos : self._pos + m]
        self._pos += m
        return out

    def take1(self) -> float:
        if self._pos >= self._buf.size:
            self._refill(1)
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def _draw_distinct(rng, n_servers: int, m: int):
    """Endless uniform ordered samples of m of L servers, a block per generator call.

    Rows are drawn with replacement and any row that repeats a server is
    redrawn whole: about m exp(m(m-1)/2L) draws per row.  Where that
    reaches L, each row is the head of a shuffle of all L servers instead.
    """
    rows = max(1, _BLOCK // m)
    if m * (m - 1) / (2 * n_servers) > math.log(n_servers / m):
        while True:
            yield from rng.permuted(np.tile(np.arange(n_servers), (rows, 1)), axis=1)[:, :m].tolist()
    while True:
        block = rng.integers(0, n_servers, size=(rows, m))
        redo = np.arange(rows)
        while redo.size:
            srt = np.sort(block[redo], axis=1)
            redo = redo[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
            block[redo] = rng.integers(0, n_servers, size=(redo.size, m))
        yield from block.tolist()


def _make_selector(policy: Policy, n_servers: int, rng):
    """Bind the policy to a closure: qlen callback -> (chosen, probed qlens).

    Ties on queue length resolve to the earliest candidate in draw
    order; the draw itself is uniform, so tie-breaking is deterministic
    without favoring low server indices.  Both engines consume the same
    blocks of candidate rows from one ``_draw_distinct`` per run.
    """
    rows = _draw_distinct(rng, n_servers, _fanout(policy))
    if isinstance(policy, NaiveReplication):
        d = policy.d

        def select(qlen):
            cand = next(rows)
            q = [qlen(s) for s in cand]
            best = 0
            for i in range(1, d):
                if q[i] < q[best]:
                    best = i
            return (cand[best],), q

        return select
    if isinstance(policy, KSplit):
        k, d = policy.k, policy.d

        def select(qlen):
            cand = next(rows)
            q = [qlen(s) for s in cand]
            chosen = []
            for base in range(0, k * d, d):
                best = base
                for i in range(base + 1, base + d):
                    if q[i] < q[best]:
                        best = i
                chosen.append(cand[best])
            return chosen, q

        return select
    if isinstance(policy, (LeastKOfN, BatchSampling)):
        n, k = policy.n, policy.k

        def select(qlen):
            cand = next(rows)
            q = [qlen(s) for s in cand]
            order = sorted(range(n), key=q.__getitem__)  # stable sort keeps draw order
            return [cand[i] for i in order[:k]], q

        return select
    if isinstance(policy, RedundantRequest):
        def select(qlen):
            cand = next(rows)
            return cand, [qlen(s) for s in cand]

        return select
    raise TypeError(f"unknown policy: {policy!r}")


def _streams(config: ClusterConfig):
    ss = np.random.SeedSequence(entropy=int(config.seed))
    arr_seed, sel_seed, svc_seed = ss.spawn(3)
    rate = config.L * config.lam
    if isinstance(config.policy, BatchSampling):
        rate /= config.policy.k
    scale = 1.0 / rate
    arrivals = _Stream(
        np.random.default_rng(arr_seed), lambda rng, m: rng.exponential(scale, m)
    )
    select_rng = np.random.default_rng(sel_seed)
    service = _Stream(
        np.random.default_rng(svc_seed), lambda rng, m: dists.sample(config.service, rng, m)
    )
    return arrivals, select_rng, service


# ---------------------------------------------------------------------------
# fast engine: FCFS departures computed directly, no event queue

def _run_fast(config: ClusterConfig):
    L = config.L
    warmup, measured = config.warmup_jobs, config.measured_jobs
    total = warmup + measured
    arrivals, sel_rng, service = _streams(config)
    select = _make_selector(config.policy, L, sel_rng)
    n_tasks = _tasks_per_job(config.policy)

    pending = [deque() for _ in range(L)]  # undeparted task departure times
    last_dep = [0.0] * L
    lat = np.empty(measured)
    counts = [0] * 256
    cap = 256
    t = 0.0

    def qlen(s):
        dq = pending[s]
        while dq and dq[0] <= t:
            dq.popleft()
        return len(dq)

    for j in range(total):
        t += arrivals.take1()
        chosen, probed = select(qlen)
        svc = service.take(n_tasks)
        worst = 0.0
        for i in range(n_tasks):
            s = chosen[i]
            dq = pending[s]
            while dq and dq[0] <= t:
                dq.popleft()
            start = last_dep[s]
            if start < t:
                start = t
            dep = start + float(svc[i])
            dq.append(dep)
            last_dep[s] = dep
            if dep > worst:
                worst = dep
        if j >= warmup:
            lat[j - warmup] = worst - t
            for q in probed:
                if q >= cap:
                    counts.extend([0] * (q + 1 - cap))
                    cap = q + 1
                counts[q] += 1
    return lat, counts


# ---------------------------------------------------------------------------
# event engine: explicit heap, required for purging

class _Task:
    __slots__ = ("job", "svc", "server", "cancelled", "done")

    def __init__(self, job, svc, server):
        self.job = job
        self.svc = svc
        self.server = server
        self.cancelled = False
        self.done = False


class _Job:
    __slots__ = ("t", "idx", "remaining", "tasks", "max_done_svc")

    def __init__(self, t, idx, remaining):
        self.t = t
        self.idx = idx
        self.remaining = remaining
        self.tasks = ()
        self.max_done_svc = 0.0


def _run_event(config: ClusterConfig):
    # Heap entries sort by (time, kind, seq) with completions at kind 0:
    # a completion at exactly an arrival's epoch is processed first, so
    # the arrival sees it gone, matching the fast engine's strict
    # departure > t queue count.
    L = config.L
    warmup, measured = config.warmup_jobs, config.measured_jobs
    total = warmup + measured
    check = config.check_invariants
    arrivals, sel_rng, service = _streams(config)
    select = _make_selector(config.policy, L, sel_rng)
    n_tasks = _tasks_per_job(config.policy)
    needed = _completions_needed(config.policy)
    purging = isinstance(config.policy, RedundantRequest)

    queues = [deque() for _ in range(L)]
    current: list[_Task | None] = [None] * L
    heap: list[tuple] = []
    seq = 0
    lat = np.empty(measured)
    counts = [0] * 256
    cap = 256
    jobs_done = 0
    arrivals_seen = 0

    def start_next(s, now):
        nonlocal seq
        q = queues[s]
        while q:
            nxt = q.popleft()
            if nxt.cancelled:
                continue
            current[s] = nxt
            seq += 1
            heapq.heappush(heap, (now + nxt.svc, 0, seq, s, nxt))
            return
        current[s] = None

    def qlen(s):
        return len(queues[s]) + (current[s] is not None)

    seq += 1
    heapq.heappush(heap, (arrivals.take1(), 1, seq, 0))

    while heap:
        ev = heapq.heappop(heap)
        t = ev[0]
        if ev[1] == 1:  # arrival of job ev[3]
            j = ev[3]
            arrivals_seen += 1
            chosen, probed = select(qlen)
            svc = service.take(n_tasks)
            job = _Job(t, j, needed)
            tasks = []
            for i in range(n_tasks):
                s = chosen[i]
                task = _Task(job, float(svc[i]), s)
                tasks.append(task)
                if current[s] is None:
                    current[s] = task
                    seq += 1
                    heapq.heappush(heap, (t + task.svc, 0, seq, s, task))
                else:
                    queues[s].append(task)
            job.tasks = tuple(tasks)
            if j >= warmup:
                for q in probed:
                    if q >= cap:
                        counts.extend([0] * (q + 1 - cap))
                        cap = q + 1
                    counts[q] += 1
            if j + 1 < total:
                seq += 1
                heapq.heappush(heap, (t + arrivals.take1(), 1, seq, j + 1))
            continue

        # completion of ev[4] on server ev[3]
        s, task = ev[3], ev[4]
        if current[s] is not task:
            continue  # purged mid-service; obsolete event
        if check and t < task.job.t + task.svc - 1e-9:
            raise AssertionError("task finished before its service demand")
        task.done = True
        start_next(s, t)
        if check and current[s] is None and queues[s]:
            raise AssertionError("idle server with queued work")
        job = task.job
        if task.svc > job.max_done_svc:
            job.max_done_svc = task.svc
        job.remaining -= 1
        if job.remaining == 0:
            jobs_done += 1
            if job.idx >= warmup:
                lat[job.idx - warmup] = t - job.t
            if check and t - job.t < job.max_done_svc - 1e-9:
                raise AssertionError("job latency below its largest completed service")
            if purging:
                for sib in job.tasks:
                    if sib.done or sib.cancelled:
                        continue
                    sib.cancelled = True
                    if current[sib.server] is sib:
                        start_next(sib.server, t)

    if check:
        in_flight = sum(1 for c in current if c is not None)
        if arrivals_seen != jobs_done + in_flight or in_flight != 0:
            raise AssertionError("event-count conservation violated at drain")
    if jobs_done != total:
        raise RuntimeError(f"only {jobs_done} of {total} jobs completed")
    return lat, counts


# ---------------------------------------------------------------------------
# statistics and entry points

_CCDF_POINTS = 48
_QUANTILES = (0.5, 0.9, 0.99)


def _build_stats(lat: np.ndarray, counts: list[int], keep: bool) -> LatencyStats:
    n = lat.size
    srt = np.sort(lat)
    std_err = float(lat.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    grid = np.unique(np.linspace(0, n - 1, num=min(_CCDF_POINTS, n)).round().astype(int))
    ts = srt[grid]
    exceed = n - np.searchsorted(srt, ts, side="right")
    arr = np.asarray(counts, dtype=np.int64)
    nz = np.nonzero(arr)[0]
    arr = arr[: nz[-1] + 1] if nz.size else arr[:1]
    suffix = arr[::-1].cumsum()[::-1]
    total_probes = int(suffix[0]) if suffix.size else 0
    queue_ccdf = tuple(
        (int(r), float(suffix[r]) / total_probes)
        for r in range(arr.size)
        if total_probes and suffix[r] > 0
    )
    return LatencyStats(
        mean=float(lat.mean()),
        std_err=std_err,
        quantiles={p: float(np.quantile(srt, p)) for p in _QUANTILES},
        ccdf=tuple((float(a), float(b) / n) for a, b in zip(ts, exceed)),
        queue_ccdf=queue_ccdf,
        job_count=int(n),
        samples=lat.copy() if keep else None,
    )


def run(config: ClusterConfig) -> LatencyStats:
    """Simulate one cluster and summarize the measured jobs.

    Arrivals stop once warmup + measured jobs have been dispatched;
    under FCFS a job's latency never depends on later arrivals, so the
    truncation is exact rather than a censoring approximation.  The
    same config (same seed) yields bit-identical statistics regardless
    of engine for every policy the fast engine supports.
    """
    engine = config.engine
    if engine == "auto":
        engine = "event" if isinstance(config.policy, RedundantRequest) else "fast"
    lat, counts = _run_event(config) if engine == "event" else _run_fast(config)
    return _build_stats(lat, counts, config.keep_samples)


def gain_experiment(
    k: int,
    d: int,
    lam: float,
    family: str = "exponential",
    seed: int = 0,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    unit_mean: bool = True,
    L: int | None = None,
    warmup_jobs: int | None = None,
    measured_jobs: int = 20_000,
) -> GainResult:
    """Simulated gain of a k-way split over d-choice whole-file dispatch.

    Both arms run on the same seed (shared arrival epochs) and the same
    cluster size; the replicated arm serves whole files via
    ``NaiveReplication(d)``, the split arm serves mean-1/k chunks via
    ``LeastKOfN(d*k, k)``.  At k = 1 the arms coincide and the gain is
    exactly zero.  The combined standard error adds the arms' errors in
    quadrature, which overstates the error of the matched difference.
    """
    full, chunk = dists.service_pair(family, k, shift=shift, shape=shape, unit_mean=unit_mean)
    if L is None:
        L = max(2000, 200 * k)
    common = dict(L=L, seed=seed, warmup_jobs=warmup_jobs, measured_jobs=measured_jobs)
    replicated = run(ClusterConfig(lam, NaiveReplication(d), full, **common))
    split = run(ClusterConfig(lam, LeastKOfN(d * k, k), chunk, **common))
    return GainResult(
        gain=replicated.mean - split.mean,
        std_err=math.hypot(replicated.std_err, split.std_err),
        replicated=replicated,
        split=split,
    )


def empirical_residual(
    service: ServiceDistribution,
    arrival_rate: float,
    *,
    seed: int = 0,
    jobs: int = 200_000,
    warmup: int | None = None,
) -> float:
    """Mean residual service seen by a Poisson arrival at a busy M/G/1 server.

    Single FCFS queue; each arrival that finds the server busy records
    the remaining service of the task in service, and the average over
    those arrivals estimates the stationary busy-conditioned residual
    (E[X^2] / (2 E[X]) in closed form).
    """
    rho = arrival_rate * dists.mean(service)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"unstable single queue: utilization {rho}")
    if warmup is None:
        warmup = jobs // 10
    ss = np.random.SeedSequence(entropy=int(seed))
    arr_seed, _, svc_seed = ss.spawn(3)
    arrivals = _Stream(
        np.random.default_rng(arr_seed),
        lambda rng, m: rng.exponential(1.0 / arrival_rate, m),
    )
    svc = _Stream(
        np.random.default_rng(svc_seed), lambda rng, m: dists.sample(service, rng, m)
    )

    pending = deque()
    last_dep = 0.0
    t = 0.0
    acc = 0.0
    busy = 0
    for j in range(jobs):
        t += arrivals.take1()
        while pending and pending[0] <= t:
            pending.popleft()
        if j >= warmup and pending:
            acc += pending[0] - t
            busy += 1
        start = last_dep if last_dep > t else t
        dep = start + svc.take1()
        pending.append(dep)
        last_dep = dep
    if busy == 0:
        raise RuntimeError("no busy arrivals observed; increase jobs or the arrival rate")
    return acc / busy
