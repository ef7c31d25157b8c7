"""Discrete-event simulation of FCFS server banks under randomized dispatch.

Jobs arrive as a Poisson stream to a bank of first-come first-served
servers.  A dispatch policy probes a random server subset per job and
enqueues one task per selected server; the job's latency runs from its
arrival to the completion of the last task it needs.

Three paths produce bit-identical results for non-purging policies.
The scalar fast engine exploits the FCFS identity departure =
max(arrival, previous departure) + service, so it never materializes
future events; ``run_many`` advances many such runs (the points of a
sweep) in lockstep as numpy lanes, counting each queue from a ring of
its server's pending departures; the event engine maintains an explicit
event heap, is the oracle for both, and is required for
``RedundantRequest``, whose purges change server state mid-service.
Every run consumes its own three RNG streams (arrivals, selection,
service), each drawn in whole blocks (selection candidates as blocks of
server rows), which is what makes the outputs interchangeable.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    "run_many",
    "gain_arms",
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


class _Shape(NamedTuple):
    """How a policy dispatches a job.

    ``fanout`` servers are probed and split, in draw order, into groups
    of ``group``; each group sends a task to its ``picks`` least loaded
    servers (ties to the earliest drawn), and the job is done after
    ``needed`` completions.  A redundant request is groups of one.
    """

    fanout: int
    group: int
    picks: int
    needed: int

    @property
    def tasks(self) -> int:
        return self.fanout // self.group * self.picks


_SHAPES = {
    NaiveReplication: lambda p: _Shape(p.d, p.d, 1, 1),
    KSplit: lambda p: _Shape(p.k * p.d, p.d, 1, p.k),
    LeastKOfN: lambda p: _Shape(p.n, p.n, p.k, p.k),
    BatchSampling: lambda p: _Shape(p.n, p.n, p.k, p.k),
    RedundantRequest: lambda p: _Shape(p.k + p.extra, 1, 1, p.k),
}


def _shape(policy: Policy) -> _Shape:
    try:
        return _SHAPES[type(policy)](policy)
    except KeyError:
        raise TypeError(f"unknown policy: {policy!r}") from None


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
        shape = _shape(self.policy)
        if self.L is None:
            object.__setattr__(self, "L", max(2000, 200 * shape.needed))
        if self.L < shape.fanout:
            raise ValueError(
                f"cluster of {self.L} servers cannot host a policy probing {shape.fanout}"
            )
        if self.warmup_jobs is None:
            object.__setattr__(self, "warmup_jobs", 20 * self.L)
        if self.measured_jobs is None:
            object.__setattr__(
                self, "measured_jobs", max(1, 1_000_000 // shape.tasks)
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

    @classmethod
    def of(cls, replicated: LatencyStats, split: LatencyStats) -> GainResult:
        """Replicated minus split mean; the standard errors add in
        quadrature, which overstates the error of the matched difference."""
        return cls(replicated.mean - split.mean, math.hypot(replicated.std_err, split.std_err),
                   replicated, split)


# ---------------------------------------------------------------------------
# shared randomness plumbing

_BLOCK = 8192


def _blocks(draw, rng):
    """Endless blocks of ``_BLOCK`` values, one generator call each."""
    while True:
        yield np.asarray(draw(rng, _BLOCK), dtype=float)


class _Stream:
    """Sequential reader of an endless iterator of blocks.

    Each generator only ever sees whole-block calls, made in order, so
    the values a stream yields depend on neither how many are taken at
    a time nor when: the engines and the lockstep lanes read the same
    numbers however they slice them.  Blocks may be rows (candidates).
    """

    __slots__ = ("_blocks", "_buf", "_pos")

    def __init__(self, blocks):
        self._blocks = blocks
        self._buf = next(blocks)
        self._pos = 0

    def take(self, m: int) -> np.ndarray:
        while self._pos + m > len(self._buf):
            self._buf = np.concatenate((self._buf[self._pos :], next(self._blocks)))
            self._pos = 0
        out = self._buf[self._pos : self._pos + m]
        self._pos += m
        return out

    def take1(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = next(self._blocks)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def _candidate_blocks(rng, n_servers: int, m: int):
    """Endless blocks of uniform ordered samples of m of L servers, one row per job.

    A block of about ``_BLOCK // m`` rows is drawn with replacement and
    any row that repeats a server is redrawn whole: about
    m exp(m(m-1)/2L) draws per row.  Where that reaches L, each row is
    the head of a shuffle of all L servers instead.
    """
    rows = max(1, _BLOCK // m)
    if m * (m - 1) / (2 * n_servers) > math.log(n_servers / m):
        everyone = np.tile(np.arange(n_servers), (rows, 1))
        while True:
            yield rng.permuted(everyone, axis=1)[:, :m]
    while True:
        block = rng.integers(0, n_servers, size=(rows, m))
        redo = np.arange(rows)
        while redo.size:
            srt = np.sort(block[redo], axis=1)
            redo = redo[(srt[:, 1:] == srt[:, :-1]).any(axis=1)]
            block[redo] = rng.integers(0, n_servers, size=(redo.size, m))
        yield block


def _draw_distinct(rng, n_servers: int, m: int):
    """The rows of ``_candidate_blocks``, one list per job."""
    for block in _candidate_blocks(rng, n_servers, m):
        yield from block.tolist()


def _make_selector(policy: Policy, n_servers: int, rng):
    """Bind the policy to a closure: qlen callback -> (chosen, probed qlens).

    Ties on queue length resolve to the earliest candidate in draw
    order; the draw itself is uniform, so tie-breaking is deterministic
    without favoring low server indices.  Both engines consume the same
    blocks of candidate rows from one ``_draw_distinct`` per run.
    """
    fanout, group, picks, _ = _shape(policy)
    rows = _draw_distinct(rng, n_servers, fanout)
    if picks > 1:  # the least loaded picks of one group
        def select(qlen):
            cand = next(rows)
            q = [qlen(s) for s in cand]
            order = sorted(range(fanout), key=q.__getitem__)  # stable sort keeps draw order
            return [cand[i] for i in order[:picks]], q

        return select

    def select(qlen):  # the least loaded of each group
        cand = next(rows)
        q = [qlen(s) for s in cand]
        if group == 1:
            return cand, q
        chosen = []
        for base in range(0, fanout, group):
            best = base
            for i in range(base + 1, base + group):
                if q[i] < q[best]:
                    best = i
            chosen.append(cand[best])
        return chosen, q

    return select


def _streams(config: ClusterConfig):
    """(arrival gaps, selection generator, service draws) of one run."""
    ss = np.random.SeedSequence(entropy=int(config.seed))
    arr_seed, sel_seed, svc_seed = ss.spawn(3)
    rate = config.L * config.lam
    if isinstance(config.policy, BatchSampling):
        rate /= config.policy.k
    scale = 1.0 / rate
    arrivals = _Stream(_blocks(
        lambda rng, m: rng.exponential(scale, m), np.random.default_rng(arr_seed)))
    select_rng = np.random.default_rng(sel_seed)
    service = _Stream(_blocks(
        lambda rng, m: dists.sample(config.service, rng, m), np.random.default_rng(svc_seed)))
    return arrivals, select_rng, service


# ---------------------------------------------------------------------------
# fast engine: FCFS departures computed directly, no event queue

def _run_fast(config: ClusterConfig):
    L = config.L
    warmup, measured = config.warmup_jobs, config.measured_jobs
    total = warmup + measured
    arrivals, sel_rng, service = _streams(config)
    select = _make_selector(config.policy, L, sel_rng)
    n_tasks = _shape(config.policy).tasks

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
            # chosen servers were just probed at t, so their departed tasks are gone
            s = chosen[i]
            start = last_dep[s]
            if start < t:
                start = t
            dep = start + float(svc[i])
            pending[s].append(dep)
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
# lockstep lanes: many fast-engine runs advanced together, one job per numpy step

_LOCKSTEP_MIN_LANES = 6  # smaller groups run faster one by one
_RING = 8  # initial slots per server for pending departures; doubled on demand
_CHUNK = 64  # jobs whose draws are gathered, and whose outputs are summed, at once


def _grow(ring: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """Double every server's ring, oldest departure first; nothing is dropped."""
    depth = ring.shape[1]
    grown = np.zeros((len(ring), 2 * depth))
    grown[:, :depth] = np.take_along_axis(ring, (wp[:, None] + np.arange(depth)) % depth, axis=1)
    wp[:] = depth
    return grown


def _run_lanes(configs: Sequence[ClusterConfig]):
    """``run`` of fast-engine configs sharing warmup and measured counts, all at once.

    Each lane has its own streams and servers: rows of one ring of every
    server's last ``depth`` departures, so a queue length is the count of
    slots ahead of t (the strict ``dep > t`` rule); a write over a slot
    still ahead of t doubles the depth first.  Selection is a stable
    argsort of (group id, queue length), then the policy's positions.
    Lanes are padded to a common width with columns at private dummy
    servers that sort last and get zero-service padding tasks.
    """
    R = len(configs)
    warmup, measured = configs[0].warmup_jobs, configs[0].measured_jobs
    shapes = [_shape(c.policy) for c in configs]
    K = max(sh.tasks for sh in shapes)
    W = max(sh.fanout + K - sh.tasks for sh in shapes)
    offsets = np.cumsum([0] + [c.L for c in configs])
    servers = int(offsets[-1]) + R * W
    template = servers - R * W + np.arange(R * W).reshape(R, W)  # dummy servers
    gid = np.full((R, W), W)
    pick = np.empty((R, K), dtype=np.int64)
    lanes = []
    for r, (config, sh) in enumerate(zip(configs, shapes)):
        gid[r, : sh.fanout] = np.arange(sh.fanout) // sh.group
        starts = np.arange(0, sh.fanout, sh.group)[:, None]
        pick[r, : sh.tasks] = (starts + np.arange(sh.picks)).ravel()
        pick[r, sh.tasks :] = np.arange(W - K + sh.tasks, W)  # padding columns, sorted last
        arrivals, sel_rng, service = _streams(config)
        rows = _Stream(_candidate_blocks(sel_rng, config.L, sh.fanout))
        lanes.append((arrivals, rows, service, sh, offsets[r]))
    pick = (np.arange(R)[:, None] * W + pick).ravel()
    row_base = np.repeat(np.arange(R) * W, K)
    real = gid < W
    lane_of_real = np.nonzero(real)[0]

    depth = _RING
    ring = np.zeros((servers, depth))
    wp = np.zeros(servers, dtype=np.int64)
    last = np.zeros(servers)
    key_base = gid * (depth + 1)
    lat = np.empty((R, measured))
    counts = np.zeros((R, 1), dtype=np.int64)
    total = warmup + measured
    # chunk buffers, reused: padding columns and padding services stay put
    t, t_task = np.zeros((_CHUNK + 1, R)), np.empty((_CHUNK, R, K))
    cand = np.empty((_CHUNK, R, W), dtype=np.int64)
    cand[:] = template
    svc = np.zeros((_CHUNK, R, K))
    qs = np.empty((_CHUNK, R, W), dtype=np.int64)
    deps = np.empty((_CHUNK, R * K))
    for j0 in range(0, total, _CHUNK):
        J = min(_CHUNK, total - j0)
        t[0] = t[_CHUNK]
        for r, (arrivals, rows, service, sh, offset) in enumerate(lanes):
            t[1 : J + 1, r] = arrivals.take(J)
            cand[:J, r, : sh.fanout] = rows.take(J) + offset
            svc[:J, r, : sh.tasks] = service.take(J * sh.tasks).reshape(J, sh.tasks)
        np.add.accumulate(t[: J + 1], axis=0, out=t[: J + 1])  # sequential, as the engines add gaps
        t_probe = t[1:, :, None]
        t_task[:] = t_probe
        flat_task, flat_svc = t_task.reshape(_CHUNK, R * K), svc.reshape(_CHUNK, R * K)
        for j in range(J):
            c, q, dep = cand[j], qs[j], deps[j]
            np.sum(ring.take(c, axis=0) > t_probe[j, :, :, None], axis=-1, out=q)
            s = c.take(row_base + (key_base + q).argsort(axis=1, kind="stable").take(pick))
            if q.max() == depth and (ring[s, wp[s]] > flat_task[j]).any():
                ring = _grow(ring, wp)
                depth = ring.shape[1]
                key_base = gid * (depth + 1)
            w = wp[s]
            np.maximum(last[s], flat_task[j], out=dep)
            dep += flat_svc[j]
            ring[s, w] = dep
            wp[s] = (w + 1) % depth
            last[s] = dep
        first = max(warmup - j0, 0)
        if first < J:
            done = j0 + first - warmup
            worst = deps[first:J].reshape(-1, R, K).max(-1)
            lat[:, done : done + J - first] = (worst - t[first + 1 : J + 1]).T
            counts = np.pad(counts, ((0, 0), (0, depth + 1 - counts.shape[1])))
            codes = qs[first:J, real] + lane_of_real * (depth + 1)
            counts += np.bincount(codes.ravel(), minlength=R * (depth + 1)).reshape(R, depth + 1)
    return [_build_stats(lat[r], counts[r], c.keep_samples) for r, c in enumerate(configs)]


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
    shape = _shape(config.policy)
    n_tasks, needed = shape.tasks, shape.needed
    purging = isinstance(config.policy, RedundantRequest)

    queues = [deque() for _ in range(L)]  # may still hold cancelled tasks
    current: list[_Task | None] = [None] * L
    live = [0] * L  # tasks queued or in service, cancelled ones excluded
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

    def checked_qlen(s):
        n = live[s]
        if n != sum(not x.cancelled for x in queues[s]) + (current[s] is not None):
            raise AssertionError("probed queue length differs from its live tasks")
        return n

    qlen = checked_qlen if check else live.__getitem__

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
                live[s] += 1
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
        live[s] -= 1
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
                    live[sib.server] -= 1
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


def _engine(config: ClusterConfig) -> str:
    if config.engine == "auto":
        return "event" if isinstance(config.policy, RedundantRequest) else "fast"
    return config.engine


def run(config: ClusterConfig) -> LatencyStats:
    """Simulate one cluster and summarize the measured jobs.

    Arrivals stop once warmup + measured jobs have been dispatched;
    under FCFS a job's latency never depends on later arrivals, so the
    truncation is exact rather than a censoring approximation.  The
    same config (same seed) yields bit-identical statistics regardless
    of engine for every policy the fast engine supports.
    """
    lat, counts = _run_event(config) if _engine(config) == "event" else _run_fast(config)
    return _build_stats(lat, counts, config.keep_samples)


def run_many(configs: Sequence[ClusterConfig]) -> list[LatencyStats]:
    """``[run(c) for c in configs]``, bit for bit, with sweeps run as lockstep lanes.

    Fast-engine configs that share warmup and measured job counts
    advance together, one job per numpy step, when there are at least
    ``_LOCKSTEP_MIN_LANES`` of them; every other config goes through
    ``run``.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(configs):
        if _engine(config) == "fast":
            groups.setdefault((config.warmup_jobs, config.measured_jobs), []).append(i)
    out = {}
    for idx in groups.values():
        if len(idx) >= _LOCKSTEP_MIN_LANES:
            out.update(zip(idx, _run_lanes([configs[i] for i in idx])))
    return [out[i] if i in out else run(config) for i, config in enumerate(configs)]


def gain_arms(
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
) -> tuple[ClusterConfig, ClusterConfig]:
    """The (replicated, split) configs of a k-way split against d-choice dispatch.

    Both arms run on the same seed (shared arrival epochs) and the same
    cluster size; the replicated arm serves whole files via
    ``NaiveReplication(d)``, the split arm serves mean-1/k chunks via
    ``LeastKOfN(d*k, k)``.
    """
    full, chunk = dists.service_pair(family, k, shift=shift, shape=shape, unit_mean=unit_mean)
    if L is None:
        L = max(2000, 200 * k)
    common = dict(L=L, seed=seed, warmup_jobs=warmup_jobs, measured_jobs=measured_jobs)
    return (ClusterConfig(lam, NaiveReplication(d), full, **common),
            ClusterConfig(lam, LeastKOfN(d * k, k), chunk, **common))


def gain_experiment(k: int, d: int, lam: float, family: str = "exponential", seed: int = 0,
                    **options) -> GainResult:
    """Simulated gain of a k-way split over d-choice whole-file dispatch.

    Runs the two ``gain_arms`` (same keyword options).  At k = 1 the
    arms coincide and the gain is exactly zero.
    """
    return GainResult.of(*run_many(gain_arms(k, d, lam, family, seed, **options)))


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
    arrivals = _Stream(_blocks(
        lambda rng, m: rng.exponential(1.0 / arrival_rate, m), np.random.default_rng(arr_seed)))
    svc = _Stream(_blocks(
        lambda rng, m: dists.sample(service, rng, m), np.random.default_rng(svc_seed)))

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
