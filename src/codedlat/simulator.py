"""Discrete-event simulation of FCFS server banks under randomized dispatch.

Jobs arrive as a Poisson stream to a bank of first-come first-served
servers.  A dispatch policy probes a random server subset per job and
enqueues one task per selected server; the job's latency runs from its
arrival to the completion of the last task it needs.

Three paths produce bit-identical results.  The scalar fast engine,
the default, exploits the FCFS identity departure = max(arrival,
previous departure) + service, so it never materializes future events.
A task's start depends only on earlier jobs, so a job's completion time
is fixed when it is dispatched; under purging (``RedundantRequest``)
each task leaves its server at the earlier of its own departure and
that time.  ``NaiveReplication`` and ``KSplit`` jobs keep each group's
least queue while probing it and place the task at once; other jobs
are probed whole, then ``_choose`` picks.  ``run_many`` advances
many non-purging runs (the points of a sweep) in lockstep as numpy
lanes, counting each queue with one popcount over a ring of its
server's pending departures.  The event engine, the oracle for both,
processes each completion from an explicit heap.  A task is a (job,
service, server) tuple in its server's deque, the task in service at
the head.  A purged task leaves its deque at once, so a completion
whose task is no longer at the head is skipped.  Every run checks that
no task finishes before its service is done and that every job
completes.
Every run consumes its own three RNG streams (arrivals, selection,
service), each drawn in whole blocks (selection candidates as blocks of
server rows), and every engine reads them through one chunked reader,
``_jobs``, ``_CHUNK`` jobs at a time, which is what makes the outputs
interchangeable.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
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
    "run",
    "run_many",
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
    service, and the job rate is scaled down by k.
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
    ``work`` is a job's mean service in server-time units, by which the
    job rate is divided: k unit-mean tasks under batch sampling (Ying,
    Srikant & Kang, INFOCOM 2015), one file's worth otherwise.
    """

    fanout: int
    group: int
    picks: int
    needed: int
    work: int = 1

    @property
    def tasks(self) -> int:
        return self.fanout // self.group * self.picks


_SHAPES = {
    NaiveReplication: lambda p: _Shape(p.d, p.d, 1, 1),
    KSplit: lambda p: _Shape(p.k * p.d, p.d, 1, p.k),
    LeastKOfN: lambda p: _Shape(p.n, p.n, p.k, p.k),
    BatchSampling: lambda p: _Shape(p.n, p.n, p.k, p.k, p.k),
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
    ``job_rate`` is L*lam over the work per job in the policy table:
    k under BatchSampling, so its k unit-mean tasks still load each
    server to lam, and 1 otherwise.  Omitted sizes fall back to
    L = max(2000, 200k), warmup = 20 L jobs, and a measurement budget of
    one million tasks.
    """

    lam: float
    policy: Policy
    service: ServiceDistribution
    L: int | None = None
    seed: int = 0
    warmup_jobs: int | None = None
    measured_jobs: int | None = None
    keep_samples: bool = False
    engine: str = "fast"  # or "event", the oracle, which checks its own events

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"per-server intensity must lie in (0, 1), got {self.lam}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.engine not in ("fast", "event"):
            raise ValueError(f"engine must be 'fast' or 'event', got {self.engine!r}")
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

    @property
    def job_rate(self) -> float:
        """Poisson rate of job arrivals to the whole cluster."""
        return self.L * self.lam / _shape(self.policy).work


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


# ---------------------------------------------------------------------------
# shared randomness plumbing

_BLOCK = 8192
_CHUNK = 64  # jobs whose draws are gathered, and whose outputs are summed, at once


def _blocks(draw, rng):
    """Endless blocks of ``_BLOCK`` values, one generator call each."""
    while True:
        yield np.asarray(draw(rng, _BLOCK), dtype=float)


class _Stream:
    """Sequential reader of an endless iterator of blocks.

    Each generator only ever sees whole-block calls, made in order, so
    the values a stream yields depend on neither how many are taken at
    a time nor when: every engine reads the same numbers through
    ``_jobs``, at any chunk size.  Blocks may be rows (candidates).
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


def _choose(cand: list, q: list, group: int, picks: int) -> list:
    """The servers sent a task: in each run of ``group`` candidates, the ``picks``
    with the shortest probed queues ``q``, ties to the earliest drawn.  The draw
    is uniform, so tie-breaking is deterministic without favoring any server.
    The event oracle's rule, and the scalar engine's where picks > 1 or a job purges.
    """
    if group == 1:
        return cand
    if picks > 1:  # one group; the stable sort keeps draw order
        return [cand[i] for i in sorted(range(len(q)), key=q.__getitem__)[:picks]]
    return [cand[min(range(b, b + group), key=q.__getitem__)] for b in range(0, len(q), group)]


def _streams(seed: int, rate: float, service: ServiceDistribution):
    """(arrival gaps at ``rate``, selection generator, service draws) of one run."""
    arr_seed, sel_seed, svc_seed = np.random.SeedSequence(entropy=int(seed)).spawn(3)
    scale = 1.0 / rate
    arrivals = _Stream(_blocks(
        lambda rng, m: rng.exponential(scale, m), np.random.default_rng(arr_seed)))
    draws = _Stream(_blocks(
        lambda rng, m: dists.sample(service, rng, m), np.random.default_rng(svc_seed)))
    return arrivals, np.random.default_rng(sel_seed), draws


def _epochs(arrivals: _Stream, total: int):
    """(first job, arrival epochs) of ``total`` jobs, ``_CHUNK`` at a time, each
    summed in order from the last one before (``np.add.accumulate`` is sequential),
    so every epoch is the same float as ``t += gap`` job by job.  The epochs are a
    view that the next chunk overwrites."""
    t = np.zeros(_CHUNK + 1)
    for j0 in range(0, total, _CHUNK):
        J = min(_CHUNK, total - j0)
        t[0] = t[_CHUNK]
        t[1 : J + 1] = arrivals.take(J)
        yield j0, np.add.accumulate(t[: J + 1], out=t[: J + 1])[1:]


def _jobs(config: ClusterConfig):
    """(first job, arrival epochs, candidate rows, service rows) of a run's jobs,
    ``_CHUNK`` at a time: the one reader of its streams for every engine.  The
    epochs are ``_epochs``' view, so a consumer copies them before the next pull."""
    arrivals, sel_rng, service = _streams(config.seed, config.job_rate, config.service)
    shape = _shape(config.policy)
    rows = _Stream(_candidate_blocks(sel_rng, config.L, shape.fanout))
    for j0, epochs in _epochs(arrivals, config.warmup_jobs + config.measured_jobs):
        J = len(epochs)
        yield j0, epochs, rows.take(J), service.take(J * shape.tasks).reshape(J, shape.tasks)


def _tally(counts: np.ndarray, probed: list) -> np.ndarray:
    """``counts`` of probes by queue length seen, plus the lengths ``probed``."""
    tally = np.bincount(np.fromiter(probed, np.intp, len(probed)), minlength=counts.size)
    tally[: counts.size] += counts
    return tally


# ---------------------------------------------------------------------------
# fast engine: FCFS departures computed directly, no event queue

def _run_fast(config: ClusterConfig):
    warmup = config.warmup_jobs
    shape = _shape(config.policy)
    fanout, group, picks = shape.fanout, shape.group, shape.picks
    n_tasks, last_needed, purging = shape.tasks, shape.needed - 1, shape.needed < shape.tasks
    fused = picks == 1 and not purging  # each group's least queue is kept while probing
    longest = warmup + config.measured_jobs  # more tasks than any queue holds

    pending = [deque() for _ in range(config.L)]  # times the tasks at a server leave, ascending
    lat = np.empty(config.measured_jobs)
    counts = np.zeros(1, dtype=np.int64)  # probes by queue length seen
    for j0, epochs, rows, service in _jobs(config):
        J, epochs = len(epochs), epochs.tolist()
        probed, dones = [], []
        if fused:
            for t, groups, svc in zip(epochs, rows.reshape(J, -1, group).tolist(), service.tolist()):
                done = t  # no task leaves before t, so done ends as the latest departure
                for cand, dep in zip(groups, svc):
                    least = longest
                    for s in cand:
                        dq = pending[s]
                        while dq and dq[0] <= t:
                            dq.popleft()
                        n = len(dq)
                        probed.append(n)
                        if n < least:  # ties go to the earliest drawn
                            least, best = n, dq
                    dep += best[-1] if best else t
                    best.append(dep)
                    if dep > done:
                        done = dep
                dones.append(done)
        else:
            for t, cand, dep in zip(epochs, rows.tolist(), service.tolist()):
                q = []
                for s in cand:
                    dq = pending[s]
                    while dq and dq[0] <= t:
                        dq.popleft()
                    q.append(len(dq))
                probed += q
                chosen = _choose(cand, q, group, picks)
                for i in range(n_tasks):
                    # the chosen servers were just probed, so a server is busy until its last leave time
                    dq = pending[chosen[i]]
                    dep[i] += dq[-1] if dq else t
                    dq.append(dep[i])
                # the job is done at its needed-th departure; a task still there then is purged
                done = sorted(dep)[last_needed] if purging else max(dep)
                if purging:
                    for i in range(n_tasks):
                        if dep[i] > done:
                            dq = pending[chosen[i]]
                            dq.pop()
                            insort(dq, done)
                dones.append(done)
        first = max(warmup - j0, 0)
        if first < J:
            np.subtract(dones[first:], epochs[first:], out=lat[j0 + first - warmup : j0 + J - warmup])
            counts = _tally(counts, probed[first * fanout :])
    return lat, counts


# ---------------------------------------------------------------------------
# lockstep lanes: many fast-engine runs advanced together, one job per numpy step

_LOCKSTEP_MIN_LANES = 6  # smaller groups run faster one by one
_RING = 8  # initial slots per server for pending departures; doubled on demand


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
    still ahead of t doubles the depth first.  The probe writes ``dep > t``
    per slot into a zeroed bool buffer padded to whole 8-byte words and
    counts each server's flags with one ``np.bitwise_count`` per ``uint64``
    word, at every depth.  A server's last departure, where its next task
    starts, lives apart in the flat array ``last``.  Selection is a stable
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
    for r, sh in enumerate(shapes):
        gid[r, : sh.fanout] = np.arange(sh.fanout) // sh.group
        starts = np.arange(0, sh.fanout, sh.group)[:, None]
        pick[r, : sh.tasks] = (starts + np.arange(sh.picks)).ravel()
        pick[r, sh.tasks :] = np.arange(W - K + sh.tasks, W)  # padding columns, sorted last
    pick = (np.arange(R)[:, None] * W + pick).ravel()
    row_base = np.repeat(np.arange(R) * W, K)
    real = gid < W
    lane_of_real = np.nonzero(real)[0]

    depth = _RING
    ring, last = np.zeros((servers, depth)), np.zeros(servers)
    wp = np.zeros(servers, dtype=np.int64)
    key_base = gid * (depth + 1)
    ahead = np.zeros((R, W, -(-depth // 8) * 8), dtype=bool)  # whole uint64 words
    lat = np.empty((R, measured))
    counts = np.zeros((R, 1), dtype=np.int64)
    # chunk buffers, reused: padding columns and padding services stay put
    t, t_task = np.empty((_CHUNK, R)), np.empty((_CHUNK, R, K))
    cand = np.empty((_CHUNK, R, W), dtype=np.int64)
    cand[:] = template
    svc = np.zeros((_CHUNK, R, K))
    qs = np.empty((_CHUNK, R, W), dtype=np.int64)
    deps = np.empty((_CHUNK, R * K))
    for chunk in zip(*map(_jobs, configs)):
        j0, J = chunk[0][0], len(chunk[0][1])
        for r, (_, epochs, rows, service) in enumerate(chunk):
            t[:J, r] = epochs
            cand[:J, r, : shapes[r].fanout] = rows + offsets[r]
            svc[:J, r, : shapes[r].tasks] = service
        t_probe = t[:, :, None]
        t_task[:] = t_probe
        flat_task, flat_svc = t_task.reshape(_CHUNK, R * K), svc.reshape(_CHUNK, R * K)
        for j in range(J):
            c, q, dep = cand[j], qs[j], deps[j]
            np.greater(ring.take(c, axis=0), t_probe[j, :, :, None], out=ahead[..., :depth])
            np.add.reduce(np.bitwise_count(ahead.view(np.uint64)), axis=2, out=q)
            s = c.take(row_base + (key_base + q).argsort(axis=1, kind="stable").take(pick))
            if q.max() == depth and (ring[s, wp[s]] > flat_task[j]).any():
                ring = _grow(ring, wp)
                depth = ring.shape[1]
                key_base = gid * (depth + 1)
                ahead = np.zeros((R, W, -(-depth // 8) * 8), dtype=bool)
            w = wp[s]
            np.maximum(last.take(s), flat_task[j], out=dep)
            dep += flat_svc[j]
            ring[s, w] = last[s] = dep
            wp[s] = (w + 1) % depth
        first = max(warmup - j0, 0)
        if first < J:
            done = j0 + first - warmup
            worst = deps[first:J].reshape(-1, R, K).max(-1)
            lat[:, done : done + J - first] = (worst - t[first:J]).T
            counts = np.pad(counts, ((0, 0), (0, depth + 1 - counts.shape[1])))
            codes = qs[first:J, real] + lane_of_real * (depth + 1)
            counts += np.bincount(codes.ravel(), minlength=R * (depth + 1)).reshape(R, depth + 1)
    return [_build_stats(lat[r], np.trim_zeros(counts[r], "b"), c.keep_samples)
            for r, c in enumerate(configs)]


# ---------------------------------------------------------------------------
# event engine: explicit completion heap, the oracle for the fast paths

class _Job:
    __slots__ = ("t", "idx", "remaining", "tasks")

    def __init__(self, t, idx, remaining):
        self.t = t
        self.idx = idx
        self.remaining = remaining
        self.tasks = ()


def _run_event(config: ClusterConfig):
    # A task is a (job, service, server) tuple.  Each server's deque holds its
    # tasks, the one in service at the head, so a probe reads its length.  Only
    # completions live in the heap, as (time, seq, task) ordered by (time, seq).
    # Each arrival first processes every completion at or before its epoch, so
    # it sees those tasks gone, matching the fast engine's strict departure > t
    # queue count; a last arrival at inf drains the heap.  A purged task leaves
    # its deque at once, so a popped completion whose task is no longer at its
    # server's head was purged in service and is skipped.
    L = config.L
    warmup, measured = config.warmup_jobs, config.measured_jobs
    total = warmup + measured
    shape = _shape(config.policy)
    fanout, group, picks = shape.fanout, shape.group, shape.picks
    needed, purging = shape.needed, shape.needed < shape.tasks

    queues = [deque() for _ in range(L)]
    heap: list[tuple] = []
    seq = 0
    lat = np.empty(measured)
    counts = np.zeros(1, dtype=np.int64)  # probes by queue length seen
    probed: list[int] = []
    jobs_done = 0

    def arrivals():
        # every job, then the last arrival; a chunk's probes are tallied once
        # its jobs are dispatched
        nonlocal counts
        for j0, epochs, rows, service in _jobs(config):
            yield from zip(range(j0, total), epochs.tolist(), rows.tolist(), service.tolist())
            counts = _tally(counts, probed[max(warmup - j0, 0) * fanout :])
            probed.clear()
        yield total, math.inf, None, None

    for j, t, cand, svc in arrivals():
        while heap and heap[0][0] <= t:
            now, _, task = heap[0]
            job, x, s = task
            dq = queues[s]
            if not dq or dq[0] is not task:  # purged in service; obsolete event
                heappop(heap)
                continue
            if now < job.t + x - 1e-9:
                raise AssertionError("task finished before its service demand")
            dq.popleft()
            if dq:
                seq += 1
                heapreplace(heap, (now + dq[0][1], seq, dq[0]))
            else:
                heappop(heap)
            job.remaining -= 1
            if job.remaining:
                continue
            jobs_done += 1
            if job.idx >= warmup:
                lat[job.idx - warmup] = now - job.t
            for sib in job.tasks:  # purge the tasks still outstanding (a done one is in no deque)
                dq = queues[sib[2]]
                if dq and dq[0] is sib:
                    dq.popleft()
                    if dq:
                        seq += 1
                        heappush(heap, (now + dq[0][1], seq, dq[0]))
                elif sib in dq:
                    dq.remove(sib)
            job.tasks = ()  # no job <-> task cycle: a finished job is freed without the GC
        if j == total:  # the last arrival only drains
            break
        q = [len(queues[s]) for s in cand]
        probed += q
        job = _Job(t, j, needed)
        tasks = []
        for x, s in zip(svc, _choose(cand, q, group, picks)):
            task = (job, x, s)
            tasks.append(task)
            dq = queues[s]
            if not dq:
                seq += 1
                heappush(heap, (t + x, seq, task))
            dq.append(task)
        if purging:
            job.tasks = tasks

    if any(queues):
        raise AssertionError("a server still busy after the drain")
    if jobs_done != total:
        raise RuntimeError(f"only {jobs_done} of {total} jobs completed")
    return lat, counts


# ---------------------------------------------------------------------------
# statistics and entry points

_CCDF_POINTS = 48
_QUANTILES = (0.5, 0.9, 0.99)


def _build_stats(lat: np.ndarray, counts: np.ndarray, keep: bool) -> LatencyStats:
    """``counts[r]`` is the number of probes that saw r tasks; the last is nonzero."""
    n = lat.size
    srt = np.sort(lat)
    std_err = float(lat.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    grid = np.unique(np.linspace(0, n - 1, num=min(_CCDF_POINTS, n)).round().astype(int))
    ts = srt[grid]
    exceed = n - np.searchsorted(srt, ts, side="right")
    suffix = counts[::-1].cumsum()[::-1].tolist()
    queue_ccdf = tuple((r, tail / suffix[0]) for r, tail in enumerate(suffix))
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
    same config (same seed) yields bit-identical statistics on either
    engine.
    """
    lat, counts = _run_event(config) if config.engine == "event" else _run_fast(config)
    return _build_stats(lat, counts, config.keep_samples)


def run_many(configs: Sequence[ClusterConfig]) -> list[LatencyStats]:
    """``[run(c) for c in configs]``, bit for bit, with sweeps run as lockstep lanes.

    Fast-engine configs of non-purging policies that share warmup and
    measured job counts advance together, one job per numpy step, when
    there are at least ``_LOCKSTEP_MIN_LANES`` of them; every other
    config goes through ``run``.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(configs):
        shape = _shape(config.policy)
        if config.engine == "fast" and shape.needed == shape.tasks:
            groups.setdefault((config.warmup_jobs, config.measured_jobs), []).append(i)
    out = {}
    for idx in groups.values():
        if len(idx) >= _LOCKSTEP_MIN_LANES:
            out.update(zip(idx, _run_lanes([configs[i] for i in idx])))
    return [out[i] if i in out else run(config) for i, config in enumerate(configs)]


def empirical_residual(
    service: ServiceDistribution,
    arrival_rate: float,
    *,
    seed: int = 0,
    warmup_jobs: int | None = None,
    measured_jobs: int | None = None,
) -> float:
    """Mean residual service seen by a Poisson arrival at a busy M/G/1 server.

    Single FCFS queue fed ``warmup_jobs`` arrivals (20,000 when None),
    then ``measured_jobs`` (180,000 when None); each measured arrival that
    finds the server busy records the remaining service in progress, and
    their average estimates the busy-conditioned residual E[X^2] / (2 E[X]).
    """
    rho = arrival_rate * dists.mean(service)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"unstable single queue: utilization {rho}")
    warmup = 20_000 if warmup_jobs is None else warmup_jobs
    measured = 180_000 if measured_jobs is None else measured_jobs
    if warmup < 0:
        raise ValueError(f"warmup_jobs must be nonnegative, got {warmup}")
    if measured < 1:
        raise ValueError(f"measured_jobs must be positive, got {measured}")
    jobs = warmup + measured
    arrivals, _, svc = _streams(seed, arrival_rate, service)

    pending = deque()
    acc = 0.0
    busy = 0
    for j0, epochs in _epochs(arrivals, jobs):
        for j, t, x in zip(range(j0, jobs), epochs.tolist(), svc.take(len(epochs)).tolist()):
            while pending and pending[0] <= t:
                pending.popleft()
            if j >= warmup and pending:
                acc += pending[0] - t
                busy += 1
            pending.append((pending[-1] if pending else t) + x)
    if busy == 0:
        raise RuntimeError("no busy arrivals observed; increase jobs or the arrival rate")
    return acc / busy
