"""The benchmark's workloads: inputs built from a seed, one timed round, checks.

Every workload is a batch computation driven serially from one process
through the package's public functions.  A round runs the same inputs
each time, so a run attempts whole rounds of the same operations.  The
checks compare each operation's output with a computation made here,
apart from the package (closed forms, the benchmark's own numpy draws),
or with a property the method must have; they never compare against
stored output.  ``check`` returns one message per failed operation.
"""

from __future__ import annotations

import math

import numpy as np

from codedlat import harness, simulator
from codedlat.distributions import Exponential
from codedlat.simulator import BatchSampling, ClusterConfig, KSplit, RedundantRequest

# Every check's statistical tolerance, in standard errors.
SE_TOL = 3.0


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds for the program, from the workload seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def harmonic(k: int) -> float:
    return sum(1.0 / i for i in range(1, k + 1))


class Fig4GainSweep:
    """``harness.run_sweep`` on the fig4 gain sweep (Weibull shape 1.5).

    One operation is one sweep point: two fast-engine arms
    (``NaiveReplication``, ``LeastKOfN``), then ``theoretical_gain``
    with its quadrature-driven ``m_k_bound``.  The grid keeps both ends
    of the fig4 load range; the per-point budget is cut from the
    preset's so that one round takes seconds.
    """

    name = "fig4-gain-sweep"
    SHAPE = 1.5
    CODES = ((4, 2, 2), (6, 3, 2), (8, 4, 2), (9, 3, 3))
    LAMS = (0.1, 0.9)
    L = 500
    WARMUP = 4_000
    MEASURED = 4_000
    # the coded arm must beat the replicated one by at least 20% at every load
    CODED_RATIO = 0.8
    REF_DRAWS = 400_000

    def __init__(self, seed: int):
        spec_seed, self._ref_seed = derive_seeds(seed, 2)
        self._e_max = None
        self.spec = harness.SweepSpec(
            "gain-sweep", self.LAMS, self.CODES, "weibull", shape=self.SHAPE,
            L=self.L, seed=spec_seed, warmup_jobs=self.WARMUP, measured_jobs=self.MEASURED,
        )
        self.ops = len(self.CODES) * len(self.LAMS)
        self.jobs = self.ops * 2 * (self.WARMUP + self.MEASURED)

    def run_round(self):
        return harness.run_sweep(self.spec)

    def _expected_max(self) -> dict[int, float]:
        """E[max of k chunk draws], chunks Weibull(shape) scaled to mean 1/k."""
        if self._e_max is None:
            rng = np.random.default_rng(self._ref_seed)
            self._e_max = {}
            for k in sorted({k for _, k, _ in self.CODES}):
                scale = 1.0 / (k * math.gamma(1.0 + 1.0 / self.SHAPE))
                draws = scale * rng.weibull(self.SHAPE, size=(self.REF_DRAWS, k))
                self._e_max[k] = float(draws.max(axis=1).mean())
        return self._e_max

    def check(self, rows) -> list[str]:
        want = sorted((n, k, d, lam) for n, k, d in self.CODES for lam in self.LAMS)
        got = sorted((r.n, r.k, int(r.d), r.lam) for r in rows)
        if got != want:
            return [f"sweep returned points {got}, expected {want}"] * self.ops
        e_max = self._expected_max()
        failures = []
        for r in rows:
            tol = SE_TOL * r.sim_se
            where = f"(n={r.n}, k={r.k}, d={r.d:g}, lam={r.lam:g})"
            problems = []
            rule = r.sim_mean > 0.0 and r.sim_mean >= r.theory - tol
            if r.passed != rule:
                problems.append(f"passed={r.passed} but the README rule gives {rule}")
            if not r.sim_mean > 0.0:
                problems.append(f"gain {r.sim_mean} <= 0")
            if not r.aux_b <= self.CODED_RATIO * r.aux_a + tol:
                problems.append(f"coded {r.aux_b} > {self.CODED_RATIO} x replicated {r.aux_a} + 3 se")
            if not r.aux_a >= 1.0 - tol:
                problems.append(f"replicated mean {r.aux_a} < 1 - 3 se")
            if not r.aux_b >= e_max[r.k] - tol:
                problems.append(f"split mean {r.aux_b} < E[max of {r.k} chunks] {e_max[r.k]} - 3 se")
            if problems:
                failures.append(f"{where}: " + "; ".join(problems))
        return failures


def exp_mean_bound(k: int, lam: float) -> float:
    """The exponential-chunk mean latency bound (Phi3 / Phi4), from its closed form."""
    lg_k_over_lam = math.log2(k / lam)
    r = math.log2(4.0 * math.log2(k)) - math.log2(lg_k_over_lam)
    spill = 2.0 * lg_k_over_lam / (4.0 * k**4 * math.log2(k))
    ln_k = math.log(k)
    if 2.0 * ln_k >= r:
        return 2.0 * ln_k / k + r / k + spill
    return math.sqrt(2.0 * ln_k) * math.sqrt(r) / k + r / k + spill


class KSplitLongRun:
    """One long ``simulator.run`` of ``KSplit(k=8, d=3)`` at load 0.9.

    A single point, so sweep-level batching cannot help: it isolates the
    per-job dispatch cost at the largest fan-out (24 probes per job into
    long queues) and the statistics build over a large kept sample.
    """

    name = "ksplit-long-run"
    K, D, LAM, L = 8, 3, 0.9, 2000
    WARMUP = 20_000
    MEASURED = 80_000
    # absolute tolerance on the probed-queue CCDF against the mean-field law;
    # the CCDF of one run wanders by about 0.01 (sd at r = 3) around it
    CCDF_TOL = 0.06

    def __init__(self, seed: int):
        (run_seed,) = derive_seeds(seed, 1)
        self.config = ClusterConfig(
            lam=self.LAM, policy=KSplit(k=self.K, d=self.D), service=Exponential(rate=float(self.K)),
            L=self.L, seed=run_seed, warmup_jobs=self.WARMUP, measured_jobs=self.MEASURED,
            keep_samples=True,
        )
        self.ops = 1
        self.jobs = self.WARMUP + self.MEASURED

    def run_round(self):
        return simulator.run(self.config)

    def check(self, stats) -> list[str]:
        k, d, lam = self.K, self.D, self.LAM
        tol = SE_TOL * stats.std_err
        problems = []
        if stats.job_count != self.MEASURED or stats.samples is None or stats.samples.size != self.MEASURED:
            problems.append("measured job count or kept samples do not match the config")
        floor = harmonic(k) / k
        if not stats.mean >= floor - tol:
            problems.append(f"mean {stats.mean} < H(k)/k {floor} - 3 se")
        bound = exp_mean_bound(k, lam)
        if not stats.mean <= bound + tol:
            problems.append(f"mean {stats.mean} > mean bound {bound} + 3 se")
        qccdf = dict(stats.queue_ccdf)
        for r in (1, 2, 3):
            law = lam ** ((d**r - 1) / (d - 1))
            seen = qccdf.get(r, 0.0)
            if abs(seen - law) > self.CCDF_TOL:
                problems.append(f"P(Q >= {r}) = {seen}, mean-field law {law}")
        qs = [stats.quantiles[p] for p in sorted(stats.quantiles)]
        if qs != sorted(qs):
            problems.append(f"quantiles out of order: {qs}")
        ts = [t for t, _ in stats.ccdf]
        ps = [p for _, p in stats.ccdf]
        if ts != sorted(ts) or any(b > a for a, b in zip(ps, ps[1:])):
            problems.append("latency CCDF is not non-increasing")
        return [f"{self.config.policy}: " + "; ".join(problems)] if problems else []


def batch_bounds(lam: float, n: int, k: int) -> tuple[float, float]:
    """(tight bound I, bound II) for batch sampling, unit-mean exponential tasks.

    Recomputed here from the batch queue pmf: bound I sums exact
    order-statistic means of k pmf draws (binomial tail sums), bound II
    minimises the moment envelope of the pmf's piecewise-linear
    interpolant over a dense grid.
    """
    ratio = n / k
    q_max = math.ceil(math.log((ratio - 1.0) / (ratio * (1.0 - lam))) / math.log(lam * ratio))
    pmf = [(1.0 - lam) * (lam * ratio) ** i for i in range(q_max)]
    pmf.append(max(1.0 - sum(pmf), 0.0))
    cdf = np.cumsum(pmf)
    h = harmonic(k)

    def order_stat_mean(rank: int) -> float:
        # P(Q_(rank) >= m) = P(Binomial(k, F(m-1)) <= rank - 1)
        return sum(
            sum(math.comb(k, j) * f**j * (1.0 - f) ** (k - j) for j in range(rank))
            for f in cdf[:-1]
        )

    tight = h + sum(order_stat_mean(rank) / (k - rank + 1) for rank in range(1, k + 1))

    a, b = np.asarray(pmf[:-1]), np.asarray(pmf[1:])
    i = np.arange(q_max, dtype=float)
    mass = (a + b) / 2.0
    first = i * mass + a / 6.0 + b / 3.0
    second = i**2 * mass + 2.0 * i * (a / 6.0 + b / 3.0) + a / 12.0 + b / 4.0
    mu = first.sum() / mass.sum()
    var = max(second.sum() / mass.sum() - mu * mu, 0.0)
    z = np.linspace(-q_max, q_max, 200_001)
    envelope = z + 0.5 * (mu - z + np.sqrt((mu - z) ** 2 + var))
    return tight, h + k * float(envelope.min())


class RedundantEvent:
    """Event-engine runs: redundant requests with purging, and the fig5 batch cell.

    ``RedundantRequest(k=4, extra)`` for extra in {1, 2, 4} at a near-zero
    load and at 0.5 runs only on the event engine (it purges).
    ``BatchSampling(14, 10)`` at 0.85 runs on both engines, which share
    the policy and random-stream code, so a change that slows the heap
    path or that shared code shows here.
    """

    name = "redundant-event"
    K, EXTRAS, LAMS = 4, (1, 2, 4), (0.01, 0.5)
    RR_L = 2000
    RR_WARMUP = {0.01: 1_000, 0.5: 4_000}
    RR_MEASURED = {0.01: 10_000, 0.5: 5_000}
    BATCH_N, BATCH_K, BATCH_LAM, BATCH_L = 14, 10, 0.85, 2000
    BATCH_WARMUP = 6_000
    BATCH_MEASURED = 6_000
    # relative tolerance of the near-zero-load means against the zero-load closed form
    ZERO_LOAD_RTOL = 0.03

    def __init__(self, seed: int):
        seeds = iter(derive_seeds(seed, len(self.EXTRAS) * len(self.LAMS) + 1))
        self.rr = [
            (extra, lam, ClusterConfig(
                lam=lam, policy=RedundantRequest(k=self.K, extra=extra),
                service=Exponential(rate=float(self.K)), L=self.RR_L, seed=next(seeds),
                warmup_jobs=self.RR_WARMUP[lam], measured_jobs=self.RR_MEASURED[lam], engine="event",
            ))
            for extra in self.EXTRAS for lam in self.LAMS
        ]
        batch_seed = next(seeds)
        self.batch = [
            ClusterConfig(
                lam=self.BATCH_LAM, policy=BatchSampling(n=self.BATCH_N, k=self.BATCH_K),
                service=Exponential(rate=1.0), L=self.BATCH_L, seed=batch_seed,
                warmup_jobs=self.BATCH_WARMUP, measured_jobs=self.BATCH_MEASURED, engine=engine,
            )
            for engine in ("fast", "event")
        ]
        self.ops = len(self.rr) + len(self.batch)
        self.jobs = sum(c.warmup_jobs + c.measured_jobs for _, _, c in self.rr) + sum(
            c.warmup_jobs + c.measured_jobs for c in self.batch
        )

    def run_round(self):
        return [simulator.run(c) for _, _, c in self.rr], [simulator.run(c) for c in self.batch]

    def check(self, outputs) -> list[str]:
        rr_stats, (fast, event) = outputs
        failures = []
        for (extra, lam, _), stats in zip(self.rr, rr_stats):
            zero_load = (harmonic(self.K + extra) - harmonic(extra)) / self.K
            problems = []
            if not stats.mean >= zero_load - SE_TOL * stats.std_err:
                problems.append(f"mean {stats.mean} < k-th order statistic {zero_load} - 3 se")
            if lam == min(self.LAMS) and abs(stats.mean - zero_load) > self.ZERO_LOAD_RTOL * zero_load:
                problems.append(f"near-zero-load mean {stats.mean} is not within "
                                f"{self.ZERO_LOAD_RTOL:.0%} of {zero_load}")
            if problems:
                failures.append(f"RedundantRequest(extra={extra}) lam={lam}: " + "; ".join(problems))
        tight, second = batch_bounds(self.BATCH_LAM, self.BATCH_N, self.BATCH_K)
        problems = []
        if not fast.mean <= tight + SE_TOL * fast.std_err:
            problems.append(f"mean {fast.mean} > tight bound I {tight} + 3 se")
        if not fast.mean <= second:
            problems.append(f"mean {fast.mean} > bound II {second}")
        if problems:
            failures.append("BatchSampling fast engine: " + "; ".join(problems))
        if fast != event:
            failures.append("BatchSampling: the event engine's statistics differ from the fast engine's")
        return failures


WORKLOADS = {w.name: w for w in (Fig4GainSweep, KSplitLongRun, RedundantEvent)}
