"""End-to-end acceptance checks.

Every advertised closed-form value, dominance relation, and harness
contract, exercised at the stated grids and tolerances.  Each check
prints a single PASS/FAIL line (visible with ``pytest -s``) and then
asserts the same condition; nothing here is tuned to pass, the
tolerances come straight from the statistical error of the runs.

The whole module is budgeted to finish in a few minutes on one core;
the gain sweeps dominate the runtime.
"""

import math

import numpy as np
import pytest

from codedlat import bounds, harness
from codedlat.queue_models import order_stat_expectation
from codedlat.distributions import (
    Exponential,
    ShiftedExponential,
    chunk_dist,
    mean as dist_mean,
    subexp_params,
)
from codedlat.simulator import (
    BatchSampling,
    ClusterConfig,
    KSplit,
    LeastKOfN,
    NaiveReplication,
    RedundantRequest,
    empirical_residual,
    run,
    run_many,
)

GRID_LAMBDAS = (0.5, 0.7, 0.9)
GRID_KS = (4, 8)
SWEEP_CODES = ((4, 2, 2), (6, 3, 2), (8, 4, 2), (9, 3, 3))
SWEEP_LAMBDAS = tuple(round(0.1 * i, 1) for i in range(1, 10))


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. zero-load closed form


def test_acceptance_01_zero_load_closed_form():
    worst = 0.0
    for k in (2, 3, 4):
        target = bounds.harmonic(k) / k
        stats = run(ClusterConfig(
            lam=0.01,
            policy=LeastKOfN(n=2 * k, k=k),
            service=Exponential(rate=float(k)),
            L=2000, seed=k,
            warmup_jobs=5_000, measured_jobs=100_000,
        ))
        worst = max(worst, abs(stats.mean - target) / target)
    report(1, "zero-load closed form", worst < 0.02, f"worst rel dev {worst:.4f}")


# ---------------------------------------------------------------------------
# 2. worked zero-load gains


def test_acceptance_02_zero_load_gain_examples():
    g_exp = bounds.zero_load_gain("exponential", 2)
    # the file 0.2 + Exp(1) is the unit-mean file with shift 0.2/1.2, at load 1.2x,
    # in time units of 1.2
    g_shift = 1.2 * bounds.zero_load_gain("shifted-exponential", 2, shift=0.2 / 1.2)
    exact_ok = abs(g_exp - 0.25) < 1e-12 and abs(g_shift - 0.35) < 1e-12

    def gain(*args, **options):  # the gain-sweep row's gain and SE
        replicated, split = run_many(harness.gain_arms(*args, **options))
        return replicated.mean - split.mean, math.hypot(replicated.std_err, split.std_err)

    exp_gain, exp_se = gain(2, 2, 0.01, seed=12, warmup_jobs=3_000, measured_jobs=60_000)
    shift_gain, shift_se = (1.2 * v for v in gain(
        2, 2, 0.01 * 1.2, "shifted-exponential", seed=13, shift=0.2 / 1.2,
        warmup_jobs=3_000, measured_jobs=60_000,
    ))
    dev_exp = abs(exp_gain - 0.25)
    dev_shift = abs(shift_gain - 0.35)
    sim_ok = dev_exp <= 3 * exp_se and dev_shift <= 3 * shift_se
    report(
        2, "zero-load gain worked examples", exact_ok and sim_ok,
        f"closed {g_exp:.3f}/{g_shift:.3f}, sim dev {dev_exp:.4f} (3se "
        f"{3 * exp_se:.4f}) and {dev_shift:.4f} (3se {3 * shift_se:.4f})",
    )


# ---------------------------------------------------------------------------
# 3-4. mean bound dominance on the (k, lambda) grid


def _ksplit_config(k, lam, service, seed):
    return ClusterConfig(
        lam=lam, policy=KSplit(k=k, d=3), service=service,
        L=2000, seed=seed, warmup_jobs=120_000, measured_jobs=40_000,
    )


def test_acceptance_03_exponential_bound_dominates():
    cells = [(k, lam) for k in GRID_KS for lam in GRID_LAMBDAS]
    runs = run_many([_ksplit_config(k, lam, Exponential(rate=float(k)), seed=100 + k)
                     for k, lam in cells])
    lines, ok = [], True
    for (k, lam), stats in zip(cells, runs):
        bound = bounds.mean_latency_bound_exp(k, lam).value
        cell_ok = stats.mean <= bound + 3 * stats.std_err
        ok = ok and cell_ok
        lines.append(f"k={k} lam={lam}: {stats.mean:.3f}<={bound:.3f}")
    report(3, "exponential mean bound dominates", ok, "; ".join(lines))


def test_acceptance_04_general_bound_dominates():
    laws = {(family, k): chunk_dist(family, k, shift=shift, shape=shape)
            for family, shift, shape in (("shifted-exponential", 0.1, 1.0), ("weibull", 0.0, 1.5))
            for k in GRID_KS}
    cells = [(family, k, lam) for family, k in laws for lam in GRID_LAMBDAS]
    runs = run_many([_ksplit_config(k, lam, laws[family, k], seed=200 + k)
                     for family, k, lam in cells])
    params = {law: subexp_params(chunk) for law, chunk in laws.items()}
    ok, worst = True, (math.inf, "")
    for (family, k, lam), stats in zip(cells, runs):
        chunk = laws[family, k]
        bound = bounds.mean_latency_bound_general(
            k, lam, params[family, k], bounds.m_k_bound(chunk, k)).value
        margin = bound + 3 * stats.std_err - stats.mean
        worst = min(worst, (margin, f"{family} k={k} lam={lam}"))
        ok = ok and margin >= 0.0
    report(4, "sub-exponential mean bound dominates", ok,
           f"tightest cell {worst[1]}, margin {worst[0]:.3f}")


# ---------------------------------------------------------------------------
# 5. coded dispatch never loses to k-split


def test_acceptance_05_least_k_dominates_ksplit():
    configs = []
    for index, (n, k, d) in enumerate(SWEEP_CODES):
        for lam in SWEEP_LAMBDAS:
            seed = 31_000 + index * 100 + int(lam * 10)
            common = dict(
                lam=lam, service=Exponential(rate=float(k)),
                L=1000, seed=seed, warmup_jobs=25_000, measured_jobs=20_000,
            )
            configs += [ClusterConfig(policy=LeastKOfN(n=n, k=k), **common),
                        ClusterConfig(policy=KSplit(k=k, d=d), **common)]
    runs = run_many(configs)
    ok, tight = True, math.inf
    for least, split in zip(runs[::2], runs[1::2]):
        slack = split.mean + 3 * math.hypot(least.std_err, split.std_err) - least.mean
        tight = min(tight, slack)
        ok = ok and slack >= 0.0
    report(5, "least-loaded-k dominates k-split", ok, f"min slack {tight:.4f}")


# ---------------------------------------------------------------------------
# 6. gain positivity, lower bound, and the 20 percent claim


@pytest.fixture(scope="module")
def gain_sweep_rows():
    rows = {}
    for name in ("fig3a", "fig3b", "fig4"):
        rows[name] = harness.run_sweep(harness.build_spec(harness.preset_entries(name)))
    return rows


def test_acceptance_06_gain_positive_and_lower_bounded(gain_sweep_rows):
    ok, min_margin = True, math.inf
    for name, rows in gain_sweep_rows.items():
        for row in rows:
            ok = ok and row.passed and row.sim_mean > 0.0
            min_margin = min(min_margin, row.sim_mean - (row.theory - 3 * row.sim_se))
    report(
        6, "simulated gain positive and >= prediction", ok,
        f"108 cells, min margin over prediction {min_margin:.4f}",
    )


def test_acceptance_06b_twenty_percent_claim(gain_sweep_rows):
    violations = []
    for name, rows in gain_sweep_rows.items():
        for row in rows:
            naive, coded = row.aux_a, row.aux_b
            if coded > 0.8 * naive + 3 * row.sim_se:
                violations.append(
                    f"{name} ({row.n},{row.k}) lam={row.lam}: {coded:.3f} > 0.8*{naive:.3f}"
                )
    detail = "no violations" if not violations else "; ".join(violations)
    report(6, "coded beats replication by 20 percent", not violations, detail)


# ---------------------------------------------------------------------------
# 7. doubly-exponential queue tail


def test_acceptance_07_queue_tail_fixed_point():
    stats = run(ClusterConfig(
        lam=0.9, policy=NaiveReplication(d=2), service=Exponential(rate=1.0),
        L=2000, seed=0, warmup_jobs=400_000, measured_jobs=400_000,
    ))
    ccdf = dict(stats.queue_ccdf)
    devs = {r: ccdf.get(r, 0.0) - 0.9 ** (2**r - 1) for r in (1, 2, 3)}
    ok = all(abs(v) < 0.02 for v in devs.values())
    report(7, "queue tail matches lam^(2^r - 1)", ok,
           ", ".join(f"r={r}: {v:+.4f}" for r, v in devs.items()))


# ---------------------------------------------------------------------------
# 8. order-statistic oracle


def test_acceptance_08_order_stat_oracle():
    rng = np.random.default_rng(88)
    worst_z, sum_dev = 0.0, 0.0
    for _ in range(20):
        size = int(rng.integers(2, 9))
        pmf = rng.random(size)
        pmf /= pmf.sum()
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n + 1))
        draws = rng.choice(size, size=(1_000_000, n), p=pmf)
        draws.sort(axis=1)
        column = draws[:, rank - 1]
        mc, se = column.mean(), column.std() / 1000.0
        value = order_stat_expectation(pmf, n, rank)
        worst_z = max(worst_z, abs(value - mc) / max(se, 1e-12))
        total = sum(order_stat_expectation(pmf, n, r) for r in range(1, n + 1))
        sum_dev = max(sum_dev, abs(total - n * float(np.dot(np.arange(size), pmf))))
    ok = worst_z <= 4.0 and sum_dev <= 1e-9
    report(8, "order statistics match Monte Carlo", ok,
           f"worst |z| {worst_z:.2f}, sum identity dev {sum_dev:.1e}")


# ---------------------------------------------------------------------------
# 9. batch sampling bounds


def test_acceptance_09_batch_sampling_bounds():
    ok, lines = True, []
    for lam in (0.8, 0.85, 0.9):
        stats = run(ClusterConfig(
            lam=lam, policy=BatchSampling(n=14, k=10), service=Exponential(rate=1.0),
            L=2000, seed=int(lam * 100), warmup_jobs=80_000, measured_jobs=40_000,
        ))
        tight = bounds.bound_I(lam, 1.4, 10, variant="tight").value
        loose = bounds.bound_I(lam, 1.4, 10, variant="loose").value
        second = bounds.bound_II(lam, 1.4, 10).value
        tol = 3 * stats.std_err
        cell = stats.mean <= tight + tol and tight + tol <= loose and second >= stats.mean
        ok = ok and cell
        lines.append(f"lam={lam}: sim {stats.mean:.2f} tight {tight:.2f} loose {loose:.2f}")

    # independent recomputation of the loose bound at lam = 0.9
    lam, d = 0.9, 1.4
    q_max = math.ceil(math.log((d - 1) / (d * (1 - lam))) / math.log(lam * d))
    probs = [(1 - lam) * (lam * d) ** i for i in range(q_max)]
    probs.append(1.0 - sum(probs))
    q_mean = sum(i * p for i, p in enumerate(probs))
    redo = sum(1.0 / j for j in range(1, 11)) + 10 * q_mean
    loose_ref = bounds.bound_I(0.9, 1.4, 10, variant="loose").value
    ok = ok and abs(loose_ref - redo) < 1e-3 and abs(redo - 31.60) < 0.01
    report(9, "batch sampling bounds order and value", ok,
           "; ".join(lines) + f"; loose redo dev {abs(loose_ref - redo):.1e}")


# ---------------------------------------------------------------------------
# 10. maximal inequality


def test_acceptance_10_maximal_inequality():
    rng = np.random.default_rng(7)
    ok, lines = True, []
    for dist in (Exponential(rate=1.0), ShiftedExponential(shift=0.1, rate=2.0)):
        params = subexp_params(dist)
        mu = dist_mean(dist)
        for n in (10, 100, 1000):
            reps = 2_000_000 // n
            if isinstance(dist, Exponential):
                draws = rng.exponential(1.0, (reps, n))
            else:
                draws = 0.1 + rng.exponential(0.5, (reps, n))
            mc = draws.max(axis=1).mean()
            cap = bounds.maximal_subexp_bound(n, params, mu)
            ok = ok and mc <= cap
            lines.append(f"n={n}: {mc:.2f}<={cap:.2f}")
    report(10, "maximal inequality dominates MC maxima", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 11. redundant requests help at low load


def test_acceptance_11_redundancy_helps():
    common = dict(
        lam=0.01, service=Exponential(rate=4.0), L=500,
        warmup_jobs=2_000, measured_jobs=30_000,
    )
    baseline = run(ClusterConfig(policy=LeastKOfN(n=8, k=4), seed=50, **common))
    ok, lines = True, []
    rng = np.random.default_rng(4242)
    for extra in (1, 2, 4):
        redundant = run(ClusterConfig(
            policy=RedundantRequest(k=4, extra=extra), seed=50 + extra, **common))
        tol = 3 * math.hypot(baseline.std_err, redundant.std_err)
        ok = ok and redundant.mean <= baseline.mean + tol
        lines.append(f"extra={extra}: {redundant.mean:.3f}<={baseline.mean:.3f}")

        # closed form vs a sort-based Monte Carlo oracle
        closed = bounds.redundant_request_latency(4, extra)
        draws = rng.exponential(0.25, (300_000, 4 + extra))
        draws.sort(axis=1)
        kth = draws[:, 3]
        ok = ok and abs(closed - kth.mean()) <= 4 * kth.std() / math.sqrt(len(kth))
    report(11, "redundancy helps at low load", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 12. residual service time


def test_acceptance_12_residual_and_residual_max():
    ok, lines = True, []
    for dist, lam in ((Exponential(rate=2.0), 0.6), (ShiftedExponential(shift=0.1, rate=2.0), 0.5)):
        want = bounds.residual_moment(dist)
        got = empirical_residual(dist, lam, seed=9, warmup_jobs=30_000, measured_jobs=270_000)
        rel = abs(got - want) / want
        ok = ok and rel < 0.02
        lines.append(f"{type(dist).__name__}: rel dev {rel:.4f}")

    # independent dense-grid minimization of the residual-max objective
    target = bounds.m_k_bound(Exponential(rate=8.0), 8)
    s = np.linspace(1e-4, 8.0 - 1e-9, 300_000)
    objective = np.log(64.0 * (8.0 / (8.0 - s) - 1.0) / s) / s
    grid_min = float(objective.min())
    ok = ok and abs(target - grid_min) < 1e-3 and abs(target - 0.5759) < 1e-3

    rng = np.random.default_rng(3131)
    mc_max = rng.exponential(1.0 / 8.0, (300_000, 8)).max(axis=1).mean()
    ok = ok and target >= mc_max
    lines.append(f"m_k {target:.4f} vs grid {grid_min:.4f}, MC max {mc_max:.4f}")
    report(12, "residual formulas and residual-max bound", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 13. tail bound


def test_acceptance_13_tail_bound_dominates_empirical_ccdf():
    k, lam, eps = 4, 0.5, 0.01
    stats = run(ClusterConfig(
        lam=lam, policy=KSplit(k=k, d=2), service=Exponential(rate=float(k)),
        L=2000, seed=21, warmup_jobs=60_000, measured_jobs=200_000,
        keep_samples=True,
    ))
    samples = stats.samples
    level = math.log2(math.log(eps / k) / math.log(lam / k))
    anchor = level / k
    ok, worst = True, math.inf
    for t in np.linspace(anchor, 6 * anchor, 13):
        emp = float(np.mean(samples > t))
        cap = bounds.tail_latency_bound(k, lam, eps, float(t)).value
        ok = ok and emp <= cap
        worst = min(worst, cap - emp)
    report(13, "tail bound dominates empirical CCDF", ok,
           f"t in [{anchor:.3f}, {6 * anchor:.3f}], min gap {worst:.4f}")
