"""Sweep harness: grid experiments comparing simulation against bounds.

A sweep is described by a :class:`SweepSpec` (experiment kind, arrival
grid, code triples, service family, simulation budget).  Each grid
point runs one experiment and yields :class:`ComparisonRow` records
whose pass flags are recomputable from the row's own numbers;
:func:`write_csv` renders rows deterministically, so a fixed spec and
seed always produce byte-identical output, serial or parallel.

Experiment kinds and their pass rules (tolerances are one-sided at
3 combined standard errors unless noted):

* ``gain-sweep``      simulated replication-minus-split gain; passes
                      when the gain is positive and at least the
                      analytical prediction minus 3 s.e.  The
                      prediction is a deterministic function of the
                      code, load and service law, not of the seed.
* ``bound-check``     simulated k-split mean; passes when it does not
                      exceed the mean latency bound plus 3 s.e.
* ``tail-check``      empirical P(latency > t); passes when it does
                      not exceed the tail bound plus 3 s.e.
                      (exponential service only).
* ``batch-sampling``  simulated batch-dispatch mean; passes when
                      mean <= tight bound + 3 s.e. <= loose bound and
                      the moment-space bound also dominates the mean.
* ``residual-check``  busy-server residual of one M/G/1 queue; passes
                      when it matches the renewal formula within 2
                      percent.

:func:`build_spec` builds every spec from ``key=value`` entries: the
lines of a flat UTF-8 config file (``#`` starts a comment), a preset
of :data:`PRESETS` (every key its kind reads but ``sim.seed`` and
``out.path``) and the CLI's sweep flags alike.  Recognized keys:
``experiment``, ``lambda.grid``, ``code.n``, ``code.k``, ``code.d``,
``dist.family``, ``dist.shape``, ``dist.shift``, ``sim.L``,
``sim.seed``, ``sim.warmup_jobs``, ``sim.measured_jobs``,
``out.path``; a kind rejects the keys it never reads (``_UNREAD``:
residual-check ``code.*`` and ``sim.L``, batch-sampling ``code.d``)
and fills the code fields among them with 1.
``code.*`` accept comma-separated aligned lists (scalars broadcast).
An omitted key takes :class:`SweepSpec`'s field default on every path:
exponential, shape 1, shift 0, ``sim.seed`` 0, and ``None`` for
``out.path`` and ``sim.*``, up to the one function that owns each
budget: the simulator's ``ClusterConfig`` (L = max(2000, 200 * k),
warmup = 20 * L jobs, 1,000,000 // k measured jobs), this module's
:func:`gain_arms` (20,000 measured jobs per arm) and the simulator's
``empirical_residual`` (residual-check: 180,000 measured arrivals
after 20,000).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from . import bounds
from . import distributions as dists
from .simulator import (
    BatchSampling,
    ClusterConfig,
    KSplit,
    LeastKOfN,
    NaiveReplication,
    empirical_residual,
    run_many,
)

__all__ = [
    "CSV_COLUMNS",
    "ComparisonRow",
    "ConfigError",
    "PRESETS",
    "SweepSpec",
    "build_spec",
    "config_entries",
    "gain_arms",
    "preset_entries",
    "run_sweep",
    "write_csv",
]


class ConfigError(ValueError):
    """Malformed sweep configuration (exit 2 in the CLI); ``keys`` are the keys its check read."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


_CODE = ("code.n", "code.k", "code.d")

# tail-check budget: probability that any chunk queue exceeds the
# truncation level.  Fixed rather than configurable; the CSV records
# the resulting thresholds explicitly.
_TAIL_EPSILON = 0.01
_TAIL_POINTS = 11


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: experiment kind, coordinate grids, and budget overrides.

    ``codes`` holds (n, k, d) triples.  For the queue-based kinds the
    fanout satisfies n = d * k; batch-sampling reads only (n, k), k < n < 2k,
    and takes d = 1; residual-check takes ``((1, 1, 1),)`` and no ``L``.
    The field defaults are the defaults on every path: :func:`build_spec`
    passes on only the keys that were set.
    ``L``, ``warmup_jobs`` and ``measured_jobs`` of ``None`` take the
    defaults in the module docstring.
    """

    experiment: str
    lam_grid: tuple[float, ...]
    codes: tuple[tuple[int, int, int], ...]
    family: str = "exponential"
    shape: float = 1.0
    shift: float = 0.0
    L: int | None = None
    seed: int = 0
    warmup_jobs: int | None = None
    measured_jobs: int | None = None
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in _ROWS:
            raise ConfigError(
                f"unknown experiment '{self.experiment}' (expected one of {', '.join(_ROWS)})",
                ("experiment",),
            )
        for key in ("L", "seed", "warmup_jobs", "measured_jobs"):
            value = getattr(self, key)
            if value is None and key != "seed":  # the run's own default
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"sim.{key} must be an integer, got {value!r}", (f"sim.{key}",))
        if not self.lam_grid:
            raise ConfigError("lambda grid empty", ("lambda.grid",))
        for lam in self.lam_grid:
            if not 0.0 < lam < 1.0:
                raise ConfigError(f"lambda.grid value {lam} outside (0, 1)", ("lambda.grid",))
        if not self.codes:
            raise ConfigError("code grid empty (set code.n / code.k)", _CODE)
        try:
            fam = dists.canonical_family(self.family)
        except ValueError as exc:
            raise ConfigError(f"dist.family: {exc}", ("dist.family",)) from None
        object.__setattr__(self, "family", fam)
        unread = dists.unread_parameter(fam, self.shift, self.shape)
        if unread:
            raise ConfigError(f"dist.{unread} has no effect on family '{fam}'",
                              ("dist.family", f"dist.{unread}"))
        if self.experiment == "residual-check":
            if self.codes != ((1, 1, 1),) or self.L is not None:
                raise ConfigError("residual-check reads no code.* or sim.L", (*_CODE, "sim.L"))
        else:
            for code in self.codes:
                self._check_code(*code)
        if self.experiment in ("tail-check", "batch-sampling") and fam != "exponential":
            raise ConfigError(f"dist.family '{fam}' unsupported for {self.experiment}",
                              ("experiment", "dist.family"))
        if self.experiment == "tail-check" and min(self.lam_grid) <= _TAIL_EPSILON:
            raise ConfigError(f"tail-check needs every lambda above the tail budget {_TAIL_EPSILON}",
                              ("experiment", "lambda.grid"))
        try:  # the service laws, and the envelopes the bounds use, exist up front
            for k in sorted({k for _, k, _ in self.codes}):
                chunk = dists.chunk_dist(fam, k, shift=self.shift, shape=self.shape)
                if self.experiment in ("gain-sweep", "bound-check") and fam != "exponential":
                    dists.subexp_params(chunk)
        except ValueError as exc:
            raise ConfigError(f"dist: {exc}",
                              ("dist.family", "dist.shape", "dist.shift", "code.k")) from None
        if self.seed < 0:
            raise ConfigError(f"sim.seed must be nonnegative, got {self.seed}", ("sim.seed",))
        if self.measured_jobs is not None and self.measured_jobs < 1:
            raise ConfigError(f"sim.measured_jobs must be positive, got {self.measured_jobs}",
                              ("sim.measured_jobs",))
        if self.warmup_jobs is not None and self.warmup_jobs < 0:
            raise ConfigError(f"sim.warmup_jobs must be nonnegative, got {self.warmup_jobs}",
                              ("sim.warmup_jobs",))

    def _check_code(self, n: int, k: int, d: int) -> None:
        kind = self.experiment
        code = f"code ({n},{k})" if kind == "batch-sampling" else f"code ({n},{k},{d})"
        if self.L is not None and self.L < n:
            raise ConfigError(f"{code}: sim.L = {self.L} servers cannot host fanout {n}",
                              ("sim.L", *_CODE))
        if kind == "batch-sampling":
            if d != 1:
                raise ConfigError("code.d has no effect on batch-sampling", ("code.d",))
            if not k < n < 2 * k:
                raise ConfigError(f"{code}: batch sampling needs k < n < 2k", _CODE)
            for lam in self.lam_grid:
                if abs(lam * n / k - 1.0) < 1e-12:
                    raise ConfigError(f"{code}: batch bounds are singular at lambda = k/n",
                                      ("lambda.grid", *_CODE))
            return
        if d < 2:
            raise ConfigError(f"{code}: replication degree d must be >= 2", _CODE)
        if n != d * k:
            raise ConfigError(f"{code}: fanout n must equal d*k", _CODE)
        if k < 2:
            # a one-chunk "split" degenerates and the bounds reject it
            raise ConfigError(f"{code}: {kind} needs a split count k >= 2", _CODE)


@dataclass(frozen=True)
class ComparisonRow:
    """One grid point's simulated value against its analytical reference.

    ``aux_a``/``aux_b`` carry kind-specific extras so every pass flag
    is recomputable from the row alone: the naive and coded arm means
    for gain rows, the loose and moment-space bounds for batch rows,
    the residual-max and queue-level terms for general bound rows.
    """

    experiment: str
    family: str
    shape: float
    shift: float
    n: int
    k: int
    d: float
    lam: float
    t: float | None
    seed: int
    sim_mean: float
    sim_se: float
    theory: float
    branch: str
    passed: bool
    aux_a: float | None = None
    aux_b: float | None = None

    def sort_key(self):
        t = -1.0 if self.t is None else self.t
        return (self.experiment, self.family, self.shape, self.shift,
                self.n, self.k, self.d, self.lam, t, self.seed)


CSV_COLUMNS = tuple(f.name for f in fields(ComparisonRow))


# ---------------------------------------------------------------------------
# config parsing

# every config key but the lists lambda.grid and code.* -> (the SweepSpec field it sets, its type)
_SCALARS = {
    "experiment": ("experiment", str), "dist.family": ("family", str),
    "dist.shape": ("shape", float), "dist.shift": ("shift", float), "sim.L": ("L", int),
    "sim.seed": ("seed", int), "sim.warmup_jobs": ("warmup_jobs", int),
    "sim.measured_jobs": ("measured_jobs", int), "out.path": ("out_path", str),
}
_CONFIG_KEYS = ("lambda.grid", *_CODE, *_SCALARS)

# the keys each experiment kind never reads; setting one is a configuration error
_UNREAD = {"residual-check": (*_CODE, "sim.L"), "batch-sampling": ("code.d",)}


def _parse(key: str, where: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: key '{key}' expects {kind.__name__}, got '{raw}'") from None


def build_spec(entries: Iterable[tuple[str, str, str]]) -> SweepSpec:
    """Build a validated SweepSpec from (key, where, raw text) entries.

    The one builder behind config files, presets and CLI flags.
    ``where`` names the entry's source ("line N", "preset NAME" or
    "--flag") in errors; a range error names every entry that set a key
    its check read.  Each key may be set once across all entries, so a
    flag that repeats a file's or a preset's key is a duplicate like a
    repeated line.  An omitted key is not passed on, so it takes the
    field default of :class:`SweepSpec`.
    """
    seen: dict[str, tuple[str, str]] = {}
    for key, where, raw in entries:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key '{key}' (first set on {seen[key][0]})")
        seen[key] = (where, raw)

    def values(key: str, kind: type) -> list:
        where, raw = seen.get(key, ("", ""))
        return [_parse(key, where, p, kind) for chunk in raw.split(",") for p in chunk.split()]

    if "experiment" not in seen:
        raise ConfigError("missing key 'experiment'")
    experiment = seen["experiment"][1]
    for key in _UNREAD.get(experiment, ()):
        if key in seen:
            raise ConfigError(f"{seen[key][0]}: {key} has no effect on {experiment}")
    try:
        return SweepSpec(
            lam_grid=tuple(values("lambda.grid", float)),
            codes=_align_codes(experiment, *(values(key, int) for key in _CODE)),
            **{field: _parse(key, *seen[key], kind)
               for key, (field, kind) in _SCALARS.items() if key in seen},
        )
    except ConfigError as exc:
        where = ", ".join(dict.fromkeys(seen[key][0] for key in exc.keys if key in seen))
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def config_entries(path: str | os.PathLike) -> list[tuple[str, str, str]]:
    """The (key, "line N", raw text) entries of a flat key=value config file."""
    entries = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected key=value, got '{text}'")
        key, _, raw = text.partition("=")
        entries.append((key.strip(), f"line {line_no}", raw.strip()))
    return entries


def _align_codes(
    experiment: str, ns: Sequence[int], ks: Sequence[int], ds: Sequence[int]
) -> tuple[tuple[int, int, int], ...]:
    """Zip code.n/code.k/code.d lists, broadcasting scalars and filling gaps (unread fields: 1)."""
    unread = _UNREAD.get(experiment, ())
    if not ks and "code.k" not in unread:
        raise ConfigError("missing key 'code.k'")
    width = max(len(ns), len(ks), len(ds), 1)

    def broadcast(name: str, vals: Sequence[int]) -> list[int | None]:
        if not vals:
            return [1 if name in unread else None] * width
        if len(vals) == 1:
            return list(vals) * width
        if len(vals) != width:
            raise ConfigError(
                f"key '{name}' has {len(vals)} entries, expected {width} to match the other code lists",
                (name,),
            )
        return list(vals)

    ns_b = broadcast("code.n", ns)
    ks_b = broadcast("code.k", ks)
    ds_b = broadcast("code.d", ds)
    codes = []
    for n, k, d in zip(ns_b, ks_b, ds_b):
        if k < 1:
            raise ConfigError(f"code.k must be positive, got {k}", ("code.k",))
        if d is None and n is not None:
            if n % k or n // k < 2:
                raise ConfigError(f"code.n = {n} is not d * code.k for an integer d >= 2; "
                                  "set code.d", ("code.n", "code.k"))
            d = n // k
        if d is None:
            d = 2
        if n is None:
            n = d * k
        codes.append((n, k, d))
    return tuple(codes)


# ---------------------------------------------------------------------------
# execution

def _point_seed(base: int, index: int) -> int:
    seq = np.random.SeedSequence(entropy=int(base), spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def gain_arms(
    k: int,
    d: int,
    lam: float,
    family: str = "exponential",
    seed: int = 0,
    *,
    shift: float = 0.0,
    shape: float = 1.0,
    L: int | None = None,
    warmup_jobs: int | None = None,
    measured_jobs: int | None = None,
) -> tuple[ClusterConfig, ClusterConfig]:
    """The (replicated, split) configs of a k-way split against d-choice dispatch.

    Both arms run on the same seed (shared arrival epochs) and cluster
    size and measure ``measured_jobs`` jobs (20,000 when None); the
    replicated arm serves unit-mean whole files via ``NaiveReplication(d)``,
    the split arm mean-1/k chunks via ``LeastKOfN(d*k, k)``.
    """
    chunk = dists.chunk_dist(family, k, shift=shift, shape=shape)
    split = ClusterConfig(lam, LeastKOfN(d * k, k), chunk, L=L, seed=seed, warmup_jobs=warmup_jobs,
                          measured_jobs=20_000 if measured_jobs is None else measured_jobs)
    full = dists.chunk_dist(family, 1, shift=shift, shape=shape)
    return replace(split, policy=NaiveReplication(d), service=full), split


def _point_configs(spec: SweepSpec, code, lam: float, seed: int) -> tuple[ClusterConfig, ...]:
    """The simulations of one grid point: both arms of a gain point, one run otherwise."""
    n, k, d = code
    kind = spec.experiment
    common = dict(L=spec.L, seed=seed, warmup_jobs=spec.warmup_jobs,
                  measured_jobs=spec.measured_jobs)
    if kind == "residual-check":
        return ()
    if kind == "gain-sweep":
        return gain_arms(k, d, lam, spec.family, shift=spec.shift, shape=spec.shape, **common)
    if kind == "batch-sampling":
        policy, service = BatchSampling(n=n, k=k), dists.Exponential(rate=1.0)
    else:
        policy = KSplit(k=k, d=d)
        service = dists.chunk_dist(spec.family, k, shift=spec.shift, shape=spec.shape)
    return (ClusterConfig(lam, policy, service, keep_samples=kind == "tail-check", **common),)


def _row(spec: SweepSpec, code, lam: float, seed: int, *result, d: float | None = None,
         t: float | None = None, **aux) -> ComparisonRow:
    """The row of one grid point; ``result`` is (sim_mean, sim_se, theory, branch, passed)."""
    n, k, code_d = code
    return ComparisonRow(spec.experiment, spec.family, spec.shape, spec.shift, n, k,
                         float(code_d if d is None else d), lam, t, seed, *result, **aux)


def _gain_rows(spec: SweepSpec, code, lam: float, seed: int, stats) -> list[ComparisonRow]:
    _, k, d = code
    replicated, split = stats
    # the arms share only arrival epochs, so their SEs add in quadrature
    gain = replicated.mean - split.mean
    se = math.hypot(replicated.std_err, split.std_err)
    theory = bounds.theoretical_gain(d, k, lam, spec.family, shift=spec.shift, shape=spec.shape)
    passed = gain > 0.0 and gain >= theory.value - 3.0 * se
    return [_row(spec, code, lam, seed, gain, se, theory.value, theory.branch, passed,
                 aux_a=replicated.mean, aux_b=split.mean)]


def _bound_rows(spec: SweepSpec, code, lam: float, seed: int, stats) -> list[ComparisonRow]:
    (stats,) = stats
    report = bounds.mean_latency_bound(spec.family, code[1], lam, shift=spec.shift,
                                       shape=spec.shape, strict=False)
    passed = stats.mean <= report.value + 3.0 * stats.std_err
    return [_row(spec, code, lam, seed, stats.mean, stats.std_err, report.value, report.branch,
                 passed, aux_a=report.auxiliary.get("residual_max"),
                 aux_b=report.auxiliary.get("phi"))]


def _tail_rows(spec: SweepSpec, code, lam: float, seed: int, stats) -> list[ComparisonRow]:
    k = code[1]
    samples = stats[0].samples
    assert samples is not None
    # the thresholds run from the bound's anchor r/k, which any of its reports carries
    anchor = bounds.tail_latency_bound(k, lam, _TAIL_EPSILON, 0.0).auxiliary["anchor"]
    rows = []
    for t in np.linspace(anchor, 6.0 * anchor, _TAIL_POINTS).tolist():
        p_hat = float(np.mean(samples > t))
        se = math.sqrt(p_hat * (1.0 - p_hat) / len(samples))
        bound = bounds.tail_latency_bound(k, lam, _TAIL_EPSILON, t)
        rows.append(_row(spec, code, lam, seed, p_hat, se, bound.value, bound.branch,
                         p_hat <= bound.value + 3.0 * se, t=t))
    return rows


def _batch_rows(spec: SweepSpec, code, lam: float, seed: int, stats) -> list[ComparisonRow]:
    n, k, _ = code
    (stats,) = stats
    ratio = n / k
    tight = bounds.bound_I(lam, ratio, k, variant="tight")
    loose = bounds.bound_I(lam, ratio, k, variant="loose")
    moment = bounds.bound_II(lam, ratio, k)
    tol = 3.0 * stats.std_err
    passed = (stats.mean <= tight.value + tol
              and tight.value + tol <= loose.value
              and stats.mean <= moment.value)
    return [_row(spec, code, lam, seed, stats.mean, stats.std_err, tight.value, tight.branch,
                 passed, d=ratio, aux_a=loose.value, aux_b=moment.value)]


def _residual_rows(spec: SweepSpec, code, lam: float, seed: int, stats) -> list[ComparisonRow]:
    service = dists.chunk_dist(spec.family, 1, shift=spec.shift, shape=spec.shape)
    sim = empirical_residual(service, lam, seed=seed, warmup_jobs=spec.warmup_jobs,
                             measured_jobs=spec.measured_jobs)
    theory = bounds.residual_moment(service)
    return [_row(spec, code, lam, seed, sim, 0.0, theory, "", abs(sim - theory) <= 0.02 * theory)]


# the experiment kinds, each with the builder of a point's rows from its simulations' statistics
_ROWS = {
    "gain-sweep": _gain_rows,
    "bound-check": _bound_rows,
    "tail-check": _tail_rows,
    "batch-sampling": _batch_rows,
    "residual-check": _residual_rows,
}


# measured jobs whose latencies one share of a sweep holds at once: 8 MB
_SHARE_JOBS = 1 << 20


def _share_rows(args: tuple) -> list[ComparisonRow]:
    """Simulate the points of one share together as lockstep lanes, then build their rows."""
    spec, points, configs = args
    stats = iter(run_many([config for point in configs for config in point]))
    return [row for (code, lam, seed), point in zip(points, configs)
            for row in _ROWS[spec.experiment](spec, code, lam, seed, [next(stats) for _ in point])]


def run_sweep(spec: SweepSpec, *, workers: int | None = None) -> list[ComparisonRow]:
    """Execute every grid point and return rows sorted by coordinates.

    The points are cut into contiguous shares of equal size, each
    holding at most ``_SHARE_JOBS`` measured jobs unless one point alone
    holds more; the simulations of a share (both arms of a gain point)
    go to ``run_many`` at once, so they advance as lockstep lanes, and
    its bounds and rows follow.  ``workers`` > 1 cuts at least one share
    per worker process; each point owns a seed derived from
    (spec.seed, point index), so the result is identical to the serial run.
    """
    grid = [(code, lam) for code in spec.codes for lam in spec.lam_grid]
    points = [(code, lam, _point_seed(spec.seed, i)) for i, (code, lam) in enumerate(grid)]
    configs = [_point_configs(spec, *point) for point in points]
    jobs = max(sum(config.measured_jobs for config in point) for point in configs)
    size = max(1, min(-(-len(points) // max(1, workers or 1)), _SHARE_JOBS // max(1, jobs)))
    shares = [(spec, points[i : i + size], configs[i : i + size])
              for i in range(0, len(points), size)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_share_rows, shares))
    else:
        chunks = [_share_rows(share) for share in shares]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=ComparisonRow.sort_key)
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def render_csv(rows: Iterable[ComparisonRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[ComparisonRow], path: str | os.PathLike) -> None:
    """Render rows with 9-significant-digit numerics; byte-stable."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(rows))


# ---------------------------------------------------------------------------
# figure presets: config entries that set every key their kind reads but sim.seed and out.path

_GAIN_ENTRIES = {
    "experiment": "gain-sweep", "lambda.grid": "0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9",
    "code.n": "4, 6, 8, 9", "code.k": "2, 3, 4, 3", "code.d": "2, 2, 2, 3",
    "dist.family": "exponential", "dist.shape": "1", "dist.shift": "0",
    "sim.L": "1000", "sim.warmup_jobs": "30000", "sim.measured_jobs": "25000",
}

PRESETS: dict[str, dict[str, str]] = {
    "fig3a": _GAIN_ENTRIES,
    "fig3b": {**_GAIN_ENTRIES, "dist.family": "shifted-exponential", "dist.shift": "0.1"},
    "fig4": {**_GAIN_ENTRIES, "dist.family": "weibull", "dist.shape": "1.5"},
    "fig5": {
        "experiment": "batch-sampling", "lambda.grid": "0.8, 0.85, 0.9",
        "code.n": "14", "code.k": "10",
        "dist.family": "exponential", "dist.shape": "1", "dist.shift": "0",
        "sim.L": "2000", "sim.warmup_jobs": "40000", "sim.measured_jobs": "30000",
    },
}


def preset_entries(name: str) -> list[tuple[str, str, str]]:
    """The (key, "preset NAME", raw text) entries of a named preset."""
    try:
        entries = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset '{name}' (expected one of {', '.join(sorted(PRESETS))})"
        ) from None
    return [(key, f"preset {name}", raw) for key, raw in entries.items()]
