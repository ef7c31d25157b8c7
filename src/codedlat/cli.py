"""Command-line front end.

Subcommands:

* ``simulate``  one cluster run, prints latency statistics.
* ``bound``     one bound evaluation, prints value, branch, and the
                auxiliary terms needed to recompute it.
* ``sweep``     executes a sweep spec (a preset or a config file, and/or
                inline flags), writes the comparison CSV and prints a
                FAIL line per failed row.
* ``compare``   like sweep, but exits 1 unless every row passes.
* ``figures``   emits the preset sweeps as plot-ready CSV files; exits 1
                if any row fails.

Sweep flags set config keys (``--lambda`` sets ``lambda.grid``, ``--k``
sets ``code.k``, ...): they join a preset's or a ``--config`` file's
entries as entries of one spec, and a key set twice is an error.  When
``--out`` is omitted, files land under ``$CODEDLAT_OUT`` (default
current directory).  Exit status: 0 success, 1 failed comparison or
any other failure, 2 configuration error (bad flags, an unreadable
config file or an unwritable output path); errors raised while
simulating are not configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds
from . import distributions as dists
from . import harness
from .simulator import (
    BatchSampling,
    ClusterConfig,
    KSplit,
    LeastKOfN,
    NaiveReplication,
    RedundantRequest,
    run,
)

_OUT_ENV = "CODEDLAT_OUT"
_DIST_HELP = f"service family ({', '.join(dists.FAMILIES)})"


# sweep flags: (flag, the config key it sets, help)
_SPEC_FLAGS = (
    ("--experiment", "experiment", ", ".join(harness._ROWS)),
    ("--lambda", "lambda.grid", "comma-separated loads"),
    ("--n", "code.n", "fanout list"),
    ("--k", "code.k", "split count list"),
    ("--d", "code.d", "choices / replicas list"),
    ("--dist", "dist.family", _DIST_HELP),
    ("--shape", "dist.shape", "Weibull shape"),
    ("--shift", "dist.shift", "shift of a unit-mean file, in [0, 1)"),
    ("--L", "sim.L", "server count"),
    ("--seed", "sim.seed", "base seed (default 0)"),
    ("--warmup-jobs", "sim.warmup_jobs", "warmup jobs per run"),
    ("--measured-jobs", "sim.measured_jobs", "measured jobs per run"),
)


def _add_dist_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dist", default="exponential", help=_DIST_HELP)
    parser.add_argument("--shape", type=float, default=1.0, help="dist.shape")
    parser.add_argument("--shift", type=float, default=0.0, help="dist.shift")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedlat",
        description="Latency simulation and bounds for split/replicated storage clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one cluster simulation")
    sim.add_argument("--policy", required=True,
                     choices=("naive", "ksplit", "least", "batch", "redundant"))
    sim.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="per-server arrival intensity in (0, 1)")
    sim.add_argument("--n", type=int, default=None, help="code.n (fanout)")
    sim.add_argument("--k", type=int, default=None, help="code.k (split count)")
    sim.add_argument("--d", type=int, default=None, help="code.d (choices / replicas, default 2)")
    sim.add_argument("--extra", type=int, default=None, help="redundant tasks beyond k (default 1)")
    _add_dist_flags(sim)
    sim.add_argument("--L", type=int, default=None, help="server count")
    sim.add_argument("--seed", type=int, default=0, help="seed")
    sim.add_argument("--warmup-jobs", type=int, default=None)
    sim.add_argument("--measured-jobs", type=int, default=None)

    bnd = sub.add_parser("bound", help="evaluate one analytical bound")
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--lambda", dest="lam", type=float, required=True)
    bnd.add_argument("--epsilon", type=float, default=None,
                     help="tail budget; with --t evaluates the tail bound")
    bnd.add_argument("--t", type=float, default=None, help="latency threshold for the tail bound")
    bnd.add_argument("--loose", action="store_true",
                     help="allow arrival intensities below 1/k (extrapolation)")
    _add_dist_flags(bnd)

    for name, help_text in (("sweep", "run a sweep and write its CSV"),
                            ("compare", "run a sweep; exit 1 unless every row passes")):
        sw = sub.add_parser(name, help=help_text)
        source = sw.add_mutually_exclusive_group()
        source.add_argument("--config", default=None, help="path to a key=value sweep config")
        source.add_argument("--preset", default=None, choices=sorted(harness.PRESETS),
                            help="named preset sweep")
        for flag, key, help_text in _SPEC_FLAGS:
            sw.add_argument(flag, dest=key, default=None, help=f"{key}: {help_text}")
        sw.add_argument("--out", default=None, help="output CSV path")
        sw.add_argument("--jobs", type=int, default=None, help="parallel worker processes")

    fig = sub.add_parser("figures", help="emit the preset figure sweeps as CSV data")
    fig.add_argument("--out", default=None, help="output directory")
    fig.add_argument("--seed", dest="sim.seed", default=None,
                     help="sim.seed: base seed (default 0)")
    fig.add_argument("--jobs", type=int, default=None, help="parallel worker processes")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies

def _policy_from_args(args) -> object:
    reads = {"naive": "d", "ksplit": "k d", "least": "k d" if args.n is None else "k n",
             "batch": "k n", "redundant": "k extra"}[args.policy].split()
    for flag in ("k", "n", "d", "extra"):
        if vars(args)[flag] is not None and flag not in reads:
            raise harness.ConfigError(f"--{flag}: policy {args.policy!r} does not read it")
        if vars(args)[flag] is None and flag in reads and flag in ("k", "n"):
            raise harness.ConfigError(f"--policy {args.policy} requires --{flag}")
    d = 2 if args.d is None else args.d
    if args.policy == "naive":
        return NaiveReplication(d=d)
    if args.policy == "ksplit":
        return KSplit(k=args.k, d=d)
    if args.policy == "least":  # reads --d only to set n = d k when --n is omitted
        return LeastKOfN(n=d * args.k if args.n is None else args.n, k=args.k)
    if args.policy == "batch":
        return BatchSampling(n=args.n, k=args.k)
    return RedundantRequest(k=args.k, extra=1 if args.extra is None else args.extra)


def _service_from_args(args) -> dists.ServiceDistribution:
    # whole-file service (k = 1) for replication/batch arms, chunk service otherwise
    k = 1 if args.policy in ("naive", "batch") else args.k
    return dists.chunk_dist(args.dist, k, shift=args.shift, shape=args.shape)


def _check_dist_flags(args) -> None:
    unread = dists.unread_parameter(args.dist, args.shift, args.shape)
    if unread:
        raise harness.ConfigError(f"--{unread}: family {args.dist!r} does not read it")


def _cmd_simulate(args) -> int:
    try:
        _check_dist_flags(args)
        config = ClusterConfig(
            lam=args.lam,
            policy=_policy_from_args(args),
            service=_service_from_args(args),
            L=args.L,
            seed=args.seed,
            warmup_jobs=args.warmup_jobs,
            measured_jobs=args.measured_jobs,
        )
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from None
    stats = run(config)
    print(f"jobs = {stats.job_count}")
    print(f"mean = {stats.mean:.6g}  (se {stats.std_err:.3g})")
    for p, value in sorted(stats.quantiles.items()):
        print(f"p{int(p * 100)} = {value:.6g}")
    for r, prob in stats.queue_ccdf[:6]:
        print(f"P(Q >= {r}) = {prob:.6g}")
    return 0


def _print_report(report: bounds.BoundReport) -> None:
    print(f"value = {report.value:.6g}")
    print(f"branch = {report.branch}")
    for key in sorted(report.auxiliary):
        print(f"{key} = {report.auxiliary[key]:.6g}")


def _cmd_bound(args) -> int:
    _check_dist_flags(args)
    if (args.epsilon is None) != (args.t is None):
        raise harness.ConfigError("tail bound needs both --epsilon and --t")
    if args.epsilon is not None:
        if args.loose:
            raise harness.ConfigError("--loose: the tail bound does not read it")
        if dists.canonical_family(args.dist) != "exponential":
            raise harness.ConfigError(f"--dist: the tail bound needs exponential service, "
                                      f"got {args.dist!r}")
        report = bounds.tail_latency_bound(args.k, args.lam, args.epsilon, args.t)
        _print_report(report)
        print(f"P(latency > {args.t:g}) <= {report.value:.6g}")
        return 0
    _print_report(bounds.mean_latency_bound(args.dist, args.k, args.lam, shift=args.shift,
                                            shape=args.shape, strict=not args.loose))
    return 0


def _flag_entries(args) -> list[tuple[str, str, str]]:
    return [(key, flag, vars(args)[key]) for flag, key, _ in _SPEC_FLAGS
            if vars(args).get(key) is not None]


def _spec_from_args(args) -> harness.SweepSpec:
    """The entries of a preset or of --config, joined by those of the spec flags."""
    if args.preset:
        entries = harness.preset_entries(args.preset)
    else:
        entries = harness.config_entries(args.config) if args.config else []
    return harness.build_spec([*entries, *_flag_entries(args)])


def _out_path(args, spec: harness.SweepSpec) -> str:
    if args.out:
        return args.out
    if spec.out_path:
        return spec.out_path
    name = args.preset or spec.experiment
    return os.path.join(os.environ.get(_OUT_ENV, "."), f"{name}.csv")


def _emit(spec: harness.SweepSpec, path: str, workers: int | None) -> int:
    """Run a sweep, write its CSV, print a summary and a FAIL line per failed row.

    Returns the number of failed rows; only compare and figures gate on it.
    """
    rows = harness.run_sweep(spec, workers=workers)
    harness.write_csv(rows, path)
    failed = [row for row in rows if not row.passed]
    print(f"{len(rows)} rows ({len(rows) - len(failed)} passed) -> {path}")
    for row in failed:
        where = f"n={row.n} k={row.k} d={row.d:g} lam={row.lam:g}"
        if row.t is not None:
            where += f" t={row.t:g}"
        print(f"FAIL {row.experiment} {row.family} {where}: "
              f"sim {row.sim_mean:.6g} (se {row.sim_se:.3g}) vs theory {row.theory:.6g}")
    return len(failed)


def _cmd_sweep(args, *, gate: bool) -> int:
    spec = _spec_from_args(args)
    failed = _emit(spec, _out_path(args, spec), args.jobs)
    return 1 if gate and failed else 0


def _cmd_figures(args) -> int:
    out_dir = args.out or os.environ.get(_OUT_ENV, "figures-data")
    specs = {name: harness.build_spec([*harness.preset_entries(name), *_flag_entries(args)])
             for name in sorted(harness.PRESETS)}
    failed = sum(_emit(spec, os.path.join(out_dir, f"{name}.csv"), args.jobs)
                 for name, spec in specs.items())
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", None) is not None and args.jobs < 1:
            raise harness.ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bound":
            try:
                return _cmd_bound(args)
            except ValueError as exc:  # the closed forms check their arguments' domain
                raise harness.ConfigError(str(exc)) from None
        if args.command == "sweep":
            return _cmd_sweep(args, gate=False)
        if args.command == "compare":
            return _cmd_sweep(args, gate=True)
        return _cmd_figures(args)
    except (harness.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
