"""Command-line front end.

Subcommands:

* ``simulate``  one cluster run, prints latency statistics.
* ``bound``     one bound evaluation, prints value, branch, and the
                auxiliary terms needed to recompute it.
* ``sweep``     executes a sweep spec (a preset, or a config file and/or
                inline flags) and writes the comparison CSV.
* ``compare``   like sweep, but exits 1 unless every row passes.
* ``figures``   emits the preset sweeps as plot-ready CSV files; exits 1
                if any row fails.

Sweep flags set config keys (``--lambda`` sets ``lambda.grid``, ``--k``
sets ``code.k``, ...): they join a ``--config`` file's lines as entries
of one spec, and a key set twice is an error.  When
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


# sweep flags: (flag, the config key it sets, help)
_SPEC_FLAGS = (
    ("--experiment", "experiment",
     "gain-sweep, bound-check, tail-check, batch-sampling or residual-check"),
    ("--lambda", "lambda.grid", "comma-separated loads"),
    ("--n", "code.n", "fanout list"),
    ("--k", "code.k", "split count list"),
    ("--d", "code.d", "choices / replicas list"),
    ("--dist", "dist.family", "service family (exponential, shifted-exponential, weibull, pareto)"),
    ("--shape", "dist.shape", "Weibull shape"),
    ("--shift", "dist.shift", "additive shift"),
    ("--L", "sim.L", "server count"),
    ("--seed", "sim.seed", "base seed (default: 0 or the preset's)"),
    ("--warmup-jobs", "sim.warmup_jobs", "warmup jobs per run"),
    ("--measured-jobs", "sim.measured_jobs", "measured jobs per run"),
)


def _add_dist_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dist", default="exponential",
                        help="service family (exponential, shifted-exponential, weibull, pareto)")
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
    sim.add_argument("--d", type=int, default=2, help="code.d (choices / replicas)")
    sim.add_argument("--extra", type=int, default=1, help="redundant tasks beyond k")
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
        sw.add_argument("--config", default=None, help="path to a key=value sweep config")
        sw.add_argument("--preset", default=None, choices=sorted(harness.PRESETS),
                        help="named preset sweep")
        for flag, key, help_text in _SPEC_FLAGS:
            # --seed also picks a preset's seed, which takes no other entry
            sw.add_argument(flag, dest=key, type=int if key == "sim.seed" else str,
                            default=None, help=f"{key}: {help_text}")
        sw.add_argument("--out", default=None, help="output CSV path")
        sw.add_argument("--jobs", type=int, default=None, help="parallel worker processes")

    fig = sub.add_parser("figures", help="emit the preset figure sweeps as CSV data")
    fig.add_argument("--out", default=None, help="output directory")
    fig.add_argument("--seed", type=int, default=None, help="override preset seeds")
    fig.add_argument("--jobs", type=int, default=None, help="parallel worker processes")
    fig.add_argument("--only", default=None, choices=sorted(harness.PRESETS),
                     help="emit a single preset")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies

def _policy_from_args(args) -> object:
    if args.policy == "naive":
        return NaiveReplication(d=args.d)
    if args.k is None:
        raise harness.ConfigError(f"--policy {args.policy} requires --k")
    if args.policy == "ksplit":
        return KSplit(k=args.k, d=args.d)
    if args.policy == "least":
        n = args.n if args.n is not None else args.d * args.k
        return LeastKOfN(n=n, k=args.k)
    if args.policy == "batch":
        if args.n is None:
            raise harness.ConfigError("--policy batch requires --n")
        return BatchSampling(n=args.n, k=args.k)
    return RedundantRequest(k=args.k, extra=args.extra)


def _service_from_args(args) -> dists.ServiceDistribution:
    # whole-file service for replication/batch arms, chunk service otherwise
    if args.policy in ("naive", "batch"):
        return dists.service_pair(args.dist, 1, shift=args.shift, shape=args.shape)[0]
    k = args.k if args.k is not None else 1
    return dists.chunk_dist(args.dist, k, shift=args.shift, shape=args.shape)


def _cmd_simulate(args) -> int:
    try:
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
    if (args.epsilon is None) != (args.t is None):
        raise harness.ConfigError("tail bound needs both --epsilon and --t")
    if args.epsilon is not None:
        value = bounds.tail_latency_bound(args.k, args.lam, args.epsilon, args.t)
        print(f"value = {value:.6g}")
        print(f"P(latency > {args.t:g}) <= {value:.6g}")
        return 0
    _print_report(bounds.mean_latency_bound(args.dist, args.k, args.lam, shift=args.shift,
                                            shape=args.shape, strict=not args.loose))
    return 0


def _spec_from_args(args) -> harness.SweepSpec:
    """A preset alone, or the entries of --config and of the spec flags merged."""
    flags = [(key, flag, str(vars(args)[key])) for flag, key, _ in _SPEC_FLAGS
             if vars(args)[key] is not None]
    if args.preset:
        stray = ["--config"] if args.config else [flag for key, flag, _ in flags if key != "sim.seed"]
        if stray:
            raise harness.ConfigError(f"--preset takes no {stray[0]} (only --seed)")
        return harness.preset(args.preset, seed=vars(args)["sim.seed"])
    file_entries = harness.config_entries(args.config) if args.config else []
    return harness.build_spec([*file_entries, *flags])


def _out_path(args, spec: harness.SweepSpec) -> str:
    if args.out:
        return args.out
    if spec.out_path:
        return spec.out_path
    name = args.preset or spec.experiment
    return os.path.join(os.environ.get(_OUT_ENV, "."), f"{name}.csv")


def _cmd_sweep(args, *, gate: bool) -> int:
    spec = _spec_from_args(args)
    rows = harness.run_sweep(spec, workers=args.jobs)
    path = _out_path(args, spec)
    harness.write_csv(rows, path)
    passed = sum(row.passed for row in rows)
    print(f"{len(rows)} rows ({passed} passed) -> {path}")
    if gate:
        for row in rows:
            if not row.passed:
                where = f"n={row.n} k={row.k} d={row.d:g} lam={row.lam:g}"
                if row.t is not None:
                    where += f" t={row.t:g}"
                print(f"FAIL {row.experiment} {row.family} {where}: "
                      f"sim {row.sim_mean:.6g} (se {row.sim_se:.3g}) vs theory {row.theory:.6g}")
        if passed != len(rows):
            return 1
    return 0


def _cmd_figures(args) -> int:
    out_dir = args.out or os.environ.get(_OUT_ENV, "figures-data")
    names = [args.only] if args.only else sorted(harness.PRESETS)
    failed = 0
    for name in names:
        spec = harness.preset(name, seed=args.seed)
        rows = harness.run_sweep(spec, workers=args.jobs)
        path = os.path.join(out_dir, f"{name}.csv")
        harness.write_csv(rows, path)
        passed = sum(row.passed for row in rows)
        print(f"{name}: {len(rows)} rows ({passed} passed) -> {path}")
        failed += len(rows) - passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
