"""Benchmark codedlat on one workload, end to end or layer by layer.

    python3 bench/run.py --workload fig4-gain-sweep --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run repeats whole rounds of the workload for
``--seconds`` with no instrument installed and reports the end-to-end
metrics: ``setup_s`` (median of fresh-interpreter set-ups), ``wall_s``
(median round), ``jobs_per_s`` and ``peak_rss_mb``.  With ``--trace 1``
it alternates untraced and span-traced rounds, then profiles one more
round, and reports the per-layer metrics and the tracing overhead.
Either way the first round of the ``--seconds`` is a warm-up that is
checked and counted but not timed.
Every round's outputs are checked; a failed check counts as a failed
operation and makes the exit status 1.  The last line of stdout is the
result as one JSON object.  The result with each round's wall time,
and the spans of a traced run, are also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, use_checkout_source

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("jobs_per_s", "jobs/s"), ("peak_rss_mb", "MB"))


class Rounds:
    """Runs and checks whole rounds of one workload; counts operations."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failures: list[str] = []
        self.detail: dict[str, list[float]] = {}

    def run(self, instrument=None) -> float:
        """One round; returns its wall time, which excludes the checks."""
        w = self.workload
        if instrument is not None:
            instrument.install()
        try:
            start = time.perf_counter()
            out = w.run_round()
            wall = time.perf_counter() - start
        finally:
            if instrument is not None:
                instrument.uninstall()
        self.attempted += w.ops
        if self.first is None:
            self.first = out
        if out != self.first:
            # a fixed seed must reproduce the same outputs, traced or not
            failed = [f"round {self.attempted // w.ops}: outputs differ from the first round"] * w.ops
        else:
            failed = w.check(out)[: w.ops]
        self.failures.extend(failed)
        return wall


def setup_sample(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def untraced(rounds: Rounds, seconds: float, seed: int):
    setups = [setup_sample(rounds.workload.name, seed) for _ in range(SETUP_PROBES)]
    deadline = time.perf_counter() + seconds
    rounds.run()  # warm-up: checked and counted, not timed
    walls = []
    while not walls or time.perf_counter() < deadline:
        walls.append(rounds.run())
    wall = statistics.median(walls)
    rounds.detail.update(round_walls_s=walls, setup_samples_s=setups)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "jobs_per_s": rounds.workload.jobs / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, dict(END_TO_END)


def traced(rounds: Rounds, seconds: float, spans_path: Path):
    import tracing  # only here, so untraced runs load none of its modules

    tracer, profiler = tracing.SpanTracer(), tracing.EngineProfiler()
    plain, spanned, per_round = [], [], []
    deadline = time.perf_counter() + seconds
    rounds.run()  # warm-up: checked and counted, not timed
    while not plain or time.perf_counter() < deadline:
        plain.append(rounds.run())
        first = len(tracer.spans)
        spanned.append(rounds.run(tracer))
        per_round.append(tracer.metrics(first, len(tracer.spans)))
    rounds.run(profiler)
    rounds.detail.update(untraced_walls_s=plain, traced_walls_s=spanned)
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics.update(profiler.shares())
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(spanned)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    spans_path.write_text(json.dumps(tracer.dump()))
    return {name: metrics[name] for name, _ in tracing.PER_LAYER}, dict(tracing.PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (expected one of {', '.join(workloads.WORKLOADS)})")
    rounds = Rounds(workloads.WORKLOADS[args.workload](args.seed))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, units = traced(rounds, args.seconds, RESULTS / f"{stem}-spans.json")
    else:
        values, units = untraced(rounds, args.seconds, args.seed)

    result = {
        "correct": not rounds.failures,
        "attempted": rounds.attempted,
        "failed": len(rounds.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    detail = {"result": result, "failures": rounds.failures, **rounds.detail}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for msg in rounds.failures:
        print(f"FAILED {args.workload}: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{rounds.attempted} operations, {len(rounds.failures)} failed")
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
