"""Per-layer measurement from outside the package.

Two instruments, both installed only for the rounds they measure:

* ``SpanTracer`` wraps every public function of each ``codedlat``
  module (the layers) and records a span (name, start, end, parent)
  around each call, plus the run's engine, policy and job count for
  ``simulator.run``.  Spans stay in memory until the run ends.
* ``EngineProfiler`` runs ``cProfile`` around each ``simulator.run``
  call, one profiler per engine, and splits engine time into phases.
  The profiler adds a cost to every Python call, so phases made of
  many small calls (queue probes, stream takes) read larger than they
  are untraced: the shares are profiler-inflated.

Wrapping replaces the function object in every ``codedlat`` module
that holds it (``from .x import f`` copies the reference), and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
import statistics
import sys
import time

import codedlat

LAYERS = ("distributions", "queue_models", "bounds", "golden", "simulator", "harness", "cli")

# A sweep point is a private unit of the harness; it is traced while the
# harness has it, and ``harness.point_p50_s`` reads 0 once it is gone.
_POINT = ("harness", "_execute_point", "harness.point")

PER_LAYER = (
    ("simulator.run.busy_s", "s"),
    ("simulator.fast.naive.jobs_per_s", "jobs/s"),
    ("simulator.fast.least.jobs_per_s", "jobs/s"),
    ("simulator.fast.ksplit.jobs_per_s", "jobs/s"),
    ("simulator.fast.batch.jobs_per_s", "jobs/s"),
    ("simulator.event.batch.jobs_per_s", "jobs/s"),
    ("simulator.event.redundant.jobs_per_s", "jobs/s"),
    ("simulator.fast.draw_share", "share"),
    ("simulator.fast.probe_share", "share"),
    ("simulator.fast.pick_share", "share"),
    ("simulator.fast.stream_share", "share"),
    ("simulator.fast.place_share", "share"),
    ("simulator.fast.stats_share", "share"),
    ("simulator.event.heap_share", "share"),
    ("simulator.event.draw_share", "share"),
    ("simulator.gain_experiment.busy_s", "s"),
    ("bounds.theoretical_gain.calls", "count"),
    ("bounds.theoretical_gain.us_per_call", "us"),
    ("bounds.m_k_bound.calls", "count"),
    ("bounds.m_k_bound.us_per_call", "us"),
    ("queue_models.sample_queue_length.busy_s", "s"),
    ("distributions.sample.calls", "count"),
    ("distributions.sample.busy_s", "s"),
    ("harness.run_sweep.busy_s", "s"),
    ("harness.point_p50_s", "s"),
    ("harness.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)

_POLICY_LABELS = {
    "NaiveReplication": "naive",
    "LeastKOfN": "least",
    "KSplit": "ksplit",
    "BatchSampling": "batch",
    "RedundantRequest": "redundant",
}


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "codedlat" or name.startswith("codedlat."))]


def describe_run(config) -> tuple[str, str, int]:
    """(engine, policy label, simulated jobs) of one ``simulator.run`` call.

    ``engine='auto'`` resolves as the simulator documents it: the event
    engine for purging policies, the fast engine otherwise.
    """
    policy = type(config.policy).__name__
    engine = config.engine
    if engine == "auto":
        engine = "event" if policy == "RedundantRequest" else "fast"
    return engine, _POLICY_LABELS.get(policy, policy), config.warmup_jobs + config.measured_jobs


class _Patcher:
    """Swaps function objects in every codedlat module, and swaps them back."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper) -> None:
        for mod in _modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class SpanTracer(_Patcher):
    """Spans around every public function of each layer module."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index or None, attrs]
        self._stack: list[int] = []

    def _wrap(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            attrs = describe(*args, **kwargs) if describe else None
            spans.append([name, clock(), None, stack[-1] if stack else None, attrs])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            mod = sys.modules.get(f"codedlat.{layer}")
            if mod is None:
                continue
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    describe = (lambda config, *a, **k: describe_run(config)) if (
                        layer == "simulator" and attr == "run") else None
                    self.replace(fn, self._wrap(f"{layer}.{attr}", fn, describe))
        layer, attr, name = _POINT
        fn = getattr(sys.modules.get(f"codedlat.{layer}"), attr, None)
        if inspect.isfunction(fn):
            self.replace(fn, self._wrap(name, fn))

    def metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over the spans recorded in ``spans[first:last]``."""
        spans = self.spans
        idx = range(first, last)

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def dur(i):
            return spans[i][2] - spans[i][1]

        def outermost(i):
            p = spans[i][3]
            while p is not None:
                if spans[p][0] == spans[i][0]:
                    return False
                p = spans[p][3]
            return True

        def named(name):
            return [i for i in idx if spans[i][0] == name]

        def busy(name):
            return sum((dur(i) for i in named(name) if outermost(i)), 0.0)

        out = {"simulator.run.busy_s": busy("simulator.run")}
        rates: dict[tuple[str, str], list[float]] = {}
        for i in named("simulator.run"):
            engine, policy, jobs = spans[i][4]
            acc = rates.setdefault((engine, policy), [0.0, 0.0])
            acc[0] += jobs
            acc[1] += dur(i)
        for engine, policy in (("fast", "naive"), ("fast", "least"), ("fast", "ksplit"),
                               ("fast", "batch"), ("event", "batch"), ("event", "redundant")):
            jobs, secs = rates.get((engine, policy), (0.0, 0.0))
            out[f"simulator.{engine}.{policy}.jobs_per_s"] = jobs / secs if secs else 0.0
        out["simulator.gain_experiment.busy_s"] = busy("simulator.gain_experiment")
        for fn in ("bounds.theoretical_gain", "bounds.m_k_bound"):
            calls = named(fn)
            out[f"{fn}.calls"] = float(len(calls))
            out[f"{fn}.us_per_call"] = 1e6 * sum(map(dur, calls)) / len(calls) if calls else 0.0
        out["queue_models.sample_queue_length.busy_s"] = busy("queue_models.sample_queue_length")
        out["distributions.sample.calls"] = float(len(named("distributions.sample")))
        out["distributions.sample.busy_s"] = busy("distributions.sample")

        sweeps = named("harness.run_sweep")
        sweep_s = sum(map(dur, sweeps), 0.0)
        out["harness.run_sweep.busy_s"] = sweep_s
        points = [dur(i) for i in named(_POINT[2])]
        out["harness.point_p50_s"] = statistics.median(points) if points else 0.0
        inner = 0.0
        for i in idx:
            if layer(i) not in ("simulator", "bounds"):
                continue
            p = spans[i][3]
            while p is not None and layer(p) not in ("simulator", "bounds") and \
                    spans[p][0] != "harness.run_sweep":
                p = spans[p][3]
            if p is not None and spans[p][0] == "harness.run_sweep":
                inner += dur(i)
        out["harness.overhead_s"] = sweep_s - inner
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": a}
                for n, s, e, p, a in self.spans]


class EngineProfiler(_Patcher):
    """cProfile around each ``simulator.run`` call, one profiler per engine."""

    def __init__(self):
        super().__init__()
        self.profiles = {"fast": cProfile.Profile(), "event": cProfile.Profile()}

    def install(self) -> None:
        run = codedlat.simulator.run
        profiles = self.profiles

        def profiled(config, *args, **kwargs):
            prof = profiles[describe_run(config)[0]]
            prof.enable()
            try:
                return run(config, *args, **kwargs)
            finally:
                prof.disable()

        self.replace(run, profiled)

    def shares(self) -> dict[str, float]:
        out = {}
        for engine, prof in self.profiles.items():
            try:
                stats = pstats.Stats(prof).stats
            except TypeError:  # nothing was profiled on this engine
                stats = {}

            def cum(*names, builtin=False):
                return sum(v[3] for (path, _, fn), v in stats.items()
                           if (builtin and any(n in fn for n in names))
                           or (not builtin and fn in names and path.endswith("simulator.py")))

            total = cum("run")
            if engine == "fast":
                draw, probe, select = cum("_draw_distinct"), cum("qlen"), cum("select")
                stream = cum("take1", "take", "_streams")
                phases = {
                    "draw": draw,
                    "probe": probe,
                    "pick": select - draw - probe,
                    "stream": stream,
                    "place": cum("_run_fast") - select - stream,
                    "stats": cum("_build_stats"),
                }
            else:
                phases = {"heap": cum("heappush", "heappop", builtin=True),
                          "draw": cum("_draw_distinct")}
            for phase, secs in phases.items():
                out[f"simulator.{engine}.{phase}_share"] = secs / total if total else 0.0
        return out
