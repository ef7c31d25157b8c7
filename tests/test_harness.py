import itertools
import math
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from codedlat import bounds, cli, harness, simulator
from codedlat import distributions as dists
from codedlat.distributions import Exponential
from codedlat.simulator import ClusterConfig, KSplit

ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, text, name="sweep.config"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FULL_CONFIG = """
# comment lines and blank lines are ignored
experiment = gain-sweep
lambda.grid = 0.2, 0.5
code.n = 4, 9
code.k = 2, 3          # aligned lists
dist.family = shifted-exponential
dist.shift = 0.1
sim.L = 300
sim.seed = 17
sim.warmup_jobs = 400
sim.measured_jobs = 800
out.path = rows.csv
"""


def test_load_config_full(tmp_path):
    spec = harness.build_spec(harness.config_entries(write(tmp_path, FULL_CONFIG)))
    assert spec.experiment == "gain-sweep"
    assert spec.lam_grid == (0.2, 0.5)
    # code.d omitted: inferred from n / k
    assert spec.codes == ((4, 2, 2), (9, 3, 3))
    assert spec.family == "shifted-exponential"
    assert spec.shift == 0.1
    assert (spec.L, spec.seed) == (300, 17)
    assert spec.out_path == "rows.csv"


def test_minimal_config_defers_to_simulator_defaults(tmp_path):
    spec = harness.build_spec(harness.config_entries(write(
        tmp_path, "experiment = bound-check\nlambda.grid = 0.9\ncode.k = 4\ncode.d = 2\n"
    )))
    assert spec.L is None and spec.warmup_jobs is None and spec.measured_jobs is None
    config = ClusterConfig(
        lam=0.9, policy=KSplit(k=4, d=2), service=Exponential(rate=4.0),
        L=spec.L, warmup_jobs=spec.warmup_jobs,
    )
    assert config.L == 2000
    assert config.warmup_jobs == 20 * config.L


@pytest.mark.parametrize(
    "text,needle",
    [
        ("experiment = gain-sweep\nlambda.grid =\ncode.k = 2\n", "lambda grid empty"),
        ("experiment = gain-sweep\ncode.k = 2\n", "lambda grid empty"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.k = 2\nsim.L = 9\nsim.L = 9\n",
         "line 5: duplicate key 'sim.L'"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.kk = 2\n", "unknown key 'code.kk'"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.k = 2\njunk\n", "expected key=value"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.k = 2\nsim.L = ten\n",
         "expects int"),
        ("lambda.grid = 0.5\ncode.k = 2\n", "missing key 'experiment'"),
        ("experiment = warp-drive\nlambda.grid = 0.5\ncode.k = 2\n", "unknown experiment"),
        ("experiment = gain-sweep\nlambda.grid = 1.5\ncode.k = 2\n", "outside (0, 1)"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\n", "missing key 'code.k'"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.n = 4, 6\ncode.k = 2, 3, 4\n",
         "expected 3 to match"),
        ("experiment = batch-sampling\nlambda.grid = 0.5\ncode.n = 20\ncode.k = 10\n",
         "k < n < 2k"),
        ("experiment = tail-check\nlambda.grid = 0.5\ncode.k = 4\ncode.d = 2\n"
         "dist.family = weibull\n", "unsupported for tail-check"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.n = 7\ncode.k = 3\ncode.d = 2\n",
         "fanout n must equal d*k"),
        ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.n = 4\ncode.k = 0\n",
         "code.k must be positive"),
    ],
)
def test_config_errors(tmp_path, text, needle):
    with pytest.raises(harness.ConfigError) as err:
        harness.build_spec(harness.config_entries(write(tmp_path, text)))
    assert needle in str(err.value)


SMALL_SPEC = harness.SweepSpec(
    "gain-sweep", (0.3, 0.7), ((4, 2, 2),), "exponential",
    L=200, seed=3, warmup_jobs=300, measured_jobs=1_500,
)


def test_serial_and_parallel_runs_yield_identical_csv():
    serial = harness.render_csv(harness.run_sweep(SMALL_SPEC))
    again = harness.render_csv(harness.run_sweep(SMALL_SPEC))
    parallel = harness.render_csv(harness.run_sweep(SMALL_SPEC, workers=3))
    assert serial == again
    assert serial == parallel


# every sweep kind that simulates, at sizes where a serial run_sweep forms
# one lockstep group
LANE_SPECS = [
    harness.SweepSpec("gain-sweep", (0.3, 0.6, 0.9), ((4, 2, 2), (6, 3, 2), (9, 3, 3)),
                      "weibull", shape=1.5, L=200, seed=5, warmup_jobs=300, measured_jobs=1_500),
    harness.SweepSpec("bound-check", (0.5, 0.7, 0.9), ((4, 2, 2), (6, 3, 2)), "shifted-exponential",
                      shift=0.1, L=200, seed=6, warmup_jobs=300, measured_jobs=1_500),
    harness.SweepSpec("tail-check", (0.5, 0.7, 0.9), ((4, 2, 2), (6, 3, 2)), "exponential",
                      L=200, seed=7, warmup_jobs=300, measured_jobs=1_500),
    harness.SweepSpec("batch-sampling", (0.6, 0.7, 0.85), ((5, 4, 1), (7, 5, 1)), "exponential",
                      L=200, seed=8, warmup_jobs=300, measured_jobs=1_500),
]


def test_tail_rows_take_regime_and_bound_from_the_tail_bound():
    spec = LANE_SPECS[2]
    rows = harness.run_sweep(spec)
    assert len(rows) == len(spec.lam_grid) * len(spec.codes) * harness._TAIL_POINTS
    for row in rows:
        report = bounds.tail_latency_bound(row.k, row.lam, harness._TAIL_EPSILON, row.t)
        assert (row.theory, row.branch) == (report.value, report.branch)
        # the thresholds run from the anchor r/k to 6 r/k, through the Gauss and Exp regimes
        anchor = math.log2(math.log(harness._TAIL_EPSILON / row.k) / math.log(row.lam / row.k)) / row.k
        assert anchor <= row.t <= 6.0 * anchor
        assert row.branch == ("Gauss" if row.t <= 2.0 * anchor else "Exp")
    for (_, k, _), lam in itertools.product(spec.codes, spec.lam_grid):
        first = min(row.t for row in rows if (row.k, row.lam) == (k, lam))
        assert first == bounds.tail_latency_bound(k, lam, harness._TAIL_EPSILON, 0.0).auxiliary["anchor"]


@pytest.mark.parametrize("spec", LANE_SPECS, ids=lambda spec: spec.experiment)
def test_lockstep_sweep_csv_matches_scalar_and_parallel_runs(spec, monkeypatch):
    lanes = harness.render_csv(harness.run_sweep(spec))
    assert lanes == harness.render_csv(harness.run_sweep(spec, workers=3))
    held = []

    def spy(configs):
        held.append(sum(c.measured_jobs for c in configs))
        return simulator.run_many(configs)

    monkeypatch.setattr(harness, "run_many", spy)
    monkeypatch.setattr(harness, "_SHARE_JOBS", 3 * spec.measured_jobs)
    assert lanes == harness.render_csv(harness.run_sweep(spec))
    assert len(held) > 1 and max(held) <= harness._SHARE_JOBS
    monkeypatch.setattr(harness, "run_many", lambda configs: [simulator.run(c) for c in configs])
    assert lanes == harness.render_csv(harness.run_sweep(spec))


def test_rows_sorted_and_pass_flags_recomputable():
    mixed = harness.SweepSpec(
        "bound-check", (0.7, 0.5), ((8, 4, 2), (4, 2, 2)), "exponential",
        L=200, seed=1, warmup_jobs=500, measured_jobs=2_000,
    )
    rows = harness.run_sweep(mixed)
    keys = [row.sort_key() for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row.passed == (row.sim_mean <= row.theory + 3.0 * row.sim_se)


def test_gain_rows_carry_both_arm_means():
    rows = harness.run_sweep(SMALL_SPEC)
    for row in rows:
        assert row.aux_a is not None and row.aux_b is not None
        assert row.sim_mean == pytest.approx(row.aux_a - row.aux_b, abs=1e-12)
        assert row.passed == (
            row.sim_mean > 0 and row.sim_mean >= row.theory - 3.0 * row.sim_se
        )


def test_write_csv_layout(tmp_path):
    rows = harness.run_sweep(SMALL_SPEC)
    path = tmp_path / "out" / "rows.csv"
    harness.write_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(harness.CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = dict(zip(harness.CSV_COLUMNS, lines[1].split(",")))
    assert first["experiment"] == "gain-sweep"
    assert first["t"] == ""  # not a tail row
    assert first["passed"] in ("0", "1")
    # numeric cells parse back and match the row to 9 significant digits
    assert float(first["sim_mean"]) == pytest.approx(rows[0].sim_mean, rel=1e-8)


def test_presets_cover_the_advertised_grid():
    gain_names = ("fig3a", "fig3b", "fig4")
    expected_codes = ((4, 2, 2), (6, 3, 2), (8, 4, 2), (9, 3, 3))
    expected_grid = tuple(round(0.1 * i, 1) for i in range(1, 10))
    families = {
        "fig3a": ("exponential", 0.0, 1.0),
        "fig3b": ("shifted-exponential", 0.1, 1.0),
        "fig4": ("weibull", 0.0, 1.5),
    }
    for name in gain_names:
        spec = harness.build_spec(harness.preset_entries(name))
        assert spec.experiment == "gain-sweep"
        assert spec.codes == expected_codes
        assert spec.lam_grid == expected_grid
        family, shift, shape = families[name]
        assert (spec.family, spec.shift, spec.shape) == (family, shift, shape)
    fig5 = harness.build_spec(harness.preset_entries("fig5"))
    assert fig5.experiment == "batch-sampling"
    assert fig5.codes == ((14, 10, 1),)  # batch-sampling never reads code.d
    assert fig5.lam_grid == (0.8, 0.85, 0.9)
    assert fig5.L == 2000
    with pytest.raises(harness.ConfigError):
        harness.build_spec(harness.preset_entries("fig9"))


@pytest.mark.parametrize("name", sorted(harness.PRESETS))
def test_preset_is_the_config_file_of_its_entries(tmp_path, name):
    # a preset sets every key its kind reads but the seed and the output path
    unread = harness._UNREAD.get(harness.PRESETS[name]["experiment"], ())
    assert set(harness.PRESETS[name]) == set(harness._CONFIG_KEYS) - {"sim.seed", "out.path", *unread}
    text = "".join(f"{key} = {raw}\n" for key, _, raw in harness.preset_entries(name))
    entries = harness.config_entries(write(tmp_path, text))
    assert harness.build_spec(entries) == harness.build_spec(harness.preset_entries(name))


# ---------------------------------------------------------------------------
# CLI


def test_cli_bound_prints_branch_and_value(capsys):
    assert cli.main(["bound", "--k", "8", "--lambda", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "branch = Phi3" in out
    value = float(next(line.split("=")[1] for line in out.splitlines()
                       if line.startswith("value")))
    assert value == pytest.approx(0.761, abs=5e-4)


def test_cli_bound_tail_mode(capsys):
    assert cli.main(["bound", "--k", "4", "--lambda", "0.5",
                     "--epsilon", "0.01", "--t", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "0.437266" in out
    assert "branch = Exp" in out
    # the bound holds for exponential chunks only
    assert cli.main(["bound", "--k", "4", "--lambda", "0.5", "--epsilon", "0.01", "--t", "1",
                     "--dist", "weibull", "--shape", "0.5"]) == 2
    assert "config error: --dist" in capsys.readouterr().err


def test_cli_sweep_empty_lambda_grid_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "experiment = gain-sweep\nlambda.grid =\ncode.k = 2\n")
    assert cli.main(["sweep", "--config", cfg]) == 2
    assert "lambda grid empty" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sweep.config"
    cfg.write_bytes(b"experiment = bound-check\n\xff\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot read config: 'utf-8' codec can't decode")


def test_a_direct_spec_without_codes_is_rejected():
    with pytest.raises(harness.ConfigError, match="code grid empty"):
        harness.SweepSpec("bound-check", (0.5,), ())


def test_cli_sweep_unknown_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "experiment = gain-sweep\nlambda.grid = 0.5\nrcode.k = 2\n")
    assert cli.main(["sweep", "--config", cfg]) == 2
    assert "rcode.k" in capsys.readouterr().err


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code = cli.main([
        "sweep", "--experiment", "bound-check", "--k", "2", "--d", "2",
        "--lambda", "0.5", "--L", "200", "--warmup-jobs", "300",
        "--measured-jobs", "1000", "--out", out,
    ])
    assert code == 0
    assert os.path.exists(out)
    assert "1 rows" in capsys.readouterr().out


def test_residual_check_measures_its_jobs_after_warmup(tmp_path, monkeypatch):
    # sim.measured_jobs counts arrivals after sim.warmup_jobs, as in every other kind
    calls, arrivals = [], []
    real, real_epochs = harness.empirical_residual, simulator._epochs

    def recording(service, lam, **kwargs):
        calls.append((kwargs["warmup_jobs"], kwargs["measured_jobs"]))
        return real(service, lam, **kwargs)

    def counting(stream, total, chunk):
        arrivals.append(0)
        for j0, epochs in real_epochs(stream, total, chunk):
            arrivals[-1] += len(epochs)
            yield j0, epochs

    monkeypatch.setattr(harness, "empirical_residual", recording)
    monkeypatch.setattr(simulator, "_epochs", counting)
    base = ["sweep", "--experiment", "residual-check", "--lambda", "0.5"]
    short = base + ["--warmup-jobs", "5000", "--measured-jobs", "1000"]
    explicit = base + ["--warmup-jobs", "20000", "--measured-jobs", "180000"]
    assert cli.main(short + ["--out", str(tmp_path / "short.csv")]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "default.csv")]) == 0
    assert cli.main(explicit + ["--out", str(tmp_path / "explicit.csv")]) == 0
    # the sweep hands its budgets over unchanged, and empirical_residual owns the defaults
    assert calls == [(5000, 1000), (None, None), (20_000, 180_000)]
    assert arrivals == [6000, 200_000, 200_000]
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


def test_cli_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CODEDLAT_OUT", str(tmp_path))
    code = cli.main([
        "sweep", "--experiment", "residual-check", "--lambda", "0.5",
        "--measured-jobs", "20000",
    ])
    assert code == 0
    assert os.path.exists(tmp_path / "residual-check.csv")


def test_gain_sweep_rejects_degenerate_split():
    with pytest.raises(harness.ConfigError):
        harness.SweepSpec("gain-sweep", (0.4,), ((2, 1, 2),))


def test_cli_compare_exit_1_on_failed_row(tmp_path, capsys, monkeypatch):
    failed = harness.ComparisonRow(
        "bound-check", "exponential", 1.0, 0.0, 8, 4, 2.0, 0.9, None, 0,
        sim_mean=1.5, sim_se=0.01, theory=1.2, branch="Phi3", passed=False,
    )
    monkeypatch.setattr(harness, "run_sweep", lambda spec, workers=None: [failed])
    out = str(tmp_path / "fail.csv")
    cfg = write(tmp_path, "experiment = bound-check\nlambda.grid = 0.9\ncode.k = 4\n")
    assert cli.main(["compare", "--config", cfg, "--out", out]) == 1
    captured = capsys.readouterr().out
    assert "FAIL" in captured
    assert os.path.exists(out)  # failing rows still land in the CSV


def test_cli_compare_exit_0_when_all_rows_pass(tmp_path, capsys):
    passing = write(tmp_path, (
        "experiment = residual-check\nlambda.grid = 0.5\n"
        "sim.measured_jobs = 40000\n"
    ), name="ok.config")
    out = str(tmp_path / "ok.csv")
    assert cli.main(["compare", "--config", passing, "--out", out]) == 0


def test_sweep_computes_residual_max_once_per_split_count():
    spec = harness.SweepSpec(
        "gain-sweep", (0.3, 0.6), ((4, 2, 2), (6, 2, 3), (6, 3, 2)), "weibull", shape=1.5,
        L=200, seed=4, warmup_jobs=300, measured_jobs=600,
    )
    bounds.m_k_bound.cache_clear()
    cold = harness.render_csv(harness.run_sweep(spec))
    info = bounds.m_k_bound.cache_info()
    assert (info.misses, info.hits) == (2, 4)  # split counts 2 and 3, six points
    # a warm cache gives the same rows, byte for byte, and evaluates nothing new
    assert harness.render_csv(harness.run_sweep(spec)) == cold
    assert bounds.m_k_bound.cache_info().misses == 2


def test_bound_check_rows_unchanged_by_shared_residual_max():
    spec = harness.SweepSpec(
        "bound-check", (0.6, 0.8), ((4, 2, 2),), "shifted-exponential", shift=0.1,
        L=200, seed=2, warmup_jobs=300, measured_jobs=600,
    )
    bounds.m_k_bound.cache_clear()
    cold = harness.render_csv(harness.run_sweep(spec))
    assert bounds.m_k_bound.cache_info().misses == 1
    assert harness.render_csv(harness.run_sweep(spec)) == cold
    assert bounds.m_k_bound.cache_info().misses == 1


def test_cli_figures_exit_1_on_failed_row(tmp_path, capsys, monkeypatch):
    failed = harness.ComparisonRow(
        "batch-sampling", "exponential", 1.0, 0.0, 14, 10, 1.4, 0.9, None, 0,
        sim_mean=13.0, sim_se=0.01, theory=12.0, branch="BoundI-tight", passed=False,
    )
    monkeypatch.setattr(harness, "run_sweep", lambda spec, workers=None: [failed])
    assert cli.main(["figures", "--out", str(tmp_path)]) == 1
    assert "0 passed" in capsys.readouterr().out


def test_cli_preset_seed_zero_overrides_preset_seed(monkeypatch):
    # A preset is config entries, so --seed is one more entry: even 0 is
    # set, and a preset that set its own seed would make it a duplicate.
    seeded = {**harness.PRESETS["fig5"], "sim.seed": "5"}
    monkeypatch.setitem(harness.PRESETS, "fig5", seeded)
    assert sweep_spec(["--preset", "fig5"]).seed == 5
    with pytest.raises(harness.ConfigError,
                       match=r"--seed: duplicate key 'sim.seed' \(first set on preset fig5\)"):
        sweep_spec(["--preset", "fig5", "--seed", "0"])


@pytest.mark.parametrize("seed", [0, 7])
def test_cli_seed_joins_a_preset(seed):
    spec = sweep_spec(["--preset", "fig5", "--seed", str(seed)])
    assert spec == replace(harness.build_spec(harness.preset_entries("fig5")), seed=seed)


def test_cli_flag_repeating_a_preset_key_names_both_places(capsys):
    assert cli.main(["sweep", "--preset", "fig5", "--L", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error: --L: duplicate key 'sim.L' (first set on preset fig5)" in err


@pytest.mark.parametrize("source,argv,message", [
    ("experiment = gain-sweep\nlambda.grid = 1.5\ncode.k = 2\n", [],
     "line 2: lambda.grid value 1.5 outside (0, 1)"),
    (None, ["--experiment", "bound-check", "--lambda", "0.5", "--k", "4", "--d", "3", "--L", "5"],
     "--L, --k, --d: code (12,4,3): sim.L = 5 servers cannot host fanout 12"),
    ("experiment = bound-check\nlambda.grid = 0.5\ncode.k = 4\n", ["--d", "3", "--L", "5"],
     "--L, line 3, --d: code (12,4,3): sim.L = 5 servers cannot host fanout 12"),
    ("fig5", ["--L", "5"],
     "--L, preset fig5: code (14,10): sim.L = 5 servers cannot host fanout 14"),
    (None, ["--experiment", "gain-sweep", "--lambda", "0.5", "--n", "4, 6", "--k", "2, 3, 4"],
     "--n: key 'code.n' has 2 entries, expected 3 to match the other code lists"),
    (None, ["--experiment", "bound-check", "--lambda", "0.5", "--k", "2", "--seed", "-1"],
     "--seed: sim.seed must be nonnegative, got -1"),
    (None, ["--experiment", "bound-check", "--lambda", "0.9", "--k", "4", "--d", "3",
            "--dist", "exponential", "--shift", "0.3"],
     "--dist, --shift: dist.shift has no effect on family 'exponential'"),
    ("experiment = gain-sweep\nlambda.grid = 0.5\ncode.k = 2\ndist.family = shifted\n"
     "dist.shift = 0.1\n", ["--shape", "1.5"],
     "line 4, --shape: dist.shape has no effect on family 'shifted-exponential'"),
    (None, ["--experiment", "residual-check", "--lambda", "0.5", "--k", "3"],
     "--k: code.k has no effect on residual-check"),
    ("experiment = residual-check\nlambda.grid = 0.5\nsim.L = 100\n", [],
     "line 3: sim.L has no effect on residual-check"),
    (None, ["--experiment", "batch-sampling", "--lambda", "0.8", "--n", "14", "--k", "10",
            "--d", "7"],
     "--d: code.d has no effect on batch-sampling"),
    (None, ["--experiment", "bound-check", "--lambda", "0.5", "--k", "2", "--measured-jobs", "0"],
     "--measured-jobs: sim.measured_jobs must be positive, got 0"),
    (None, ["--experiment", "bound-check", "--lambda", "0.5", "--k", "2", "--warmup-jobs", "-1"],
     "--warmup-jobs: sim.warmup_jobs must be nonnegative, got -1"),
    (None, ["--experiment", "batch-sampling", "--n", "5", "--k", "4", "--lambda", "0.8"],
     "--lambda, --n, --k: code (5,4): batch bounds are singular at lambda = k/n"),
    (None, ["--experiment", "bound-check", "--lambda", "0.5", "--k", "2", "--d", "1"],
     "--k, --d: code (2,2,1): replication degree d must be >= 2"),
    (None, ["--experiment", "gain-sweep", "--lambda", "0.5", "--n", "5", "--k", "2"],
     "--n, --k: code.n = 5 is not d * code.k for an integer d >= 2; set code.d"),
    (None, ["--experiment", "gain-sweep", "--lambda", "0.5", "--n", "2", "--k", "2"],
     "--n, --k: code.n = 2 is not d * code.k for an integer d >= 2; set code.d"),
], ids=["line", "flags", "line-and-flags", "preset-and-flag", "code-list", "seed", "shift",
        "shape", "residual-code", "residual-L", "batch-d", "measured-jobs", "warmup-jobs",
        "batch-singular", "d-below-2", "n-not-a-multiple", "n-one-copy"])
def test_cli_range_errors_name_their_entries(tmp_path, monkeypatch, capsys, source, argv, message):
    if source in harness.PRESETS:  # a preset without sim.L, so that --L joins it
        entries = {key: raw for key, raw in harness.PRESETS[source].items() if key != "sim.L"}
        monkeypatch.setitem(harness.PRESETS, source, entries)
        argv = ["--preset", source, *argv]
    elif source is not None:
        argv = ["--config", write(tmp_path, source), *argv]
    assert cli.main(["sweep", *argv]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def test_cli_preset_and_config_are_exclusive(tmp_path, capsys):
    cfg = write(tmp_path, "experiment = residual-check\nlambda.grid = 0.5\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--preset", "fig5", "--config", cfg])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_figures_and_compare_write_the_same_preset_csv(tmp_path, monkeypatch):
    small = {**harness.PRESETS["fig5"], "lambda.grid": "0.85", "sim.L": "200",
             "sim.warmup_jobs": "2000", "sim.measured_jobs": "3000"}
    monkeypatch.setattr(harness, "PRESETS", {"fig5": small})
    figures, compare = tmp_path / "figures", tmp_path / "compare.csv"
    cli.main(["figures", "--seed", "4", "--out", str(figures)])
    cli.main(["compare", "--preset", "fig5", "--seed", "4", "--out", str(compare)])
    assert (figures / "fig5.csv").read_bytes() == compare.read_bytes()
    row = dict(zip(harness.CSV_COLUMNS, compare.read_text().splitlines()[1].split(",")))
    assert row["seed"] == str(harness._point_seed(4, 0))


def test_cli_sweep_prints_fail_lines_but_exits_0(tmp_path, capsys, monkeypatch):
    failed = harness.ComparisonRow(
        "bound-check", "exponential", 1.0, 0.0, 8, 4, 2.0, 0.9, None, 0,
        sim_mean=1.5, sim_se=0.01, theory=1.2, branch="Phi3", passed=False,
    )
    tail = replace(failed, experiment="tail-check", t=1.5)
    monkeypatch.setattr(harness, "run_sweep", lambda spec, workers=None: [failed, tail])
    cfg = write(tmp_path, "experiment = bound-check\nlambda.grid = 0.9\ncode.k = 4\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "fail.csv")]) == 0
    out = capsys.readouterr().out
    assert "FAIL bound-check exponential n=8 k=4 d=2 lam=0.9: " in out
    assert "FAIL tail-check exponential n=8 k=4 d=2 lam=0.9 t=1.5: " in out


def test_cli_dist_help_lists_only_accepted_families(capsys):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    families = re.search(r"service family \(([^)]*)\)", text).group(1).split(", ")
    assert "constant" not in families
    for family in families:
        dists.canonical_family(family)


def test_cli_experiment_help_lists_exactly_the_accepted_kinds(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"experiment: (.*?) --lambda", text).group(1)
    assert sorted(re.split(r", | or ", listed)) == sorted(harness._ROWS)


def test_cli_simulate_smoke(capsys):
    code = cli.main([
        "simulate", "--policy", "least", "--k", "2", "--d", "2",
        "--lambda", "0.3", "--L", "200", "--warmup-jobs", "300",
        "--measured-jobs", "2000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean =" in out and "jobs = 2000" in out


@pytest.mark.parametrize("argv", [["--policy", "batch", "--n", "5", "--k", "4"],
                                  ["--policy", "redundant", "--k", "2"]],
                         ids=["batch", "redundant"])
def test_cli_simulate_batch_and_redundant(capsys, argv):
    assert cli.main(["simulate", *argv, "--lambda", "0.5", "--L", "60", "--warmup-jobs", "100",
                     "--measured-jobs", "200"]) == 0
    assert "jobs = 200" in capsys.readouterr().out


def test_cli_config_out_path_places_the_csv_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CODEDLAT_OUT", str(tmp_path / "env"))
    cfg = write(tmp_path, "experiment = residual-check\nlambda.grid = 0.5\n"
                          "sim.measured_jobs = 2000\nout.path = rows.csv\n")
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert "-> rows.csv" in capsys.readouterr().out
    assert (tmp_path / "rows.csv").exists() and not (tmp_path / "env").exists()


def test_cli_invalid_arguments_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    sweeps = [
        ["--preset", "fig5", "--L", "5", "--measured-jobs", "10"],
        ["--experiment", "gain-sweep", "--n", "4", "--k", "0", "--lambda", "0.5"],
        ["--experiment", "gain-sweep", "--k", "2", "--lambda", "0.5",
         "--dist", "shifted-exponential", "--shift", "1.5"],
        ["--experiment", "bound-check", "--k", "two", "--lambda", "0.5"],
        ["--experiment", "bound-check", "--k", "4", "--d", "3", "--L", "5", "--lambda", "0.5"],
        ["--experiment", "tail-check", "--k", "2", "--lambda", "0.005"],
        ["--experiment", "residual-check", "--lambda", "0.5", "--measured-jobs", "2000",
         "--out", str(blocker / "out.csv")],
        ["--experiment", "residual-check", "--lambda", "0.5", "--measured-jobs", "2000",
         "--out", str(tmp_path / "out.csv"), "--jobs", "0"],
        ["--experiment", "bound-check", "--lambda", "0.5", "--k", "2", "--seed", "-1",
         "--L", "100", "--measured-jobs", "100", "--out", str(tmp_path / "out.csv")],
        ["--experiment", "bound-check", "--k", "4", "--lambda", "0.9", "--dist", "weibull",
         "--shape", "0"],
        ["--experiment", "residual-check", "--lambda", "0.5", "--k", "3"],
        ["--experiment", "residual-check", "--lambda", "0.5", "--n", "9"],
        ["--experiment", "residual-check", "--lambda", "0.5", "--d", "2"],
        ["--experiment", "residual-check", "--lambda", "0.5", "--L", "100"],
    ]
    simulates = [
        ["--policy", "naive", "--d", "1", "--lambda", "0.5"],
        ["--policy", "ksplit", "--k", "2", "--lambda", "0.5", "--L", "100",
         "--measured-jobs", "100", "--seed", "-3"],
        ["--policy", "ksplit", "--k", "4", "--lambda", "0.9", "--L", "100",
         "--dist", "weibull", "--shape", "0"],
    ]
    bound_argvs = [
        ["--k", "4", "--lambda", "0.9", "--dist", "weibull", "--shape", "0"],
        ["--k", "4", "--lambda", "0.9", "--dist", "weibull", "--shape", "-1"],
        ["--k", "0", "--lambda", "0.9"],
        ["--k", "-1", "--lambda", "0.9", "--epsilon", "0.01", "--t", "1"],
        ["--k", "4", "--lambda", "0.5", "--epsilon", "0.01", "--t", "nan"],
    ]
    for argv in simulates:
        assert cli.main(["simulate", *argv]) == 2, argv
    for argv in sweeps:
        assert cli.main(["sweep", *argv]) == 2, argv
    for argv in bound_argvs:
        assert cli.main(["bound", *argv]) == 2, argv
    assert capsys.readouterr().err.count("config error") == (
        len(simulates) + len(sweeps) + len(bound_argvs))


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--policy", "ksplit", "--k", "2", "--lambda", "0.9", "--L", "100",
      "--dist", "weibull", "--shape", "1.5", "--shift", "0.2"],
     "--shift: family 'weibull' does not read it"),
    (["simulate", "--policy", "naive", "--lambda", "0.9", "--L", "100",
      "--dist", "shifted-exponential", "--shift", "0.1", "--shape", "2"],
     "--shape: family 'shifted-exponential' does not read it"),
    (["bound", "--k", "4", "--lambda", "0.9", "--dist", "exponential", "--shape", "2"],
     "--shape: family 'exponential' does not read it"),
    (["bound", "--k", "4", "--lambda", "0.9", "--dist", "weibull", "--shape", "2.5", "--shift", "0.1"],
     "--shift: family 'weibull' does not read it"),
    (["simulate", "--policy", "naive", "--k", "4", "--n", "9", "--extra", "3", "--lambda", "0.5"],
     "--k: policy 'naive' does not read it"),
    (["simulate", "--policy", "naive", "--extra", "3", "--lambda", "0.5"],
     "--extra: policy 'naive' does not read it"),
    (["simulate", "--policy", "batch", "--n", "5", "--k", "4", "--d", "7", "--lambda", "0.5"],
     "--d: policy 'batch' does not read it"),
    (["simulate", "--policy", "ksplit", "--k", "2", "--n", "4", "--lambda", "0.5"],
     "--n: policy 'ksplit' does not read it"),
    (["simulate", "--policy", "least", "--k", "2", "--n", "5", "--d", "3", "--lambda", "0.5"],
     "--d: policy 'least' does not read it"),
    (["simulate", "--policy", "redundant", "--k", "2", "--d", "3", "--lambda", "0.5"],
     "--d: policy 'redundant' does not read it"),
    (["simulate", "--policy", "ksplit", "--lambda", "0.5"], "--policy ksplit requires --k"),
    (["bound", "--k", "4", "--lambda", "0.9", "--epsilon", "0.01"],
     "tail bound needs both --epsilon and --t"),
    (["bound", "--k", "2", "--lambda", "0.9", "--epsilon", "0.01", "--t", "1", "--loose"],
     "--loose: the tail bound does not read it"),
])
def test_cli_rejects_dist_flags_the_family_does_not_read(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


@pytest.mark.parametrize("argv,prefix", [
    (["simulate", "--policy", "ksplit", "--k", "2", "--lambda", "0.5"], ""),
    (["bound", "--k", "4", "--lambda", "0.9"], ""),
    (["sweep", "--experiment", "gain-sweep", "--k", "2", "--lambda", "0.5"],
     "--dist: dist.family: "),
], ids=["simulate", "bound", "sweep"])
def test_cli_rejects_an_unknown_family_naming_the_accepted_ones(capsys, argv, prefix):
    assert cli.main([*argv, "--dist", "pareto"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"config error: {prefix}unknown distribution family 'pareto' "
        "(expected one of exponential, shifted-exponential, weibull)")


@pytest.mark.parametrize("argv,prefix", [
    (["simulate", "--policy", "ksplit", "--k", "2", "--lambda", "0.5"], ""),
    (["bound", "--k", "2", "--lambda", "0.7"], ""),
    (["sweep", "--experiment", "bound-check", "--k", "2", "--lambda", "0.5"],
     "--dist, --shape, --k: dist: "),
], ids=["simulate", "bound", "sweep"])
def test_cli_weibull_shape_whose_gamma_overflows_exits_2(capsys, argv, prefix):
    # Gamma(1 + 1/0.005) overflows a float: the chunk scale is 0, not an OverflowError
    assert cli.main([*argv, "--dist", "weibull", "--shape", "0.005"]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {prefix}scale must be positive, got 0.0"


@pytest.mark.parametrize("family,shift,shape", [
    ("exponential", 0.0, 1.0), ("shifted-exponential", 0.3, 1.0), ("weibull", 0.0, 0.7),
])
def test_dist_keys_the_family_reads_are_accepted(family, shift, shape):
    spec = harness.SweepSpec("residual-check", (0.5,), ((1, 1, 1),), family, shape=shape,
                             shift=shift)
    assert (spec.shift, spec.shape) == (shift, shape)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_build(path):
    assert harness.build_spec(harness.config_entries(path)).experiment


def test_cli_error_inside_a_simulation_is_not_a_config_error(monkeypatch):
    def broken(config):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(ValueError, match="engine fault"):
        cli.main(["simulate", "--policy", "naive", "--lambda", "0.5", "--L", "100"])


def test_cli_simulate_invalid_lambda_exits_2(capsys):
    code = cli.main([
        "simulate", "--policy", "naive", "--lambda", "1.5", "--L", "100",
    ])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one spec path for config files and flags

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def sweep_spec(argv):
    return cli._spec_from_args(cli._build_parser().parse_args(["sweep", *argv]))


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_config_file_and_its_flags_build_the_same_spec(name):
    path = os.path.join(CONFIG_DIR, name)
    flag_of = {key: flag for flag, key, _ in cli._SPEC_FLAGS}
    argv = [arg for key, _, raw in harness.config_entries(path) for arg in (flag_of[key], raw)]
    assert sweep_spec(argv) == harness.build_spec(harness.config_entries(path))


def test_cli_flags_fill_keys_the_config_lacks(tmp_path):
    cfg = write(tmp_path, "experiment = bound-check\nlambda.grid = 0.5, 0.7\ncode.d = 3\n")
    spec = sweep_spec(["--config", cfg, "--seed", "5", "--L", "50", "--k", "8"])
    assert (spec.seed, spec.L, spec.codes) == (5, 50, ((24, 8, 3),))
    assert spec.lam_grid == (0.5, 0.7)


def test_cli_flag_repeating_a_config_key_names_both_places(tmp_path, capsys):
    cfg = write(tmp_path, "experiment = bound-check\nlambda.grid = 0.5\ncode.k = 4\nsim.L = 100\n")
    assert cli.main(["sweep", "--config", cfg, "--L", "50"]) == 2
    err = capsys.readouterr().err
    assert "config error: --L: duplicate key 'sim.L'" in err and "line 4" in err


def test_cli_bad_flag_value_names_the_flag(capsys):
    assert cli.main(["sweep", "--experiment", "bound-check", "--k", "two", "--lambda", "0.5"]) == 2
    assert "--k: key 'code.k' expects int, got 'two'" in capsys.readouterr().err


# a small valid spec of every experiment kind, and a valid value off each key's default or base
KIND_ENTRIES = {
    "gain-sweep": {"code.k": "2", "sim.L": "60"},
    "bound-check": {"code.k": "2", "sim.L": "60"},
    "tail-check": {"code.k": "2", "sim.L": "60"},
    "batch-sampling": {"code.n": "5", "code.k": "4", "sim.L": "60"},
    "residual-check": {},
}
OTHER_VALUES = {
    "lambda.grid": "0.7", "code.n": "6", "code.k": "3", "code.d": "3", "dist.family": "weibull",
    "dist.shape": "1.5", "dist.shift": "0.1", "sim.L": "80", "sim.seed": "1",
    "sim.warmup_jobs": "250", "sim.measured_jobs": "350",
}


@pytest.mark.parametrize("kind", sorted(KIND_ENTRIES))
def test_every_key_changes_the_rows_or_is_rejected(kind):
    # a row is recomputable from the keys that built it only if no key is silently ignored
    assert set(KIND_ENTRIES) == set(harness._ROWS)
    assert set(OTHER_VALUES) == set(harness._CONFIG_KEYS) - {"experiment", "out.path"}
    base = {"experiment": kind, "lambda.grid": "0.5", **KIND_ENTRIES[kind],
            "sim.warmup_jobs": "200", "sim.measured_jobs": "300"}

    def rows(entries):
        spec = harness.build_spec([(key, f"--{key}", raw) for key, raw in entries.items()])
        return harness.render_csv(harness.run_sweep(spec))

    want = rows(base)
    for key, raw in OTHER_VALUES.items():
        try:
            got = rows({**base, key: raw})
        except harness.ConfigError:
            continue
        assert got != want, key


# One small sweep per kind at seed 0, rendered byte for byte.  A change that moves a
# number updates this text next to the pass table that the roadmap's rules for numbers ask
# for in CHANGES.md; a change that moves none leaves it as it is.
PINNED_CSV = {
    "batch-sampling": """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
batch-sampling,exponential,1,0,5,4,1.25,0.5,,8668861027912758289,2.80891706,0.0895471093,4.13738632,BoundI-tight,1,4.83333333,5.5585888
""",
    "bound-check": """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
bound-check,exponential,1,0,4,2,2,0.5,,8668861027912758289,0.951039394,0.0392086865,1.25564718,Phi3,1,,
""",
    "gain-sweep": """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
gain-sweep,exponential,1,0,4,2,2,0.5,,8668861027912758289,0.364660091,0.0828367296,-0.939225672,Phi3,1,1.28100256,0.916342466
""",
    "residual-check": """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
residual-check,exponential,1,0,1,1,1,0.5,,8668861027912758289,1.19123173,0,1,,0,,
""",
    "tail-check": """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
tail-check,exponential,1,0,4,2,2,0.5,0.967150318,8668861027912758289,0.403333333,0.0283228739,1,Gauss,1,,
tail-check,exponential,1,0,4,2,2,0.5,1.45072548,8668861027912758289,0.206666667,0.0233777355,1,Gauss,1,,
tail-check,exponential,1,0,4,2,2,0.5,1.93430064,8668861027912758289,0.08,0.0156631202,0.77032969,Gauss,1,,
tail-check,exponential,1,0,4,2,2,0.5,2.41787579,8668861027912758289,0.04,0.0113137085,0.478800349,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,2.90145095,8668861027912758289,0.0166666667,0.00739118594,0.299050619,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,3.38502611,8668861027912758289,0.00666666667,0.00469830545,0.188221412,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,3.86860127,8668861027912758289,0.00333333333,0.00332777314,0.119886884,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,4.35217643,8668861027912758289,0,0,0.0777535154,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,4.83575159,8668861027912758289,0,0,0.0517751301,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,5.31932675,8668861027912758289,0,0,0.0357575047,Exp,1,,
tail-check,exponential,1,0,4,2,2,0.5,5.80290191,8668861027912758289,0,0,0.0258814358,Exp,1,,
""",
}


def test_one_small_sweep_per_kind_renders_its_pinned_csv():
    assert set(PINNED_CSV) == set(harness._ROWS)
    for kind, csv in PINNED_CSV.items():
        entries = {"experiment": kind, "lambda.grid": "0.5", **KIND_ENTRIES[kind],
                   "sim.seed": "0", "sim.warmup_jobs": "200", "sim.measured_jobs": "300"}
        spec = harness.build_spec([(key, f"--{key}", raw) for key, raw in entries.items()])
        assert harness.render_csv(harness.run_sweep(spec)) == csv, kind


# The same sweeps on the two non-exponential families, where the service law's own
# arithmetic (the Weibull gamma, the shifted chunk) reaches every column.
FAMILY_ENTRIES = {
    "weibull": {"dist.family": "weibull", "dist.shape": "1.5"},
    "shifted-exponential": {"dist.family": "shifted-exponential", "dist.shift": "0.1"},
}
PINNED_FAMILY_CSV = {
    ("gain-sweep", "weibull"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
gain-sweep,weibull,1.5,0,4,2,2,0.5,,8668861027912758289,0.437515548,0.0533336644,-3.07409642,Phi1,1,1.23303098,0.795515431
""",
    ("bound-check", "weibull"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
bound-check,weibull,1.5,0,4,2,2,0.5,,8668861027912758289,0.817118369,0.0250939615,3.39051793,Phi1,1,0.814560127,2.5759578
""",
    ("residual-check", "weibull"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
residual-check,weibull,1.5,0,1,1,1,0.5,,8668861027912758289,0.868579415,0,0.730499243,,0,,
""",
    ("gain-sweep", "shifted-exponential"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
gain-sweep,shifted-exponential,1,0.1,4,2,2,0.5,,8668861027912758289,0.41524629,0.0747126171,-1.5777216,Phi1,1,1.26772223,0.852475944
""",
    ("bound-check", "shifted-exponential"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
bound-check,shifted-exponential,1,0.1,4,2,2,0.5,,8668861027912758289,0.912465395,0.0365364953,1.8941431,Phi1,1,1.20781064,0.686332463
""",
    ("residual-check", "shifted-exponential"): """\
experiment,family,shape,shift,n,k,d,lam,t,seed,sim_mean,sim_se,theory,branch,passed,aux_a,aux_b
residual-check,shifted-exponential,1,0.1,1,1,1,0.5,,8668861027912758289,1.03581581,0,0.905,,0,,
""",
}


@pytest.mark.parametrize("kind,family", sorted(PINNED_FAMILY_CSV))
def test_one_small_non_exponential_sweep_renders_its_pinned_csv(kind, family):
    entries = {"experiment": kind, "lambda.grid": "0.5", **KIND_ENTRIES[kind],
               **FAMILY_ENTRIES[family], "sim.seed": "0", "sim.warmup_jobs": "200",
               "sim.measured_jobs": "300"}
    spec = harness.build_spec([(key, f"--{key}", raw) for key, raw in entries.items()])
    assert harness.render_csv(harness.run_sweep(spec)) == PINNED_FAMILY_CSV[kind, family]


@pytest.mark.parametrize("codes,L", [(((4, 2, 2),), None), (((1, 1, 1),), 500),
                                     (((1, 1, 1), (2, 1, 2)), None)])
def test_a_direct_residual_spec_rejects_a_code_or_server_count(codes, L):
    with pytest.raises(harness.ConfigError, match="residual-check reads no code"):
        harness.SweepSpec("residual-check", (0.5,), codes, L=L)


@pytest.mark.parametrize("d", [2, 7])
def test_a_direct_batch_spec_rejects_a_code_d(d):
    with pytest.raises(harness.ConfigError, match="code.d has no effect on batch-sampling") as err:
        harness.SweepSpec("batch-sampling", (0.5,), ((5, 4, d),), L=60)
    assert err.value.keys == ("code.d",)


def test_a_built_spec_passes_only_the_keys_that_were_set():
    built = harness.build_spec([("experiment", "--experiment", "bound-check"),
                                ("lambda.grid", "--lambda", "0.5"), ("code.k", "--k", "2")])
    assert built == harness.SweepSpec("bound-check", (0.5,), ((4, 2, 2),))
    assert set(harness._CONFIG_KEYS) == {"lambda.grid", *harness._CODE, *harness._SCALARS}
    spec_fields = {f.name for f in fields(harness.SweepSpec)}
    assert {field for field, _ in harness._SCALARS.values()} == spec_fields - {"lam_grid", "codes"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "ksplit", "--k", "4", "--lambda", "0.5", "--L", "100"],
    ["bound", "--k", "4", "--lambda", "0.5"],
    ["sweep", "--experiment", "bound-check", "--k", "4", "--lambda", "0.5"],
], ids=["simulate", "bound", "sweep"])
def test_cli_infinite_weibull_shape_exits_2(capsys, argv):
    assert cli.main([*argv, "--dist", "weibull", "--shape", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be finite" in err
