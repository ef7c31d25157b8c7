import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codedlat
from codedlat import cli, harness
from codedlat import distributions as dists

MODULES = ["codedlat"] + [f"codedlat.{info.name}" for info in pkgutil.iter_modules(codedlat.__path__)]
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[-1].split()[-1] == "Phi3"


def test_readme_config_error_example(capsys, monkeypatch):
    example = r"```\n\$ (codedlat sweep --config configs/bound-check\.cfg --L 500)\n(.*?)\n```"
    command, expected = re.search(example, README.read_text()).groups()
    monkeypatch.chdir(ROOT)
    assert cli.main(command.split()[1:]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert expected == "config error: --L: duplicate key 'sim.L' (first set on line 11)"


def test_readme_cli_examples(capsys):
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    examples = [example for block in blocks for example in block.split("\n\n")
                if example.startswith(("$ codedlat bound ", "$ codedlat simulate "))]
    assert len(examples) == 3
    for example in examples:
        command, *expected = example.strip().splitlines()
        assert cli.main(command.split()[2:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        if "..." in expected:  # the example shows its output's first lines only
            cut = expected.index("...")
            expected, out = expected[:cut], out[:cut]
        assert out == expected, command


def test_readme_csv_schema_lists_the_columns():
    section = README.read_text().split("## CSV schema", 1)[1]
    assert re.search(r"```\n(.*?)\n```", section).group(1) == ",".join(harness.CSV_COLUMNS)


def test_readme_layout_lists_every_module():
    block = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    shipped = [path.name for path in (ROOT / "src" / "codedlat").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(shipped)


def _run_fresh(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_exponential_runs_and_bounds_do_not_import_scipy():
    # scipy is a test-only dependency; it makes up most of its importer's import time
    script = (
        "import sys\n"
        "import codedlat.cli\n"
        "from codedlat import bounds, simulator\n"
        "from codedlat.distributions import Exponential\n"
        "simulator.run(simulator.ClusterConfig(0.5, simulator.KSplit(k=2, d=2),"
        " Exponential(rate=2.0), L=50, warmup_jobs=100, measured_jobs=100))\n"
        "bounds.mean_latency_bound('exponential', 4, 0.5)\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _run_fresh(script) == "False"


def test_weibull_runs_and_bounds_do_not_import_scipy():
    # the Weibull gamma is math.gamma, not scipy.special.gamma
    script = (
        "import sys\n"
        "from codedlat import bounds, simulator\n"
        "from codedlat.distributions import chunk_dist\n"
        "simulator.run(simulator.ClusterConfig(0.5, simulator.KSplit(k=2, d=2),"
        " chunk_dist('weibull', 2, shape=1.5), L=50, warmup_jobs=100, measured_jobs=100))\n"
        "bounds.mean_latency_bound('weibull', 4, 0.5, shape=1.5)\n"
        "bounds.zero_load_latency('weibull', 4, shape=1.5)\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _run_fresh(script) == "False"


def test_mgfs_without_closed_form_do_not_import_scipy_integrate():
    # the Weibull MGF is a numpy sum on log-space nodes, not scipy quadrature, on the wide
    # strip (shape >= 1) and the narrow one (shape < 1); no other scipy module loads either
    script = (
        "import sys\n"
        "from codedlat import bounds\n"
        "from codedlat.distributions import chunk_dist, mgf\n"
        "bounds.m_k_bound(chunk_dist('weibull', 4, shape=1.5), 4)\n"
        "mgf(chunk_dist('weibull', 4, shape=0.7), -1.0)\n"
        "print('scipy.integrate' in sys.modules, 'scipy' in sys.modules)\n"
    )
    assert _run_fresh(script) == "False False"


def _unused_imports(path):
    """Names a module imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "codedlat").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_no_isinstance_on_service_laws():
    # each law carries its own methods, so Python dispatches on the type: distributions.py
    # names no isinstance, and no module passes a law's class to it
    laws = {law.__name__ for law in dists.ServiceDistribution.__args__}
    hits = []
    for path in sorted((ROOT / "src" / "codedlat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if path.name == "distributions.py" and getattr(node, "id", None) == "isinstance":
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}: isinstance")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                hits += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in
                         (getattr(t, "id", None) or getattr(t, "attr", None) for t in types)
                         if name in laws]
    assert hits == []


def test_simulator_names_no_service_family_helper():
    # the simulator runs the laws it is handed; choosing a law by family name is the harness's
    path = ROOT / "src" / "codedlat" / "simulator.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("chunk_dist", "canonical_family", "FAMILIES"):
            hits.append(f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}: {name}")
    assert hits == []


def test_every_private_module_name_is_read():
    # a module-level _name (def, class or constant) that no module of the package reads is
    # dead, and so is a non-dunder method or property of a module-level _Class
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "codedlat").glob("*.py"))]
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defined, methods = set(), {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                methods.update({f"{node.name}.{f.name}": f.name for f in node.body
                                if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")})
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read) + sorted(m for m, name in methods.items() if name not in read) == []


def test_package_never_imports_scipy():
    # ast.walk reaches imports inside functions, so a lazy import on an untested path fails too
    hits = []
    for path in sorted((ROOT / "src" / "codedlat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                     for name in names if name.partition(".")[0] == "scipy"]
    assert hits == []


def test_sources_parse_under_the_declared_python_floor():
    """Every source and test file parses under Python 3.10, pyproject.toml's requires-python floor.

    This checks grammar only (no 3.11 ``except*``, no 3.12 ``type`` statement), not
    standard-library APIs newer than 3.10.
    """
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
