import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import codedlat
from codedlat import cli

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
