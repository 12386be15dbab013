"""The process entry: ``python -m hsdual`` and the ``hsdual`` console script."""

import ast
import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_channel, write_matrix

import hsdual
import hsdual.cli
from hsdual.superop import random_tp_kraus

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(hsdual.__file__).resolve().parents[1]


def hsdual_process(*argv, flags=()):
    """Run ``python [flags] -m hsdual argv`` on these sources; (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hsdual", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(3)
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "rows": 2, "cols": 2, "data": [[[1, 0]]]}')
    return {
        "m": write_matrix(tmp_path / "m.json", rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
        "v": write_matrix(tmp_path / "v.json", rng.standard_normal(6)),
        "ch": write_channel(tmp_path / "ch.json", random_tp_kraus(3, 2, rng)),
        "ch2": write_channel(tmp_path / "ch2.json", random_tp_kraus(3, 3, rng)),
        "bad": str(bad),
        "d33": write_channel(tmp_path / "d33.json", [np.eye(33)]),
    }


# name -> (expected exit code, argv)
PROCESS_CASES = {
    "vec": (0, ("vec", "{m}")),
    "check": (0, ("check", "{ch}", "--cp", "--tp")),
    "compose-verify": (0, ("compose", "{ch}", "{ch2}", "--verify")),
    "schmidt": (0, ("schmidt", "{v}", "--d1", "2", "--d2", "3")),
    "malformed": (2, ("vec", "{bad}")),
    "d33": (3, ("check", "{d33}", "--cp")),
}


@pytest.mark.parametrize("name", sorted(PROCESS_CASES))
def test_process_entry_matches_in_process_main(cli, files, name):
    code, argv = PROCESS_CASES[name]
    argv = [arg.format(**files) for arg in argv]
    expected = cli(*argv)
    assert expected[0] == code
    assert hsdual_process(*argv) == expected


@pytest.mark.parametrize("argv", [("vec", "{m}"), ("check", "{ch}")])
def test_command_loads_neither_bench_nor_selftest(files, argv):
    code, _, err = hsdual_process(*(arg.format(**files) for arg in argv), flags=("-X", "importtime"))
    assert code == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert "hsdual.cli" in imported
    assert imported & {"hsdual.bench", "hsdual.selftest"} == set()


def test_main_leaves_the_collector_unfrozen(cli, files):
    before = gc.get_freeze_count()
    assert cli("vec", files["m"])[0] == 0
    assert gc.get_freeze_count() == before


def test_console_main_freezes_then_runs_main(monkeypatch, capsys, cli, files):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["hsdual", "vec", files["m"]])
    code = hsdual.cli.console_main()
    assert calls == ["freeze"]
    assert (code, *capsys.readouterr()) == cli("vec", files["m"])


def test_package_exports_resolve_with_bench_loaded_on_demand():
    names = {}
    exec("from hsdual import *", names)
    assert [name for name in hsdual.__all__ if name not in names] == []
    bench = importlib.import_module("hsdual.bench")
    assert hsdual.run_bench is bench.run_bench
    assert hsdual.BenchConfig is bench.BenchConfig
    assert hsdual.BenchReport is bench.BenchReport
    with pytest.raises(AttributeError, match="no_such_name"):
        hsdual.no_such_name


def test_console_script_names_the_function_main_module_calls():
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["hsdual"]
    tree = ast.parse((SRC / "hsdual" / "__main__.py").read_text())
    imported = {
        alias.asname or alias.name: f"hsdual.{node.module}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    called = [
        imported[node.func.id]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported
    ]
    assert called == [script]
    module, function = script.split(":")
    assert callable(getattr(importlib.import_module(module), function))
