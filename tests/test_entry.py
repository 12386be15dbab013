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
import hsdual.__main__
import hsdual.cli
from hsdual.superop import random_tp_kraus

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(hsdual.__file__).resolve().parents[1]


def python_process(*args, stdout=subprocess.PIPE):
    """Run ``python args`` on these sources; (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def hsdual_process(*argv, flags=()):
    """Run ``python [flags] -m hsdual argv`` on these sources; (exit code, stdout, stderr)."""
    return python_process(*flags, "-m", "hsdual", *argv)


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
    "d33": (3, ("choi", "{d33}")),
    "help": (0, ("--help",)),
    "vec-help": (0, ("vec", "--help")),
    "usage": (2, ("vec",)),
}


@pytest.mark.parametrize("name", sorted(PROCESS_CASES))
def test_process_entry_matches_in_process_main(cli, files, name):
    code, argv = PROCESS_CASES[name]
    argv = [arg.format(**files) for arg in argv]
    expected = cli(*argv)
    assert expected[0] == code
    assert hsdual_process(*argv) == expected


@pytest.mark.parametrize(
    "argv", [("vec", "{m}"), ("check", "{ch}"), ("compose", "{ch}", "{ch2}", "--verify")]
)
def test_command_loads_neither_bench_nor_selftest(files, argv):
    code, _, err = hsdual_process(*(arg.format(**files) for arg in argv), flags=("-X", "importtime"))
    assert code == 0
    imported = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert "hsdual.cli" in imported
    assert imported & {"hsdual.bench", "hsdual.selftest", "hsdual.paper", "dataclasses", "numpy.random"} == set()


def test_main_leaves_the_collector_unfrozen(cli, files):
    before = gc.get_freeze_count()
    assert cli("vec", files["m"])[0] == 0
    assert gc.get_freeze_count() == before


def test_console_main_freezes_then_runs_main(monkeypatch, capsys, cli, files):
    calls = []
    for name in ("disable", "freeze", "enable"):
        monkeypatch.setattr(gc, name, lambda name=name: calls.append(name))
    main = hsdual.cli.main
    monkeypatch.setattr(hsdual.cli, "main", lambda: calls.append("main") or main())
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    monkeypatch.setattr(sys, "argv", ["hsdual", "vec", files["m"]])
    hsdual.__main__.console_main()
    assert calls == ["disable", "freeze", "enable", "main", ("_exit", 0)]
    assert (0, *capsys.readouterr()) == cli("vec", files["m"])


def test_import_loads_no_submodule_until_a_name_is_used():
    # A fresh process, so that no name has been read before.  The process
    # entry must load neither numpy nor hsdual.cli before it turns the
    # collector off, and the package must load no submodule at all.
    script = """
import importlib, sys
import hsdual.__main__
print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'hsdual')))
for name in hsdual.__all__:
    assert name not in vars(hsdual), name
    obj = getattr(hsdual, name)
    assert obj.__module__.startswith('hsdual.'), name
    assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert vars(hsdual)[name] is obj, name
print('ok')
"""
    code, out, err = python_process("-c", script)
    assert (code, out, err) == (0, "['hsdual', 'hsdual.__main__']\nok\n", "")


def test_package_lists_its_names_and_loads_submodules_on_first_use():
    script = """
import sys
import hsdual
assert set(hsdual.__all__) <= set(dir(hsdual))
for module in ('linalg', 'vectorize', 'superop', 'entangle', 'paper', 'bench'):
    assert getattr(hsdual, module) is sys.modules['hsdual.' + module], module
print(hsdual.superop.random_tp_kraus.__module__)
"""
    assert python_process("-c", script) == (0, "hsdual.superop\n", "")


def test_package_exports_resolve_with_bench_loaded_on_demand():
    names = {}
    exec("from hsdual import *", names)
    assert [name for name in hsdual.__all__ if name not in names] == []
    bench = importlib.import_module("hsdual.bench")
    assert hsdual.run_bench is bench.run_bench
    with pytest.raises(AttributeError, match="no_such_name"):
        hsdual.no_such_name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_output_write_error_is_one_line_exit_2(files, monkeypatch, unbuffered):
    # Unbuffered, the write in the command fails; buffered, the final flush does.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    for argv in (("vec", files["m"]), ("check", files["ch"])):
        with open("/dev/full", "w") as full:
            code, _, err = python_process("-m", "hsdual", *argv, stdout=full)
        assert code == 2
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_help_write_error_is_one_line_exit_2(monkeypatch, unbuffered):
    # Unbuffered, argparse would drop the write error and exit 0; buffered,
    # the error would surface in interpreter teardown with exit 120.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    for argv in (("--help",), ("vec", "--help")):
        with open("/dev/full", "w") as full:
            code, _, err = python_process("-m", "hsdual", *argv, stdout=full)
        assert code == 2
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_help_text_is_the_parsers(cli):
    assert cli("--help") == (0, hsdual.cli.build_parser().format_help(), "")


def test_console_script_names_the_function_main_module_calls():
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["hsdual"]
    assert script == "hsdual.__main__:console_main"
    tree = ast.parse((SRC / "hsdual" / "__main__.py").read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert ast.unparse(guard.body) == "console_main()"
    module, function = script.split(":")
    assert callable(getattr(importlib.import_module(module), function))
    # The only process entry: hsdual.cli runs nothing as a script.
    cli_tree = ast.parse((SRC / "hsdual" / "cli.py").read_text())
    assert not any(isinstance(node, ast.If) for node in cli_tree.body)
