"""The CLI's exact bytes over a fixed corpus of invocations.

Each case runs in-process and is held to the exit code and the SHA-256 of
stdout and of stderr recorded in cli_bytes.json.  The inputs come from a
seeded generator here, at d <= 8, and are written under relative names, so
no error line carries a temporary path.  A deliberate output change shows as
a digest edit; regenerate the file with

    PYTHONPATH=src python tests/test_cli_bytes.py

17-digit output can depend on the BLAS kernel, and argparse's messages on
the Python release, so the file records Python, numpy and BLAS, and a run
under another version of any of them fails rather than compares.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import write_channel, write_matrix

from hsdual.cli import main

CORPUS = Path(__file__).with_name("cli_bytes.json")

CASES = {
    "vec": ("vec", "a.json"),
    "vec-basis-h1": ("vec", "a.json", "--basis-h1", "u1.json"),
    "vec-basis-h2-a": ("vec", "a.json", "--basis-h1", "u1.json", "--basis-h2", "u2a.json"),
    "vec-basis-h2-b": ("vec", "a.json", "--basis-h1", "u1.json", "--basis-h2", "u2b.json"),
    "vec-digits-5": ("vec", "a.json", "--digits", "5"),
    "devec": ("devec", "v.json", "--d1", "4", "--d2", "3"),
    "devec-basis-h1": ("devec", "v.json", "--d1", "4", "--d2", "3", "--basis-h1", "u1.json"),
    "devec-basis-h2": ("devec", "v.json", "--d1", "4", "--d2", "3", "--basis-h1", "u1.json", "--basis-h2", "u2a.json"),
    "choi": ("choi", "tp1.json"),
    "choi-normalize": ("choi", "tp1.json", "--normalize"),
    "choi-digits-5": ("choi", "tp1.json", "--digits", "5"),
    "check": ("check", "tp1.json"),
    "check-cp": ("check", "--cp", "tp1.json"),
    "check-tp": ("check", "--tp", "tp1.json"),
    "check-cp-tp-non-tp": ("check", "--cp", "--tp", "raw.json"),
    "check-tp-non-tp": ("check", "--tp", "raw.json"),
    "check-cp-full-rank": ("check", "--cp", "raw10.json"),
    "compose-verify": ("compose", "tp1.json", "tp2.json", "tp3.json", "--verify"),
    "schmidt": ("schmidt", "v.json", "--d1", "4", "--d2", "3"),
    "schmidt-rank-2": ("schmidt", "s2.json", "--d1", "4", "--d2", "3"),
    "selftest-entangle": ("selftest", "--suite", "entangle", "--seed", "0"),
    "bench-dim-0": ("bench", "--dim", "0", "--trials", "1"),
    "bench-dim-33": ("bench", "--dim", "33", "--trials", "1"),
    "bench-dim-65": ("bench", "--dim", "65", "--trials", "1"),
    "error-malformed-file": ("vec", "bad.json"),
    "error-missing-file": ("vec", "missing.json"),
    "error-negative-digits": ("check", "tp1.json", "--digits", "-1"),
    "error-unknown-suite": ("selftest", "--suite", "nonsense"),
    "error-schmidt-digits": ("schmidt", "v.json", "--d1", "4", "--d2", "3", "--digits", "5"),
    "error-vec-d65": ("vec", "row65.json"),
    "error-devec-length": ("devec", "v.json", "--d1", "4", "--d2", "4"),
    "error-compose-dims": ("compose", "tp1.json", "id2.json"),
    "overflow-check-cp-eye4": ("check", "--cp", "eye4.json"),
    "overflow-check-cp-eye3": ("check", "--cp", "eye3.json"),
}


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, d):
    return np.linalg.qr(gaussian(rng, d, d))[0]


def tp_channel(rng, d, k):
    """Blocks M_i with sum_i M_i M_i* = I: the adjoints of the d x d blocks
    of a (k d) x d isometry."""
    w = np.linalg.qr(gaussian(rng, k * d, d))[0]
    return w.reshape(k, d, d).conj().transpose(0, 2, 1)


def write_inputs(directory: Path) -> None:
    rng = np.random.default_rng(26)
    write_matrix(directory / "a.json", gaussian(rng, 3, 4))
    write_matrix(directory / "u1.json", unitary(rng, 4))
    write_matrix(directory / "u2a.json", unitary(rng, 3))
    write_matrix(directory / "u2b.json", unitary(rng, 3))
    write_matrix(directory / "v.json", gaussian(rng, 12))
    x, y = unitary(rng, 4), unitary(rng, 3)
    write_matrix(directory / "s2.json", 0.8 * np.kron(x[:, 0], y[:, 0]) + 0.6 * np.kron(x[:, 1], y[:, 1]))
    for name, k in (("tp1", 2), ("tp2", 3), ("tp3", 1)):
        write_channel(directory / f"{name}.json", tp_channel(rng, 3, k))
    write_channel(directory / "raw.json", gaussian(rng, 2, 3, 3))
    write_channel(directory / "raw10.json", gaussian(rng, 10, 3, 3))
    write_channel(directory / "id2.json", [np.eye(2)])
    write_channel(directory / "eye4.json", 1e160 * np.stack([np.eye(2)] * 4))
    write_channel(directory / "eye3.json", 1e160 * np.stack([np.eye(2)] * 3))
    write_matrix(directory / "row65.json", gaussian(rng, 1, 65))
    (directory / "bad.json").write_text('{"format": 1, "rows": 2')


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def record(code: int, out: str, err: str) -> dict:
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def corpus():
    recorded = json.loads(CORPUS.read_text())
    running = environment()
    if {k: recorded[k] for k in running} != running:
        pytest.fail(
            f"{CORPUS.name} was recorded under Python {recorded['python']}, numpy {recorded['numpy']} "
            f"and {recorded['blas']}; this run has Python {running['python']}, numpy {running['numpy']} "
            f"and {running['blas']}"
        )
    return recorded["cases"]


def test_corpus_names_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


def test_vec_output_does_not_depend_on_the_h2_basis(corpus):
    assert corpus["vec-basis-h2-a"] == corpus["vec-basis-h2-b"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(cli, corpus, tmp_path, monkeypatch, name):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert record(*cli(*CASES[name])) == corpus[name]


def run(argv) -> tuple[int, str, str]:
    """The cli fixture's run, outside pytest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        cases = {name: record(*run(argv)) for name, argv in sorted(CASES.items())}
        os.chdir(home)
    CORPUS.write_text(json.dumps({**environment(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}", file=sys.stderr)
