import json

import numpy as np
import pytest

from hsdual.cli import main


def write_matrix(path, a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    obj = {
        "format": 1,
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[[z.real, z.imag] for z in row] for row in a],
    }
    path.write_text(json.dumps(obj))
    return str(path)


def write_channel(path, mats):
    mats = [np.asarray(m, dtype=complex) for m in mats]
    d = mats[0].shape[0]
    obj = {
        "format": 1,
        "dim": d,
        "kraus": [
            {"rows": d, "cols": d, "data": [[[z.real, z.imag] for z in row] for row in m]}
            for m in mats
        ],
    }
    path.write_text(json.dumps(obj))
    return str(path)


# Malformed files, name -> (file kind, text), each to be refused with a
# FormatError: a bool where a size or the version goes, an integer entry past
# the double range and JSON nested past the interpreter's recursion limit.
FAULT_FILES = {
    "rows-true": ("matrix", '{"format": 1, "rows": true, "cols": 1, "data": [[[1, 0]]]}'),
    "entry-401-digits": ("matrix", '{"format": 1, "rows": 1, "cols": 1, "data": [[[' + "9" * 401 + ", 0]]]}"),
    "nested-100000": ("matrix", "[" * 100_000 + "]" * 100_000),
    "dim-true": (
        "channel",
        '{"format": 1, "dim": true, "kraus": [{"rows": 1, "cols": 1, "data": [[[1, 0]]]}]}',
    ),
    "format-true": ("matrix", '{"format": true, "rows": 1, "cols": 1, "data": [[[1, 0]]]}'),
}


@pytest.fixture
def cli(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        out, err = capsys.readouterr()
        return code, out, err

    return run
