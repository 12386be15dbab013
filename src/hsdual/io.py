"""Matrix and channel file formats used by the CLI.

Matrices are stored as JSON with explicit dimensions and complex entries as
[re, im] pairs; channels as a dimension plus a list of square Kraus blocks.
Output is rendered with a fixed layout and a configurable number of
significant digits (default 17, round-trippable doubles) so golden files are
byte-stable.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed matrix/channel file."""


def _validate_matrix_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix object must be a JSON object")
    try:
        rows = obj["rows"]
        cols = obj["cols"]
        data = obj["data"]
    except KeyError as e:
        raise FormatError(f"matrix object missing field {e}") from None
    if obj.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {obj.get('format')!r}")
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise FormatError("rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise FormatError("data must be a list with one entry per row")
    out = np.zeros((rows, cols), dtype=complex)
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"row {r} must be a list of {cols} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise FormatError(f"entry ({r},{c}) must be a [re, im] pair of numbers")
            re, im = float(entry[0]), float(entry[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise FormatError(f"entry ({r},{c}) is not finite")
            out[r, c] = complex(re, im)
    return out


def parse_matrix(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from None
    return _validate_matrix_obj(obj)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    return parse_matrix(text)


def parse_channel(text: str) -> list[np.ndarray]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise FormatError("channel file must be a JSON object")
    if obj.get("format", FORMAT_VERSION) != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {obj.get('format')!r}")
    dim = obj.get("dim")
    kraus = obj.get("kraus")
    if not (isinstance(dim, int) and dim > 0):
        raise FormatError("dim must be a positive integer")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("kraus must be a nonempty list of matrices")
    ms = [_validate_matrix_obj(k) for k in kraus]
    for i, m in enumerate(ms):
        if m.shape != (dim, dim):
            raise FormatError(f"kraus block {i} has shape {m.shape}, expected ({dim}, {dim})")
    return ms


def load_channel(path: str) -> list[np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    return parse_channel(text)


def fmt_number(x: float, digits: int = 17) -> str:
    x = float(x)
    if x == 0.0:  # normalize -0.0 for byte-stable output
        x = 0.0
    return f"{x:.{digits}g}"


def format_matrix(a, digits: int = 17) -> str:
    """Render a matrix (or column vector) in the MatrixFile layout.

    Byte-identical to rendering every entry with fmt_number: one %-template
    per row formats the interleaved (re, im) doubles, and adding 0.0 turns
    -0.0 into 0.0.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    rows, cols = a.shape
    parts = (np.ascontiguousarray(a).view(np.float64) + 0.0).tolist()  # [re, im, re, im, ...]
    num = f"%.{digits}g"
    row_fmt = "    [" + ", ".join([f"[{num}, {num}]"] * cols) + "]"
    body = ",\n".join(row_fmt % tuple(row) for row in parts)
    return (
        "{\n"
        f'  "format": {FORMAT_VERSION},\n'
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        '  "data": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )
