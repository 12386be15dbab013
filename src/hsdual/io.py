"""Matrix and channel file formats used by the CLI.

Matrices are stored as JSON with explicit dimensions and complex entries as
[re, im] pairs; channels as a dimension plus a list of square Kraus blocks,
read into one k x d x d array.
Output is rendered with a fixed layout and a configurable number of
significant digits (default 17, round-trippable doubles) so golden files are
byte-stable.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed matrix/channel file."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:  # its str() names the file again
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def _decode(text: str):
    # ValueError covers JSONDecodeError and integers past Python's digit limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"invalid JSON: {e}") from None


def _header(obj, kind: str, *sizes: str) -> list[int]:
    """Check the fields both file kinds share; return the named sizes."""
    if not isinstance(obj, dict):
        raise FormatError(f"{kind} must be a JSON object")
    version = obj.get("format", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version!r}")
    out = []
    for name in sizes:
        v = obj.get(name)
        if type(v) is not int or v < 1:  # type(), not isinstance: true is no size
            raise FormatError(f"{kind} field {name!r} must be a positive integer")
        out.append(v)
    return out


def _pair_parts(data: list, cols: int) -> list | None:
    """The flat [re, im, re, im, ...] list if every row is a list of cols
    [re, im] pairs of numbers, else None: the entry rule, checked a level at a
    time in bulk, which _matrix asks again of one row or entry to word an error.
    Types are checked, not only what np.array takes as a float: it would read
    true as 1.0, null as nan and "1" as 1.0.
    """
    if {*map(type, data)} != {list} or {*map(len, data)} != {cols}:
        return None
    entries = [*chain.from_iterable(data)]
    if {*map(type, entries)} != {list} or {*map(len, entries)} != {2}:
        return None
    parts = [*chain.from_iterable(entries)]
    return parts if {*map(type, parts)} <= {int, float} else None


def _matrix(obj) -> np.ndarray:
    rows, cols = _header(obj, "matrix", "rows", "cols")
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows:
        raise FormatError("data must be a list with one entry per row")
    flat = _pair_parts(data, cols)
    if flat is None:  # some row is refused: its shape, or else one of its entries
        r = next(r for r, row in enumerate(data) if _pair_parts([row], cols) is None)
        if type(data[r]) is not list or len(data[r]) != cols:
            raise FormatError(f"row {r} must be a list of {cols} entries")
        c = next(c for c, entry in enumerate(data[r]) if _pair_parts([[entry]], 1) is None)
        raise FormatError(f"entry ({r},{c}) must be a [re, im] pair of numbers")
    try:
        parts = np.array(flat, dtype=float).reshape(rows, cols, 2)
    except OverflowError:
        raise FormatError("an integer entry is too large for a double") from None
    finite = np.isfinite(parts)
    if not finite.all():
        r, c, _ = np.argwhere(~finite)[0]
        raise FormatError(f"entry ({r},{c}) is not finite")
    return parts.view(complex).reshape(rows, cols)


def parse_matrix(text: str) -> np.ndarray:
    return _matrix(_decode(text))


def load_matrix(path: str) -> np.ndarray:
    return parse_matrix(_read(path))


def parse_channel(text: str) -> np.ndarray:
    """The Kraus blocks of a ChannelFile as one complex k x d x d array."""
    obj = _decode(text)
    (dim,) = _header(obj, "channel", "dim")
    kraus = obj.get("kraus")
    if not isinstance(kraus, list) or not kraus:
        raise FormatError("kraus must be a nonempty list of matrices")
    ms = [_matrix(k) for k in kraus]
    for i, m in enumerate(ms):
        if m.shape != (dim, dim):
            raise FormatError(f"kraus block {i} has shape {m.shape}, expected ({dim}, {dim})")
    return np.stack(ms)


def load_channel(path: str) -> np.ndarray:
    return parse_channel(_read(path))


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
