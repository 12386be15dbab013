import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAULT_FILES

from hsdual.io import FORMAT_VERSION, FormatError, fmt_number, format_matrix, parse_channel, parse_matrix
from hsdual.io import _check_entries, _pair_parts

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf,
           1e16, -1e16, 1e22, 1 / 3, -2.5e-7, 0.1, 123456789012345678.0]


def per_entry_rendering(a, digits):
    """The MatrixFile layout built entry by entry with fmt_number."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    rows = []
    for r in range(a.shape[0]):
        cells = ", ".join(
            f"[{fmt_number(a[r, c].real, digits)}, {fmt_number(a[r, c].imag, digits)}]"
            for c in range(a.shape[1])
        )
        rows.append(f"    [{cells}]")
    body = ",\n".join(rows)
    return (
        f'{{\n  "format": {FORMAT_VERSION},\n  "rows": {a.shape[0]},\n  "cols": {a.shape[1]},\n'
        f'  "data": [\n{body}\n  ]\n}}\n'
    )


def special_matrix(values=SPECIAL):
    re = np.array(values)
    out = np.empty((len(values), len(values)), dtype=complex)
    out.real = re[:, None]
    out.imag = re[None, :]
    return out


def wide_range_matrix(rng, rows, cols):
    """Real parts spread over 600 decades, imaginary parts of order one."""
    scale = 10.0 ** rng.integers(-300, 300, (rows, cols))
    return rng.standard_normal((rows, cols)) * scale + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("digits", [1, 5, 17])
def test_format_matrix_golden_against_per_entry(digits):
    rng = np.random.default_rng(digits)
    cases = [
        special_matrix(),
        special_matrix().T,  # non-contiguous input
        special_matrix()[:, 3],  # vector input renders as a column
        wide_range_matrix(rng, 7, 4),
        np.array([[-0.0 - 0.0j]]),
        np.zeros((2, 0)),
    ]
    for a in cases:
        assert format_matrix(a, digits) == per_entry_rendering(a, digits)


def test_format_matrix_negative_zero_and_layout():
    assert format_matrix(np.array([[-0.0 - 0.0j, 1.5]]), 17) == (
        '{\n  "format": 1,\n  "rows": 1,\n  "cols": 2,\n  "data": [\n    [[0, 0], [1.5, 0]]\n  ]\n}\n'
    )


def test_parse_matrix_round_trips_finite_specials_bit_exactly():
    a = special_matrix([x for x in SPECIAL if np.isfinite(x)])
    got = parse_matrix(format_matrix(a))
    # format_matrix writes -0.0 as 0, which reads back as +0.0.
    assert np.array_equal(got.view(np.uint64), (a + 0.0).view(np.uint64))


def test_integer_entries_read_as_python_float():
    big = (2**53 + 1, 10**300)
    got = parse_matrix('{"rows": 1, "cols": 2, "data": [[[%d, -0], [%d, 0]]]}' % big)
    want = np.array([[float(big[0]), float(big[1])]], dtype=complex)  # JSON -0 is the integer 0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Fuzzing: any text must give one array of finite complex numbers, shaped as its
# header says, or a FormatError.
FIELDS = ["format", "rows", "cols", "data", "dim", "kraus"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# JSON numbers, integers past the double range included.
numbers = (
    st.integers(-(2**70), 2**70)
    | st.integers(10**307, 10**310)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def matrix_objects(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 2))
    cols = cols or draw(st.integers(1, 2))
    pair = st.lists(numbers, min_size=2, max_size=2)
    data = draw(st.lists(st.lists(pair, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return {"format": FORMAT_VERSION, "rows": rows, "cols": cols, "data": data}


@st.composite
def channel_objects(draw):
    dim = draw(st.integers(1, 2))
    kraus = draw(st.lists(matrix_objects(dim, dim), min_size=1, max_size=2))
    return {"format": FORMAT_VERSION, "dim": dim, "kraus": kraus}


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
    out = []
    for k in keys:
        out.append((node, k))
        out += _slots(node[k])
    return out


@st.composite
def mutated_texts(draw, files):
    """A valid file with one value replaced or removed, or its text spliced."""
    obj = draw(files)
    how = draw(st.sampled_from(["replace", "remove", "splice"]))
    if how == "splice":
        text = json.dumps(obj)
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.text(max_size=3)) + text[cut + draw(st.integers(0, 3)):]
    container, key = draw(st.sampled_from(_slots(obj)))
    if how == "remove":
        del container[key]
    else:
        container[key] = draw(json_values)
    return json.dumps(obj)


@st.composite
def header_texts(draw, files):
    """A valid file with one header field set to an edge value."""
    obj = draw(files)
    headers = [(c, k) for c, k in _slots(obj) if k in ("format", "rows", "cols", "dim")]
    container, key = draw(st.sampled_from(headers))
    container[key] = draw(st.sampled_from([True, False, None, 0, -1, 1.0, 1, 2, "1"]))
    return json.dumps(obj)


def texts(files):
    nested = st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n)
    return st.one_of(
        json_values.map(json.dumps), files.map(json.dumps), mutated_texts(files), header_texts(files), nested
    )


def valid_header(obj, *sizes):
    """The header rule of the README, written out independently of io.py."""
    version_ok = "format" not in obj or (type(obj["format"]) is int and obj["format"] == 1)
    return version_ok and all(type(obj[n]) is int and obj[n] > 0 for n in sizes)


def check_parses_or_refuses(parse, text):
    try:
        out = parse(text)
    except FormatError:
        return
    obj = json.loads(text)
    if parse is parse_channel:
        assert valid_header(obj, "dim") and all(valid_header(k, "rows", "cols") for k in obj["kraus"])
        shape = (len(obj["kraus"]), obj["dim"], obj["dim"])  # one k x d x d stack
    else:
        assert valid_header(obj, "rows", "cols")
        shape = (obj["rows"], obj["cols"])
    assert isinstance(out, np.ndarray) and out.dtype == complex and out.shape == shape
    assert np.isfinite(out).all()


def with_fault_examples(test):
    for _, text in FAULT_FILES.values():
        test = example(text)(test)
    return test


FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@FUZZ
@given(texts(matrix_objects()))
@with_fault_examples
def test_parse_matrix_returns_an_array_or_raises_format_error(text):
    check_parses_or_refuses(parse_matrix, text)


@FUZZ
@given(texts(channel_objects()))
@with_fault_examples
def test_parse_channel_returns_arrays_or_raises_format_error(text):
    check_parses_or_refuses(parse_channel, text)


# The bulk check of the entries and the loop that words its errors must accept
# the same data: a file the bulk check refuses goes to the loop, which must
# raise.
entry_values = st.lists(numbers, min_size=2, max_size=2) | json_values
data_values = st.lists(st.lists(entry_values, min_size=1, max_size=3) | json_values, min_size=1, max_size=3)


@FUZZ
@given(st.integers(1, 3), data_values)
@example(1, [[[1.5, True]]])
@example(2, [[[1, 0], [0, None]]])
@example(1, [[[1, 0, 0]], [[1]]])
def test_bulk_entry_check_accepts_what_the_entry_loop_accepts(cols, data):
    try:
        _check_entries(data, cols)
        loop_accepts = True
    except FormatError:
        loop_accepts = False
    parts = _pair_parts(data, cols)
    assert (parts is not None) == loop_accepts
    if loop_accepts:
        assert parts == [x for row in data for entry in row for x in entry]
