import numpy as np
import pytest

from hsdual.io import FORMAT_VERSION, fmt_number, format_matrix

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


def special_matrix():
    re = np.array(SPECIAL)
    out = np.empty((len(SPECIAL), len(SPECIAL)), dtype=complex)
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
