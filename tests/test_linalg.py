import numpy as np
import pytest

from hsdual.linalg import (
    MAX_KRON_ENTRIES,
    TOL,
    DimensionMismatchError,
    Verdict,
    adjoint,
    complex_gaussian,
    hs_inner,
    inner,
    guard_entries,
    is_hermitian,
    kron,
    min_eigenvalue,
    nearest_unitary,
    operator_norm,
    psd_check,
    random_unitary,
    unitary_defect,
)
from hsdual import selftest as catalogue
from hsdual.superop import tp_verdict

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_matches_index_formula():
    # Oracle: entry ((i1*br+i2),(j1*bc+j2)) = a[i1,j1]*b[i2,j2], by explicit loops.
    rng = np.random.default_rng(5)
    a = complex_gaussian(2, 3, rng)
    b = complex_gaussian(3, 2, rng)
    got = kron(a, b)
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(2):
                    assert abs(got[i1 * 3 + i2, j1 * 2 + j2] - a[i1, j1] * b[i2, j2]) < 1e-15


def test_kron_swaps_blocks_for_x():
    got = kron(X, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    assert np.array_equal(got, expected)


def test_kron_factorizes_on_product_vectors():
    rng = np.random.default_rng(7)
    a = complex_gaussian(3, 3, rng)
    b = complex_gaussian(3, 3, rng)
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    lhs = kron(a, b) @ np.kron(phi, psi)
    rhs = np.kron(a @ phi, b @ psi)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(11)
    # Exact for exactly-representable products (index arithmetic only).
    ints = [
        (rng.integers(-5, 6, (2, 2)) + 1j * rng.integers(-5, 6, (2, 2))).astype(complex)
        for _ in range(3)
    ]
    assert np.array_equal(kron(kron(ints[0], ints[1]), ints[2]), kron(ints[0], kron(ints[1], ints[2])))
    a, b, c = (complex_gaussian(2, 2, rng) for _ in range(3))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-14


def test_kron_mixed_product():
    rng = np.random.default_rng(13)
    a, b, c, d = (complex_gaussian(3, 3, rng) for _ in range(4))
    assert np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)).max() < 1e-12


def test_kron_overflow_guard():
    with pytest.raises(DimensionMismatchError):
        kron(np.eye(1025), np.eye(1025))


def test_adjoint_involution_and_values():
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))
    assert adjoint(np.array([[1j]]))[0, 0] == -1j
    rng = np.random.default_rng(3)
    a = complex_gaussian(4, 3, rng)
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_adjoint_defining_identity():
    rng = np.random.default_rng(17)
    a = complex_gaussian(4, 4, rng)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    psi = complex_gaussian(4, 1, rng)[:, 0]
    assert abs(inner(a @ phi, psi) - inner(phi, adjoint(a) @ psi)) < 1e-12


def test_hs_inner_values():
    assert hs_inner(np.eye(2), np.eye(2)) == 2
    e11 = np.zeros((2, 2)); e11[0, 0] = 1
    e22 = np.zeros((2, 2)); e22[1, 1] = 1
    assert hs_inner(e11, e22) == 0


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(19)
    a = complex_gaussian(4, 3, rng)
    b = complex_gaussian(4, 3, rng)
    assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) < 1e-12


def test_hs_inner_positive_definite():
    rng = np.random.default_rng(23)
    a = complex_gaussian(5, 5, rng)
    val = hs_inner(a, a)
    assert abs(val.imag) < 1e-12 and val.real > 0
    assert hs_inner(np.zeros((3, 3)), np.zeros((3, 3))) == 0


def test_hs_inner_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError, match="^expected a 2-D matrix, got ndim=1$"):
        hs_inner(np.ones(2), np.eye(2))
    with pytest.raises(DimensionMismatchError, match=r"^expected a vector, got shape \(2, 2\)$"):
        inner(np.eye(2), np.ones(2))
    with pytest.raises(DimensionMismatchError, match=r"^inner: shapes \(2,\) vs \(3,\)$"):
        inner(np.ones(2), np.ones(3))


def test_trace_cyclicity():
    rng = np.random.default_rng(29)
    a = complex_gaussian(8, 8, rng)
    b = complex_gaussian(8, 8, rng)
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def _power_iteration_norm(a, iters=2000):
    # Independent largest-singular-value estimate via power iteration on a*a.
    rng = np.random.default_rng(0)
    v = complex_gaussian(a.shape[1], 1, rng)[:, 0]
    m = adjoint(a) @ a
    for _ in range(iters):
        v = m @ v
        v = v / np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, m @ v))))


def test_operator_norm():
    assert operator_norm(np.eye(5)) == 1
    assert operator_norm(2 * np.eye(2)) == 2
    rng = np.random.default_rng(41)
    a = complex_gaussian(4, 3, rng)
    s = np.linalg.svd(a, compute_uv=False)
    assert abs(operator_norm(a) - s.max()) < 1e-12
    assert abs(operator_norm(a) - _power_iteration_norm(a)) < 1e-8
    assert operator_norm(np.zeros((0, 3))) == 0.0


def test_is_psd():
    assert psd_check(np.eye(3)).passed
    assert not psd_check(np.diag([1.0, -1.0])).passed
    rng = np.random.default_rng(43)
    m = complex_gaussian(4, 4, rng)
    assert psd_check(adjoint(m) @ m).passed
    assert not psd_check(np.array([[0, 1], [0, 0]], dtype=complex)).passed  # non-Hermitian
    assert not is_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("top", [0.0, 1.0, 1e6])
def test_psd_rule_holds_at_its_edge(top):
    edge = -1e-10 * top
    assert Verdict.psd(edge, top) == (True, edge, edge)
    assert not Verdict.psd(np.nextafter(edge, -np.inf), top).passed


# Choi's matrix of the 2 x 2 transpose map, the swap: least eigenvalue -1.
SWAP = np.eye(4)[[0, 2, 1, 3]]


def test_psd_and_hermitian_rules_are_relative():
    # Small matrices are held to the same rule as large ones: no absolute
    # tolerance lets a tiny negative eigenvalue or a tiny skew part through.
    assert not psd_check(1e-12 * SWAP).passed
    assert not is_hermitian(1e-11 * np.array([[0, 1], [-1, 0]]))
    assert not psd_check(1e-11 * np.array([[1, 1], [-1, 1]])).passed
    assert is_hermitian(np.zeros((3, 3))) and psd_check(np.zeros((3, 3))) == (True, 0.0, -0.0)
    assert is_hermitian(np.zeros((0, 0)))
    assert not is_hermitian(np.array([[np.nan, 0], [0, 1]]))


def test_hermitian_rule_holds_at_its_edge_at_every_scale():
    for s in (1.0, 2.0**500, 2.0**-500):
        edge = s * np.array([[1, 0], [1e-10, 1]])
        assert is_hermitian(edge)
        assert not is_hermitian(s * np.array([[1, 0], [np.nextafter(1e-10, 1), 1]]))


def test_hermitian_rule_is_relative_to_the_largest_entry_not_each_entry():
    # A skew part up to TOL * max |h| passes wherever it sits, even where it
    # dwarfs its own entry; a rule held per entry would refuse this matrix.
    h = np.array([[1e6, 1e-5], [0, 1]])
    assert is_hermitian(h) and psd_check(h).passed
    assert not is_hermitian(np.array([[1e6, 1.01e-4], [0, 1]]))


@pytest.mark.parametrize("n", [10, 25])
@pytest.mark.parametrize("seed", range(3))
def test_cp_block_property_agrees_with_psd_check_on_its_draws(seed, n):
    # The property passes a block exactly when psd_check does, with the
    # scale-free value -lambda_min / ||H||_2, so it passes exactly when
    # psd_check passes every block it draws.
    blocks = list(catalogue._cp_blocks(np.random.default_rng(seed), n))
    values = [catalogue._psd_deviation(b) for b in blocks]
    assert [value <= TOL for value in values] == [psd_check(b).passed for b in blocks]
    for b, value in zip(blocks, values):
        assert value == pytest.approx(-min_eigenvalue(b) / operator_norm((b + adjoint(b)) / 2), rel=1e-9)
    verdict = catalogue.complete_positivity_block_psd(np.random.default_rng(seed), n)
    assert verdict == Verdict.at_most(max(values), TOL) and verdict.passed


def test_cp_block_rule_on_fixed_matrices():
    m = complex_gaussian(4, 4, np.random.default_rng(5))
    assert not psd_check(SWAP).passed and catalogue._psd_deviation(SWAP) == np.inf
    assert psd_check(adjoint(m) @ m).passed and catalogue._psd_deviation(adjoint(m) @ m) < 0
    skew = 1e-11 * np.array([[1, 1], [-1, 1]])
    assert not psd_check(skew).passed and catalogue._psd_deviation(skew) == np.inf
    assert psd_check(np.zeros((3, 3))).passed and catalogue._psd_deviation(np.zeros((3, 3))) == 0.0


def test_nearest_unitary_is_the_polar_factor():
    u = random_unitary(5, 7)
    m = complex_gaussian(5, 5, np.random.default_rng(8))
    p = adjoint(m) @ m  # positive definite
    assert np.abs(nearest_unitary(u @ p) - u).max() < 1e-12
    assert unitary_defect(nearest_unitary(u + 1e-9 * m)) < 1e-14


@pytest.mark.parametrize("d, k", [(2, 1), (2, 3), (8, 1), (8, 3)])
def test_nearest_unitary_of_a_wide_matrix_has_orthonormal_rows(d, k):
    w = nearest_unitary(complex_gaussian(d, k * d, np.random.default_rng(d + k)))
    assert w.shape == (d, k * d)
    assert unitary_defect(adjoint(w)) < 1e-13


def test_tp_rule_holds_at_its_edge():
    assert tp_verdict(2e-10) == (True, 2e-10, 2e-10)
    assert not tp_verdict(np.nextafter(2e-10, 1)).passed


def test_psd_rule_refuses_an_overflowed_eigenvalue():
    for top in (np.inf, np.nan):
        with pytest.raises(FloatingPointError, match="^overflow: the largest eigenvalue exceeds the double range"):
            Verdict.psd(0.0, top)
    # lambda_max = 2.4e308 is past the double range.
    with pytest.raises(FloatingPointError, match="^overflow: the largest eigenvalue exceeds the double range"):
        psd_check(np.full((3, 3), 8e307))


def test_unitary_defect():
    assert unitary_defect(np.eye(3)) == 0.0
    assert unitary_defect(2 * np.eye(2)) == 3.0
    assert unitary_defect(np.zeros((0, 0))) == 0.0
    assert unitary_defect(np.array([[1.0], [0.5]])) == 0.25  # a column: |phi*phi - 1|
    for bad in (np.nan, np.inf):
        assert unitary_defect(np.array([[bad, 0], [0, 1]])) == np.inf


def test_random_unitary():
    u1 = random_unitary(1, 9)
    assert abs(abs(u1[0, 0]) - 1) < 1e-12
    u = random_unitary(5, 42)
    assert np.abs(adjoint(u) @ u - np.eye(5)).max() < 1e-12
    assert np.array_equal(u, random_unitary(5, 42))  # deterministic
    assert not np.array_equal(u, random_unitary(5, 43))
    for d, seed in ((1, 9), (5, 42), (64, 7)):  # a Generator draws as its seed does
        assert np.array_equal(random_unitary(d, np.random.default_rng(seed)), random_unitary(d, seed))
    with pytest.raises(ValueError, match="^random_unitary: d must be >= 1$"):
        random_unitary(0, 0)


def test_guard_entries_shared_cap():
    guard_entries(MAX_KRON_ENTRIES, "x")
    with pytest.raises(DimensionMismatchError, match="thing would have"):
        guard_entries(MAX_KRON_ENTRIES + 1, "thing")
    with pytest.raises(DimensionMismatchError, match="kron result would have"):
        kron(np.eye(1025), np.eye(1025))


def test_psd_check_verdict_fields():
    rng = np.random.default_rng(44)
    m = complex_gaussian(5, 3, rng)
    h = m @ adjoint(m)  # PSD of rank 3
    v = psd_check(h)
    assert v.passed
    assert v.value == min_eigenvalue(h)
    # The threshold is relative to the norm of the Hermitian part, max |eigenvalue|.
    assert abs(v.threshold + 1e-10 * operator_norm(h)) < 1e-20 * operator_norm(h)
    neg = psd_check(np.diag([2.0, -3.0]))
    assert not neg.passed and neg.value == -3.0 and neg.threshold == -1e-10 * 3
    skew = psd_check(np.array([[1, 1], [0, 1]], dtype=complex))
    assert not skew.passed  # not Hermitian, whatever the spectrum of its Hermitian part
    for shape in ((2, 3), (0, 0)):
        with pytest.raises(DimensionMismatchError, match="^psd_check: matrix must be square and nonempty$"):
            psd_check(np.ones(shape))
