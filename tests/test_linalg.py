import numpy as np
import pytest

from hsdual.linalg import (
    MAX_KRON_ENTRIES,
    DimensionMismatchError,
    Tolerance,
    adjoint,
    complex_gaussian,
    hermitian_eig,
    hs_inner,
    inner,
    guard_entries,
    is_psd,
    kron,
    min_eigenvalue,
    operator_norm,
    psd_check,
    random_unitary,
    svd,
)

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


def test_trace_cyclicity():
    rng = np.random.default_rng(29)
    a = complex_gaussian(8, 8, rng)
    b = complex_gaussian(8, 8, rng)
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_hermitian_eig_basics():
    vals, _ = hermitian_eig(np.eye(4))
    assert np.allclose(vals, 1)
    vals, _ = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.array_equal(vals, [3.0, 1.0])
    vals, vecs = hermitian_eig(X)
    assert np.allclose(vals, [1.0, -1.0])
    assert np.abs(X @ vecs - vecs @ np.diag(vals)).max() < 1e-10
    assert np.abs(adjoint(vecs) @ vecs - np.eye(2)).max() < 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_svd_basics_and_reconstruction():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, 1)
    _, s, _ = svd(np.diag([2.0, 0.0]))
    assert np.array_equal(s, [2.0, 0.0])
    rng = np.random.default_rng(31)
    a = complex_gaussian(5, 3, rng)
    u, s, v = svd(a)
    assert np.abs(a - u @ np.diag(s) @ adjoint(v)).max() < 1e-10 * np.linalg.norm(a)
    assert np.all(np.diff(s) <= 0)


def test_svd_agrees_with_hermitian_eig_on_psd():
    rng = np.random.default_rng(37)
    m = complex_gaussian(4, 4, rng)
    h = m @ adjoint(m)
    vals, _ = hermitian_eig(h)
    _, s, _ = svd(h)
    assert np.abs(vals - s).max() < 1e-10


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
    _, s, _ = svd(a)
    assert abs(operator_norm(a) - s.max()) < 1e-12
    assert abs(operator_norm(a) - _power_iteration_norm(a)) < 1e-8


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1.0]))
    rng = np.random.default_rng(43)
    m = complex_gaussian(4, 4, rng)
    assert is_psd(adjoint(m) @ m)
    assert not is_psd(np.array([[0, 1], [0, 0]], dtype=complex))  # non-Hermitian


def test_is_psd_tolerance_contract():
    h = np.diag([1.0, -5e-11])
    assert is_psd(h, Tolerance(abs=1e-10))
    assert not is_psd(h, Tolerance(abs=1e-12))


def test_random_unitary():
    u1 = random_unitary(1, 9)
    assert abs(abs(u1[0, 0]) - 1) < 1e-12
    u = random_unitary(5, 42)
    assert np.abs(adjoint(u) @ u - np.eye(5)).max() < 1e-12
    assert np.array_equal(u, random_unitary(5, 42))  # deterministic
    assert not np.array_equal(u, random_unitary(5, 43))


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
    assert v.passed and v.passed == is_psd(h)
    assert v.value == min_eigenvalue(h)
    # The threshold scales with the norm of the Hermitian part, max |eigenvalue|.
    assert abs(v.threshold + 1e-10 * (1 + operator_norm(h))) < 1e-20 * (1 + operator_norm(h))
    neg = psd_check(np.diag([2.0, -3.0]))
    assert not neg.passed and neg.value == -3.0 and neg.threshold == -1e-10 * 4
    skew = psd_check(np.array([[1, 1], [0, 1]], dtype=complex))
    assert not skew.passed  # not Hermitian, whatever the spectrum of its Hermitian part
    with pytest.raises(DimensionMismatchError):
        psd_check(np.ones((2, 3)))
