import numpy as np
import pytest

from hsdual.linalg import DimensionMismatchError, complex_gaussian, inner, hs_inner, kron
from hsdual.vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    devec_via_slices,
    partial_slice,
    partial_slice_adjoint,
    phi_plus,
    vec_j,
    vec_t,
)


def rand_pair(d1, d2, seed):
    return BasisPair(Basis.random(d1, seed), Basis.random(d2, seed + 100))


def test_basis_rejects_non_unitary():
    with pytest.raises(ValueError):
        Basis(np.array([[1, 1], [0, 1]], dtype=complex))


def test_basis_adapted_to():
    rng = np.random.default_rng(1)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    phi = phi / np.linalg.norm(phi)
    b = Basis.adapted_to(phi)
    assert np.array_equal(b.column(0), phi)


def test_basis_adapted_to_checks_the_bound_basis_enforces():
    phi = np.array([1.0, 1.0j]) / np.sqrt(2)
    # ||phi|| = 1 + 5e-9 is within 1e-8 of 1, but ||phi||^2 is not within the
    # 1e-10 that Basis demands; the refusal must name adapted_to.
    with pytest.raises(ValueError, match="adapted_to"):
        Basis.adapted_to(phi * (1 + 5e-9))
    near = phi * (1 + 2e-11)  # | ||near||^2 - 1 | = 4e-11
    assert np.array_equal(Basis.adapted_to(near).column(0), near)


def test_conjugation_standard_basis_is_entrywise():
    b = Basis.standard(2)
    phi = np.array([1 + 2j, 3.0])
    assert np.array_equal(conjugate_in_basis(b, phi), np.array([1 - 2j, 3.0]))


def test_conjugation_fixes_basis_columns():
    b = Basis.random(4, 7)
    for k in range(4):
        assert np.abs(conjugate_in_basis(b, b.column(k)) - b.column(k)).max() < 1e-12


def test_conjugation_involution_and_antilinearity():
    rng = np.random.default_rng(2)
    b = Basis.random(5, 11)
    phi = complex_gaussian(5, 1, rng)[:, 0]
    assert np.abs(conjugate_in_basis(b, conjugate_in_basis(b, phi)) - phi).max() < 1e-12
    c = 0.3 - 1.7j
    lhs = conjugate_in_basis(b, c * phi)
    rhs = np.conj(c) * conjugate_in_basis(b, phi)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_vec_j_standard_is_column_stacking():
    a, b, c, d = 1 + 1j, 2.0, 3 - 1j, 4j
    mat = np.array([[a, b], [c, d]])
    assert np.array_equal(vec_j(mat, BasisPair.standard(2, 2)), np.array([a, c, b, d]))


def test_vec_j_on_matrix_units():
    bases = rand_pair(3, 2, 5)
    for i in range(2):
        for j in range(3):
            unit = np.outer(bases.b2.column(i), np.conj(bases.b1.column(j)))
            expected = np.kron(bases.b1.column(j), bases.b2.column(i))
            assert np.abs(vec_j(unit, bases) - expected).max() < 1e-12


def test_vec_j_rank_one_rule():
    rng = np.random.default_rng(4)
    bases = rand_pair(3, 2, 9)
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(2, 1, rng)[:, 0]
    got = vec_j(np.outer(psi, np.conj(phi)), bases)
    expected = np.kron(conjugate_in_basis(bases.b1, phi), psi)
    assert np.abs(got - expected).max() < 1e-12


def test_devec_jstar_standard():
    a, b, c, d = 1.0, 2 + 2j, 3.0, -4j
    got = devec_jstar(np.array([a, c, b, d]), BasisPair.standard(2, 2))
    assert np.array_equal(got, np.array([[a, b], [c, d]]))


def test_devec_jstar_on_tensor_basis():
    bases = rand_pair(3, 2, 13)
    for i in range(3):
        for j in range(2):
            alpha = np.kron(bases.b1.column(i), bases.b2.column(j))
            expected = np.outer(bases.b2.column(j), np.conj(bases.b1.column(i)))
            assert np.abs(devec_jstar(alpha, bases) - expected).max() < 1e-12


def test_devec_jstar_product_vectors():
    rng = np.random.default_rng(6)
    bases = rand_pair(4, 3, 17)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = devec_jstar(np.kron(phi, psi), bases)
    expected = np.outer(psi, np.conj(conjugate_in_basis(bases.b1, phi)))
    assert np.abs(got - expected).max() < 1e-12


def test_inverse_pair():
    rng = np.random.default_rng(8)
    bases = rand_pair(4, 3, 21)
    a = complex_gaussian(3, 4, rng)
    assert np.abs(devec_jstar(vec_j(a, bases), bases) - a).max() < 1e-12
    alpha = complex_gaussian(12, 1, rng)[:, 0]
    assert np.abs(vec_j(devec_jstar(alpha, bases), bases) - alpha).max() < 1e-12


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 2), (4, 4), (8, 8)])
def test_isometry(d1, d2):
    rng = np.random.default_rng(d1 * 100 + d2)
    bases = rand_pair(d1, d2, d1 + d2)
    for _ in range(20):
        a = complex_gaussian(d2, d1, rng)
        b = complex_gaussian(d2, d1, rng)
        lhs = inner(vec_j(a, bases), vec_j(b, bases))
        rhs = hs_inner(a, b)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_vec_t_identity_gives_phi_plus():
    got = vec_t(np.eye(2, dtype=complex), Basis.standard(2))
    assert np.array_equal(got, np.array([1, 0, 0, 1], dtype=complex))
    assert np.array_equal(phi_plus(Basis.standard(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vec_t_rank_one():
    rng = np.random.default_rng(10)
    b1 = Basis.random(3, 31)
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = vec_t(np.outer(psi, np.conj(phi)), b1)
    expected = np.kron(conjugate_in_basis(b1, phi), psi)
    assert np.abs(got - expected).max() < 1e-12


def test_vec_t_equals_vec_j():
    rng = np.random.default_rng(12)
    b1 = Basis.random(4, 33)
    a = complex_gaussian(3, 4, rng)
    got = vec_t(a, b1)
    expected = vec_j(a, BasisPair(b1, Basis.standard(3)))
    assert np.abs(got - expected).max() < 1e-12
    # Lemma-independence: any second-factor basis gives the same vector.
    expected2 = vec_j(a, BasisPair(b1, Basis.random(3, 35)))
    assert np.abs(got - expected2).max() < 1e-12


def test_partial_slice_on_product_vector():
    rng = np.random.default_rng(14)
    bases = rand_pair(3, 2, 37)
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(2, 1, rng)[:, 0]
    for i in range(3):
        got = partial_slice(i, np.kron(phi, psi), bases)
        assert np.abs(got - inner(bases.b1.column(i), phi) * psi).max() < 1e-12


def test_partial_slice_resummation():
    rng = np.random.default_rng(16)
    bases = rand_pair(4, 3, 39)
    alpha = complex_gaussian(12, 1, rng)[:, 0]
    resum = sum(np.kron(bases.b1.column(i), partial_slice(i, alpha, bases)) for i in range(4))
    assert np.abs(resum - alpha).max() < 1e-12


def test_partial_slice_standard_coordinates():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    alpha = np.array([a, c, b, d])
    got = partial_slice(0, alpha, BasisPair.standard(2, 2))
    assert np.array_equal(got, np.array([a, c]))


def test_partial_slice_index_range():
    bases = BasisPair.standard(2, 2)
    with pytest.raises(IndexError):
        partial_slice(2, np.zeros(4), bases)
    with pytest.raises(IndexError):
        partial_slice_adjoint(-1, np.zeros(2), bases)


def test_partial_slice_adjoint_embedding():
    got = partial_slice_adjoint(0, np.array([1j, 2.0]), BasisPair.standard(2, 2))
    assert np.array_equal(got, np.array([1j, 2.0, 0, 0]))


def test_partial_slice_adjointness_and_section():
    rng = np.random.default_rng(18)
    bases = rand_pair(3, 2, 41)
    for _ in range(100):
        alpha = complex_gaussian(6, 1, rng)[:, 0]
        beta = complex_gaussian(2, 1, rng)[:, 0]
        i = int(rng.integers(0, 3))
        lhs = inner(partial_slice(i, alpha, bases), beta)
        rhs = inner(alpha, partial_slice_adjoint(i, beta, bases))
        assert abs(lhs - rhs) < 1e-12
        section = partial_slice(i, partial_slice_adjoint(i, beta, bases), bases)
        assert np.abs(section - beta).max() < 1e-12


def test_devec_via_slices():
    bases = BasisPair.standard(2, 2)
    assert np.abs(devec_via_slices(phi_plus(Basis.standard(2)), bases) - np.eye(2)).max() < 1e-12
    rng = np.random.default_rng(20)
    rb = rand_pair(4, 3, 43)
    for _ in range(100):
        alpha = complex_gaussian(12, 1, rng)[:, 0]
        assert np.abs(devec_via_slices(alpha, rb) - devec_jstar(alpha, rb)).max() < 1e-12
    phi = complex_gaussian(4, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = devec_via_slices(np.kron(phi, psi), rb)
    expected = np.outer(psi, np.conj(conjugate_in_basis(rb.b1, phi)))
    assert np.abs(got - expected).max() < 1e-12


def test_basis_change_corollary():
    # J in a primed basis pair equals the conjugation-corrected sum built
    # from the unprimed coefficients.
    rng = np.random.default_rng(22)
    bases = rand_pair(3, 2, 45)
    primed = rand_pair(3, 2, 47)
    a = complex_gaussian(2, 3, rng)
    direct = vec_j(a, primed)
    total = np.zeros(6, dtype=complex)
    for i in range(2):
        for j in range(3):
            coeff = inner(bases.b2.column(i), a @ bases.b1.column(j))
            total += coeff * np.kron(
                conjugate_in_basis(primed.b1, bases.b1.column(j)), bases.b2.column(i)
            )
    assert np.abs(direct - total).max() < 1e-10


def test_dimension_mismatches_raise():
    bases = BasisPair.standard(2, 3)
    with pytest.raises(DimensionMismatchError):
        vec_j(np.eye(2), bases)  # expects 3x2
    with pytest.raises(DimensionMismatchError):
        devec_jstar(np.zeros(5), bases)
    with pytest.raises(DimensionMismatchError):
        conjugate_in_basis(Basis.standard(2), np.zeros(3))


# The last three are the shapes lib-apply runs, up to the kron cap d1*d2 = 1024.
BASIS_CHANGE_SHAPES = [
    (1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (1, 3), (3, 1), (2, 5), (8, 3), (5, 8),
    (32, 32), (24, 40), (16, 64),
]


@pytest.mark.parametrize("d1,d2", BASIS_CHANGE_SHAPES)
def test_basis_changes_match_kron_formulas(d1, d2):
    rng = np.random.default_rng(10 * d1 + d2)
    for bases in (BasisPair.standard(d1, d2), rand_pair(d1, d2, d1 + 7 * d2)):
        w = kron(bases.b1.u, bases.b2.u)
        a = complex_gaussian(d2, d1, rng)
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        coeff = bases.b2.u.conj().T @ a @ bases.b1.u
        assert np.abs(vec_j(a, bases) - w @ coeff.T.reshape(-1)).max() < 1e-13
        assert np.abs(vec_j(a, bases) - vec_t(a, bases.b1)).max() < 1e-13
        beta = w.conj().T @ alpha
        devec_ref = bases.b2.u @ beta.reshape(d1, d2).T @ bases.b1.u.conj().T
        assert np.abs(devec_jstar(alpha, bases) - devec_ref).max() < 1e-13
        assert np.abs(devec_jstar(alpha, bases) - devec_via_slices(alpha, bases)).max() < 1e-13
        for i in range(d1):
            slice_ref = bases.b2.u @ beta[i * d2 : (i + 1) * d2]
            assert np.abs(partial_slice(i, alpha, bases) - slice_ref).max() < 1e-13


def test_basis_conjugation_matrix():
    b = Basis.random(4, 3)
    assert np.abs(b.conjugation - b.u @ b.u.T).max() == 0
    phi = complex_gaussian(4, 1, np.random.default_rng(4))[:, 0]
    assert np.abs(b.conjugation @ phi.conj() - conjugate_in_basis(b, phi)).max() < 1e-13
    assert np.array_equal(Basis.standard(3).conjugation, np.eye(3))


def test_standard_basis_changes_are_exact_and_fresh():
    a = np.array([[1.5, -0.0], [0.25, 4.0 + 1j], [2.0, -3.0]])
    bases = BasisPair.standard(2, 3)
    v = vec_j(a, bases)
    assert np.array_equal(v, a.T.reshape(-1))
    back = devec_jstar(v, bases)
    assert np.array_equal(back, a)
    v[0] = 99  # results never alias their inputs
    assert a[0, 0] == 1.5 and back[0, 0] == 1.5


def test_standard_basis_changes_build_no_kron():
    # d1 * d2 = 4096: kron(I, I) would have 2^24 entries, above the cap.
    bases = BasisPair.standard(64, 64)
    a = complex_gaussian(64, 64, np.random.default_rng(12))
    alpha = vec_j(a, bases)
    assert np.array_equal(devec_jstar(alpha, bases), a)
    assert np.array_equal(partial_slice(5, alpha, bases), a[:, 5])
