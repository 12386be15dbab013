import numpy as np
import pytest

from hsdual.entangle import schmidt
from hsdual.linalg import DimensionMismatchError, Verdict, complex_gaussian, inner, kron, random_unitary
from hsdual.paper import devec_via_slices, phi_plus, vec_t
from hsdual.superop import SuperOp
from hsdual.vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    partial_slice,
    partial_slice_adjoint,
    vec_j,
)


def rand_pair(d1, d2, seed):
    return BasisPair(Basis(random_unitary(d1, seed)), Basis(random_unitary(d2, seed + 100)))


def test_basis_rejects_non_unitary():
    with pytest.raises(ValueError, match=r"^Basis: columns are not orthonormal within 1e-10$"):
        Basis(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(DimensionMismatchError, match="^Basis: matrix must be square$"):
        Basis(np.ones((2, 3), dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^Basis: columns are not orthonormal"):
            Basis(np.array([[bad, 0], [0, 1]]))
    assert Basis.standard(0).dim == 0  # the empty basis of C^0


def test_basis_rule_holds_at_its_edge():
    # U*U - I = [[0, t], [t, t^2]] for U = [[1, t], [0, 1]], and 1 + t^2
    # rounds to 1, so the defect is t bit for bit.
    edge = 1e-10
    Basis(np.array([[1, edge], [0, 1]]))
    with pytest.raises(ValueError, match="^Basis: columns are not orthonormal"):
        Basis(np.array([[1, np.nextafter(edge, 1)], [0, 1]]))


def _read_only_fields():
    basis = Basis(random_unitary(2, 0))
    pair = BasisPair(basis, Basis.standard(2))
    objects = [
        (Verdict(True, 0.0, 1.0), ["passed", "value", "threshold"]),
        (basis, ["u", "conjugation"]),
        (pair, ["b1", "b2"]),
        (SuperOp.from_kraus(np.eye(2)[None], basis), ["rmatrix", "bases"]),
        (schmidt(np.array([1, 0, 0, 1]) / np.sqrt(2), pair), ["lambdas", "left", "right"]),
    ]
    return [pytest.param(obj, name, id=f"{type(obj).__name__}.{name}") for obj, names in objects for name in names]


@pytest.mark.parametrize("obj, name", _read_only_fields())
def test_value_object_fields_are_read_only(obj, name):
    value = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) is value


def test_basis_owns_its_unitary():
    u = random_unitary(3, 4)
    b = Basis(u)
    bases = BasisPair(b, Basis.standard(2))
    a = complex_gaussian(2, 3, np.random.default_rng(8))
    v = vec_j(a, bases)  # caches conjugation
    kept_u, kept_j = b.u.copy(), b.conjugation.copy()
    u[:] = random_unitary(3, 5)  # the caller reuses its array
    assert np.array_equal(b.u, kept_u)
    assert not b.is_standard
    assert np.array_equal(b.conjugation, kept_j)
    assert np.array_equal(vec_j(a, bases), v)
    with pytest.raises(ValueError):
        b.u[0, 0] = 2
    assert not np.shares_memory(b.u, u)


def test_basis_adapted_to():
    rng = np.random.default_rng(1)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    phi = phi / np.linalg.norm(phi)
    b = Basis.adapted_to(phi)
    assert np.array_equal(b.u[:, 0], phi)


def test_basis_adapted_to_checks_the_bound_basis_enforces():
    phi = np.array([1.0, 1.0j]) / np.sqrt(2)
    # ||phi|| = 1 + 5e-9 is within 1e-8 of 1, but ||phi||^2 is not within the
    # 1e-10 that Basis demands; the refusal must name adapted_to.
    with pytest.raises(ValueError, match="adapted_to"):
        Basis.adapted_to(phi * (1 + 5e-9))
    near = phi * (1 + 2e-11)  # | ||near||^2 - 1 | = 4e-11
    assert np.array_equal(Basis.adapted_to(near).u[:, 0], near)
    # A norm that is not a number is refused by adapted_to too, not by Basis.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^adapted_to"):
            Basis.adapted_to(np.array([bad, 0]))


def test_conjugation_standard_basis_is_entrywise():
    b = Basis.standard(2)
    phi = np.array([1 + 2j, 3.0])
    assert np.array_equal(conjugate_in_basis(b, phi), np.array([1 - 2j, 3.0]))


def test_conjugation_fixes_basis_columns():
    b = Basis(random_unitary(4, 7))
    for k in range(4):
        assert np.abs(conjugate_in_basis(b, b.u[:, k]) - b.u[:, k]).max() < 1e-12


# (d1, d2): the standard basis is J = I, and the general formulas give the
# reshapes exactly at every size, up to the CLI's 64 per factor.
STANDARD_SHAPES = [(1, 1), (2, 3), (8, 8), (64, 24), (64, 64)]


def test_vec_j_standard_is_column_stacking():
    a, b, c, d = 1 + 1j, 2.0, 3 - 1j, 4j
    mat = np.array([[a, b], [c, d]])
    assert np.array_equal(vec_j(mat, BasisPair.standard(2, 2)), np.array([a, c, b, d]))
    for d1, d2 in STANDARD_SHAPES:
        mat = complex_gaussian(d2, d1, np.random.default_rng(d1 * d2))
        assert np.array_equal(vec_j(mat, BasisPair.standard(d1, d2)), mat.flatten(order="F"))


def test_vec_j_on_matrix_units():
    bases = rand_pair(3, 2, 5)
    for i in range(2):
        for j in range(3):
            unit = np.outer(bases.b2.u[:, i], np.conj(bases.b1.u[:, j]))
            expected = np.kron(bases.b1.u[:, j], bases.b2.u[:, i])
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
            alpha = np.kron(bases.b1.u[:, i], bases.b2.u[:, j])
            expected = np.outer(bases.b2.u[:, j], np.conj(bases.b1.u[:, i]))
            assert np.abs(devec_jstar(alpha, bases) - expected).max() < 1e-12


def test_devec_jstar_product_vectors():
    rng = np.random.default_rng(6)
    bases = rand_pair(4, 3, 17)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = devec_jstar(np.kron(phi, psi), bases)
    expected = np.outer(psi, np.conj(conjugate_in_basis(bases.b1, phi)))
    assert np.abs(got - expected).max() < 1e-12


def test_vec_t_identity_gives_phi_plus():
    got = vec_t(np.eye(2, dtype=complex), Basis.standard(2))
    assert np.array_equal(got, np.array([1, 0, 0, 1], dtype=complex))
    assert np.array_equal(phi_plus(Basis.standard(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vec_t_rank_one():
    rng = np.random.default_rng(10)
    b1 = Basis(random_unitary(3, 31))
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = vec_t(np.outer(psi, np.conj(phi)), b1)
    expected = np.kron(conjugate_in_basis(b1, phi), psi)
    assert np.abs(got - expected).max() < 1e-12


def test_partial_slice_on_product_vector():
    rng = np.random.default_rng(14)
    bases = rand_pair(3, 2, 37)
    phi = complex_gaussian(3, 1, rng)[:, 0]
    psi = complex_gaussian(2, 1, rng)[:, 0]
    for i in range(3):
        got = partial_slice(i, np.kron(phi, psi), bases)
        assert np.abs(got - inner(bases.b1.u[:, i], phi) * psi).max() < 1e-12


def test_partial_slice_standard_coordinates():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    alpha = np.array([a, c, b, d])
    got = partial_slice(0, alpha, BasisPair.standard(2, 2))
    assert np.array_equal(got, np.array([a, c]))
    for d1, d2 in STANDARD_SHAPES:
        alpha = complex_gaussian(d1 * d2, 1, np.random.default_rng(d1 * d2 + 1))[:, 0]
        bases = BasisPair.standard(d1, d2)
        for i in range(d1):
            assert np.array_equal(partial_slice(i, alpha, bases), alpha[i * d2 : (i + 1) * d2])


def test_partial_slice_index_range():
    bases = BasisPair.standard(2, 2)
    with pytest.raises(IndexError):
        partial_slice(2, np.zeros(4), bases)
    with pytest.raises(IndexError):
        partial_slice_adjoint(-1, np.zeros(2), bases)


def test_partial_slice_adjoint_embedding():
    got = partial_slice_adjoint(0, np.array([1j, 2.0]), BasisPair.standard(2, 2))
    assert np.array_equal(got, np.array([1j, 2.0, 0, 0]))


def test_devec_via_slices():
    bases = BasisPair.standard(2, 2)
    assert np.abs(devec_via_slices(phi_plus(Basis.standard(2)), bases) - np.eye(2)).max() < 1e-12
    rng = np.random.default_rng(20)
    rb = rand_pair(4, 3, 43)
    phi = complex_gaussian(4, 1, rng)[:, 0]
    psi = complex_gaussian(3, 1, rng)[:, 0]
    got = devec_via_slices(np.kron(phi, psi), rb)
    expected = np.outer(psi, np.conj(conjugate_in_basis(rb.b1, phi)))
    assert np.abs(got - expected).max() < 1e-12


def test_dimension_mismatches_raise():
    bases = BasisPair.standard(2, 3)
    with pytest.raises(DimensionMismatchError):
        vec_j(np.eye(2), bases)  # expects 3x2
    with pytest.raises(DimensionMismatchError):
        devec_jstar(np.zeros(5), bases)
    with pytest.raises(DimensionMismatchError):
        conjugate_in_basis(Basis.standard(2), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        partial_slice_adjoint(0, np.zeros(2), bases)  # expects length d2 = 3


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


@pytest.mark.parametrize("d1,d2", [(2, 3), (4, 4), (8, 8), (40, 40), (64, 24), (64, 64)])
def test_closed_forms_beyond_the_old_kron_cap(d1, d2):
    # Up to d1*d2 = 4096, where kron(U1, U2) would be refused above 1024: the
    # closed forms J1 A^T and conj(U1[:, i])^T alpha.reshape(d1, d2) read no
    # H2 basis, so another one gives the same bits.  With a standard H1 basis
    # devec is alpha.reshape(d1, d2)^T conj(J1) with J1 = I, in any H2 basis.
    random_pair = rand_pair(d1, d2, d1 + 3 * d2)
    a = complex_gaussian(d2, d1, np.random.default_rng(d1 * d2))
    alpha = complex_gaussian(d1 * d2, 1, np.random.default_rng(d1 * d2 + 1))[:, 0]
    for b1 in (Basis.standard(d1), random_pair.b1):
        bases = BasisPair(b1, random_pair.b2)
        other = BasisPair(b1, Basis(random_unitary(d2, d1 + 3 * d2 + 1)))
        v = vec_j(a, bases)
        assert np.abs(v - vec_t(a, b1)).max() < 1e-13
        assert np.array_equal(vec_j(a, other), v)
        # Slices against <phi_i (x) psi_j, alpha> summed over psi_j in plain numpy.
        u1, u2 = b1.u, bases.b2.u
        coeff = u1.conj().T @ alpha.reshape(d1, d2) @ u2.conj()
        for i in range(d1):
            s = partial_slice(i, alpha, bases)
            assert np.abs(s - u2 @ coeff[i]).max() < 1e-13
            assert np.array_equal(partial_slice(i, alpha, other), s)
        if b1.is_standard:
            a_back = devec_jstar(alpha, bases)
            assert np.array_equal(a_back, alpha.reshape(d1, d2).T)
            assert np.array_equal(devec_jstar(alpha, other), a_back)
            assert np.array_equal(schmidt(alpha, other).lambdas, schmidt(alpha, bases).lambdas)


def test_basis_conjugation_matrix():
    b = Basis(random_unitary(4, 3))
    assert np.abs(b.conjugation - b.u @ b.u.T).max() == 0
    phi = complex_gaussian(4, 1, np.random.default_rng(4))[:, 0]
    assert np.abs(b.conjugation @ phi.conj() - conjugate_in_basis(b, phi)).max() < 1e-13
    assert np.array_equal(Basis.standard(3).conjugation, np.eye(3))
    assert b.conjugation is b.conjugation  # computed once per basis
    assert repr(Basis.standard(1)) == "Basis(u=array([[1.+0.j]]))"


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
