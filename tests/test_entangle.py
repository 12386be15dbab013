import numpy as np
import pytest

from hsdual.entangle import (
    product_state_devec,
    pure_state_transport,
    schmidt,
    schmidt_rank,
)
from hsdual.linalg import DimensionMismatchError, complex_gaussian, hs_inner, kron, random_unitary
from hsdual.paper import lift_r
from hsdual.superop import lower_s
from hsdual.vectorize import Basis, BasisPair, conjugate_in_basis


def unit(v):
    return v / np.linalg.norm(v)


def rand_pair(d1, d2, seed):
    return BasisPair(Basis(random_unitary(d1, seed)), Basis(random_unitary(d2, seed + 100)))


def test_product_vector_rank_one():
    rng = np.random.default_rng(1)
    phi = unit(complex_gaussian(3, 1, rng)[:, 0])
    psi = unit(complex_gaussian(2, 1, rng)[:, 0])
    alpha = np.kron(phi, psi)
    res = schmidt(alpha, BasisPair.standard(3, 2))
    assert abs(res.lambdas[0] - 1.0) < 1e-12
    assert schmidt_rank(alpha, 3, 2) == 1
    assert not schmidt_rank(alpha, 3, 2) >= 2


def test_bell_vector():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    res = schmidt(bell, BasisPair.standard(2, 2))
    assert np.abs(res.lambdas - 0.7071067811865476).max() < 1e-12
    assert schmidt_rank(bell, 2, 2) == 2
    assert schmidt_rank(bell, 2, 2) >= 2


def test_zero_vector():
    assert schmidt_rank(np.zeros(4), 2, 2) == 0
    assert not schmidt_rank(np.zeros(4), 2, 2) >= 2


def test_schmidt_rank_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError, match="^schmidt_rank: vector length != d1\\*d2$"):
        schmidt_rank(np.ones(5), 2, 3)


def test_schmidt_refuses_a_coefficient_past_the_double_range():
    # The top coefficient, sqrt(2) * 1.5e308, overflows inside the SVD, which
    # numpy does not report.
    v = np.array([1.5e308, 1.5e308, 0, 0])
    with pytest.raises(FloatingPointError, match="exceeds the double range"):
        schmidt(v, BasisPair.standard(2, 2))
    with pytest.raises(FloatingPointError, match="exceeds the double range"):
        schmidt_rank(v, 2, 2)


def test_phase_convention_deterministic():
    rng = np.random.default_rng(4)
    alpha = complex_gaussian(6, 1, rng)[:, 0]
    bases = BasisPair.standard(3, 2)
    r1 = schmidt(alpha, bases)
    r2 = schmidt(alpha.copy(), bases)
    assert np.array_equal(r1.left, r2.left)
    assert np.array_equal(r1.right, r2.right)


def test_product_state_devec_standard():
    e0 = np.array([1, 0], dtype=complex)
    f0 = np.array([1, 0, 0], dtype=complex)
    got = product_state_devec(e0, f0, BasisPair.standard(2, 3))
    expected = np.zeros((3, 2), dtype=complex)
    expected[0, 0] = 1
    assert np.array_equal(got, expected)


def test_product_state_devec_adapted_basis():
    rng = np.random.default_rng(8)
    phi = unit(complex_gaussian(3, 1, rng)[:, 0])
    psi = unit(complex_gaussian(2, 1, rng)[:, 0])
    bases = BasisPair(Basis.adapted_to(phi), Basis.standard(2))
    got = product_state_devec(phi, psi, bases)
    assert np.abs(got - np.outer(psi, np.conj(phi))).max() < 1e-10


def test_product_state_devec_standard_conjugates():
    rng = np.random.default_rng(9)
    phi = unit(complex_gaussian(3, 1, rng)[:, 0])
    psi = unit(complex_gaussian(2, 1, rng)[:, 0])
    got = product_state_devec(phi, psi, BasisPair.standard(3, 2))
    assert np.abs(got - np.outer(psi, phi)).max() < 1e-12  # <conj(phi)| row = phi^T


def test_product_state_devec_rejects_non_unit():
    with pytest.raises(ValueError):
        product_state_devec(np.array([2.0, 0]), np.array([1.0, 0]), BasisPair.standard(2, 2))


@pytest.mark.parametrize("build", [product_state_devec, pure_state_transport])
@pytest.mark.parametrize("phi", [[np.nan, 0], [np.inf, 0], [2.0, 0]], ids=["nan", "inf", "two"])
def test_unit_checks_refuse_non_unit_vectors(build, phi):
    with pytest.raises(ValueError, match="expected a unit vector"):
        build(np.array(phi), np.array([1.0, 0]), BasisPair.standard(2, 2))


def test_pure_state_transport_projection():
    e0 = np.array([1, 0], dtype=complex)
    p = pure_state_transport(e0, e0, BasisPair.standard(2, 2))
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1
    assert np.abs(p(e00) - e00).max() < 1e-12
    assert np.abs(p(e11)).max() < 1e-12


def test_pure_state_transport_fixed_point_and_trace():
    rng = np.random.default_rng(10)
    bases = rand_pair(2, 2, 11)
    phi = unit(complex_gaussian(2, 1, rng)[:, 0])
    psi = unit(complex_gaussian(2, 1, rng)[:, 0])
    p = pure_state_transport(phi, psi, bases)
    fixed = np.outer(psi, np.conj(conjugate_in_basis(bases.b1, phi)))
    assert np.abs(p(fixed) - fixed).max() < 1e-10
    # Rank-one projection on operator space: acts as C -> <E,C> E / <E,E>.
    rngc = np.random.default_rng(12)
    c = complex_gaussian(2, 2, rngc)
    expected = hs_inner(fixed, c) * fixed / hs_inner(fixed, fixed).real
    assert np.abs(p(c) - expected).max() < 1e-10
    mat = lift_r(p, bases)
    assert abs(np.trace(mat) - 1.0) < 1e-10


def test_pure_state_transport_matches_lowering_the_product_projection():
    # Oracle: lower_s of the (d1*d2)^2 projection P_phi (x) P_psi.
    rng = np.random.default_rng(13)
    for bases in (BasisPair.standard(3, 2), rand_pair(3, 2, 14), rand_pair(4, 5, 15)):
        phi = unit(complex_gaussian(bases.d1, 1, rng)[:, 0])
        psi = unit(complex_gaussian(bases.d2, 1, rng)[:, 0])
        oracle = lower_s(kron(np.outer(phi, phi.conj()), np.outer(psi, psi.conj())), bases)
        p = pure_state_transport(phi, psi, bases)
        assert (p.d1, p.d2) == (bases.d1, bases.d2)
        for _ in range(3):
            a = complex_gaussian(bases.d2, bases.d1, rng)
            assert np.abs(p(a) - oracle(a)).max() < 1e-12


def test_pure_state_transport_above_the_kron_cap():
    # (40*40)^2 entries exceed MAX_KRON_ENTRIES, so the projection itself
    # cannot be built; the map never builds it.
    rng = np.random.default_rng(16)
    d = 40
    bases = BasisPair.standard(d, d)
    phi = unit(complex_gaussian(d, 1, rng)[:, 0])
    psi = unit(complex_gaussian(d, 1, rng)[:, 0])
    with pytest.raises(DimensionMismatchError, match="kron result would have"):
        kron(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
    p = pure_state_transport(phi, psi, bases)
    fixed = np.outer(psi, phi)  # devec of phi (x) psi in the standard bases
    assert np.abs(p(fixed) - fixed).max() < 1e-12
    c = complex_gaussian(d, d, rng)
    assert np.abs(p(c) - hs_inner(fixed, c) * fixed).max() < 1e-12
