import numpy as np
import pytest

from hsdual.linalg import (
    MAX_KRON_ENTRIES,
    DimensionMismatchError,
    Tolerance,
    adjoint,
    complex_gaussian,
    hs_inner,
    is_psd,
    kron,
    min_eigenvalue,
    operator_norm,
    psd_check,
)
from hsdual.selftest import random_tp_kraus
from hsdual.superop import (
    HSMap,
    SuperOp,
    check_cp,
    check_tp,
    choi_map,
    choi_of_vector,
    compose,
    kraus_apply,
    kraus_to_choi,
    kraus_to_r,
    kraus_to_r_kron,
    lift_r,
    lower_s,
    m_alpha,
    tp_deviation,
)
from hsdual.entangle import schmidt
from hsdual.vectorize import Basis, BasisPair, devec_jstar, partial_slice, phi_plus, vec_j, vec_t

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_pair(d1, d2, seed):
    return BasisPair(Basis.random(d1, seed), Basis.random(d2, seed + 100))


def test_lift_identity():
    for bases in (BasisPair.standard(3, 2), rand_pair(3, 2, 1)):
        r = lift_r(HSMap.identity(3, 2), bases)
        assert np.abs(r - np.eye(6)).max() < 1e-12


def test_lift_sandwich_is_kronecker():
    # Oracle: vec(M A N) = (N^T (x) M) vec(A) under column stacking.
    rng = np.random.default_rng(2)
    m = complex_gaussian(2, 2, rng)
    n = complex_gaussian(3, 3, rng)
    r = lift_r(HSMap.sandwich(m, n), BasisPair.standard(3, 2))
    assert np.abs(r - kron(n.T, m)).max() < 1e-12


def test_lift_rank_matches():
    d = 2
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1
    trace_map = HSMap(d, d, lambda a: np.trace(a) * e11)
    r = lift_r(trace_map, BasisPair.standard(d, d))
    mat = trace_map.matrix()
    rank_r = np.linalg.matrix_rank(r, tol=1e-10)
    rank_m = np.linalg.matrix_rank(mat, tol=1e-10)
    assert rank_r == rank_m == 1


def test_matrix_unit_matrix_equals_standard_lift():
    rng = np.random.default_rng(3)
    mat = complex_gaussian(6, 6, rng)
    b = HSMap.from_matrix(mat, 3, 2)
    assert np.abs(b.matrix() - mat).max() < 1e-12


def test_lower_s_inverts_lift_r():
    rng = np.random.default_rng(4)
    bases = rand_pair(3, 2, 5)
    for _ in range(50):
        c = complex_gaussian(6, 6, rng)
        assert np.abs(lift_r(lower_s(c, bases), bases) - c).max() < 1e-12
    mat = complex_gaussian(6, 6, rng)
    b = HSMap.from_matrix(mat, 3, 2)
    low = lower_s(lift_r(b, bases), bases)
    probe = complex_gaussian(2, 3, rng)
    assert np.abs(low(probe) - b(probe)).max() < 1e-12


def test_lower_s_factorized_action():
    # S(A (x) B) maps |psi><phi| to |B psi><A phi| (standard bases, real phi
    # coordinates absorb the conjugation).
    rng = np.random.default_rng(6)
    d = 3
    a = rng.standard_normal((d, d)).astype(complex)  # real: standard conjugation fixes A phi
    b = complex_gaussian(d, d, rng)
    s = lower_s(kron(a, b), BasisPair.standard(d, d))
    phi = rng.standard_normal(d)
    psi = complex_gaussian(d, 1, rng)[:, 0]
    got = s(np.outer(psi, np.conj(phi)))
    expected = np.outer(b @ psi, np.conj(a @ phi))
    assert np.abs(got - expected).max() < 1e-10


def test_lower_s_factorized_action_general():
    # In fixed standard bases with complex phi the conjugation shows up:
    # S(A (x) B)(C) = B C (K A K)^* ... checked against the vectorized action.
    rng = np.random.default_rng(7)
    d = 3
    bases = BasisPair.standard(d, d)
    a = complex_gaussian(d, d, rng)
    b = complex_gaussian(d, d, rng)
    s = lower_s(kron(a, b), bases)
    c = complex_gaussian(d, d, rng)
    expected = devec_jstar(kron(a, b) @ vec_j(c, bases), bases)
    assert np.abs(s(c) - expected).max() < 1e-10
    assert np.abs(s(c) - b @ c @ a.T).max() < 1e-10


def test_kraus_apply_identity_and_bitflip():
    rng = np.random.default_rng(8)
    a = complex_gaussian(3, 3, rng)
    assert np.abs(kraus_apply([np.eye(3)], a) - a).max() == 0
    p = 0.3
    state = np.diag([p, 1 - p]).astype(complex)
    assert np.abs(kraus_apply([X], state) - np.diag([1 - p, p])).max() < 1e-15


def test_kraus_apply_trace_preservation():
    rng = np.random.default_rng(9)
    ms = random_tp_kraus(3, 3, rng)
    assert tp_deviation(ms) < 1e-12
    a = complex_gaussian(3, 3, rng)
    assert abs(np.trace(kraus_apply(ms, a)) - np.trace(a)) < 1e-12


def test_kraus_to_r_identity_and_bitflip():
    basis = Basis.standard(2)
    assert np.abs(kraus_to_r([np.eye(2)], basis) - np.eye(4)).max() < 1e-12
    r = kraus_to_r([X], basis)
    assert np.abs(r - kron(X, X)).max() < 1e-12
    assert np.abs(kraus_to_r_kron([X]) - kron(X, X)).max() < 1e-12


def test_kraus_to_r_three_constructions_agree():
    rng = np.random.default_rng(10)
    basis = Basis.standard(3)
    for _ in range(50):
        ms = random_tp_kraus(3, int(rng.integers(1, 5)), rng)
        r_alpha = kraus_to_r(ms, basis)
        r_kron = kraus_to_r_kron(ms)
        r_probe = lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))
        assert np.abs(r_alpha - r_kron).max() < 1e-10
        assert np.abs(r_alpha - r_probe).max() < 1e-10


def test_m_alpha_matches_direct_collapse():
    # Oracle: M_alpha == sum_i M_i* devec(alpha) M_i by Kraus application.
    rng = np.random.default_rng(11)
    basis = Basis.random(3, 12)
    bases = BasisPair(basis, basis)
    ms = random_tp_kraus(3, 2, rng)
    alpha = complex_gaussian(9, 1, rng)[:, 0]
    got = m_alpha(ms, alpha, basis)
    expected = kraus_apply(ms, devec_jstar(alpha, bases))
    assert np.abs(got - expected).max() < 1e-10


def test_choi_of_identity():
    c = choi_map(HSMap.identity(2, 2), Basis.standard(2))
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1
    assert np.array_equal(c, expected)
    fp = phi_plus(Basis.standard(2))
    assert np.array_equal(c, np.outer(fp, fp.conj()))


def test_choi_of_transpose_is_swap():
    c = choi_map(HSMap(2, 2, lambda a: a.T.copy()), Basis.standard(2))
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    assert np.abs(c - swap).max() < 1e-15
    assert abs(min_eigenvalue(c) + 1.0) < 1e-12
    v = check_cp(HSMap(2, 2, lambda a: a.T.copy()), Basis.standard(2))
    assert not v.passed and abs(v.value + 1.0) < 1e-12


def test_choi_positivity_of_kraus_channels():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        ms = random_tp_kraus(d, int(rng.integers(1, 4)), rng)
        assert check_cp(HSMap.from_kraus(ms), Basis.standard(d)).passed


GRAM_CP_CASES = sorted({(d, k) for d in (1, 2, 3, 5, 8) for k in (1, 2, d * d - 1, d * d, d * d + 1) if k >= 1})


@pytest.mark.parametrize("d,k", GRAM_CP_CASES)
def test_gram_cp_verdict_matches_choi_eigensolve(d, k):
    # Oracle: psd_check of the built Choi matrix.  A stack of plain Gaussian
    # blocks is CP but not TP; the scales probe over- and underflow margins.
    rng = np.random.default_rng(100 * d + k)
    stack = np.stack([complex_gaussian(d, d, rng) for _ in range(k)])
    for basis in (Basis.standard(d), Basis.random(d, 100 * d + k)):
        for scale in (1.0, 1e100, 1e-100):
            ms = scale * stack
            v = check_cp(HSMap.from_kraus(ms), basis)
            oracle = psd_check(kraus_to_choi(ms, basis))
            assert v.passed == oracle.passed
            assert abs(v.threshold - oracle.threshold) <= 1e-12 * abs(oracle.threshold)
            if k < d * d:
                assert v.value == 0.0
            else:
                assert v.value == oracle.value


def test_gram_cp_fails_when_lambda_max_overflows():
    ms = np.array([[[1e300, 0], [0, 1]]])  # as psd_check of the Choi matrix does
    with np.errstate(over="ignore", invalid="ignore"):
        assert not check_cp(HSMap.from_kraus(ms), Basis.standard(2)).passed


def test_gram_cp_never_builds_the_choi_matrix():
    import tracemalloc

    d = 32
    b = HSMap.from_kraus(random_tp_kraus(d, 2, np.random.default_rng(24)))
    tracemalloc.start()
    try:
        v = check_cp(b, Basis.standard(d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.passed and v.value == 0.0
    assert peak < 1 << 20  # the d^4 Choi matrix alone is 16 MiB


@pytest.mark.parametrize("name", ["vec_j", "devec_jstar", "partial_slice", "schmidt"])
def test_basis_change_builds_one_kron_sized_array(name):
    import tracemalloc

    d1, d2 = 32, 32  # d1*d2 = 1024, the kron cap
    rng = np.random.default_rng(25)
    bases = BasisPair(Basis.random(d1, 26), Basis.random(d2, 27))
    a = complex_gaussian(d2, d1, rng)
    alpha = a.reshape(-1)
    call = {
        "vec_j": lambda: vec_j(a, bases),
        "devec_jstar": lambda: devec_jstar(alpha, bases),
        "partial_slice": lambda: partial_slice(d1 - 1, alpha, bases),
        "schmidt": lambda: schmidt(alpha, bases),
    }[name]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # kron(U1, U2) alone is (d1*d2)^2 complex entries; a conjugated copy doubles it.
    assert peak <= 1.1 * (d1 * d2) ** 2 * 16


def test_choi_matches_entangled_state_form_for_kraus():
    # Oracle: C(B) == sum_i (I (x) M_i*) |phi+><phi+| (I (x) M_i).
    rng = np.random.default_rng(14)
    d = 3
    ms = random_tp_kraus(d, 2, rng)
    basis = Basis.standard(d)
    fp = phi_plus(basis)
    proj = np.outer(fp, fp.conj())
    expected = sum(
        kron(np.eye(d), m.conj().T) @ proj @ kron(np.eye(d), m) for m in ms
    )
    got = choi_map(HSMap.from_kraus(ms), basis)
    assert np.abs(got - expected).max() < 1e-12


def test_choi_normalize_flag():
    c = choi_map(HSMap.identity(2, 2), Basis.standard(2))
    cn = choi_map(HSMap.identity(2, 2), Basis.standard(2), normalize=True)
    assert np.abs(cn - c / 2).max() == 0


def test_choi_requires_square():
    with pytest.raises(DimensionMismatchError):
        choi_map(HSMap.identity(3, 2), Basis.standard(3))


def test_choi_of_vector():
    basis = Basis.standard(2)
    assert np.array_equal(choi_of_vector(np.eye(2), basis), np.array([1, 0, 0, 1], dtype=complex))
    assert np.array_equal(choi_of_vector(X, basis), np.array([0, 1, 1, 0], dtype=complex))
    rng = np.random.default_rng(15)
    for d in (2, 4, 8):
        b = Basis.random(d, int(rng.integers(0, 1000)))
        for _ in range(10):
            a = complex_gaussian(d, d, rng)
            assert np.abs(choi_of_vector(a, b) - vec_t(a, b)).max() < 1e-12


def test_choi_non_multiplicative():
    c = choi_map(HSMap.identity(2, 2), Basis.standard(2))
    assert operator_norm(c - c @ c) >= 0.1


def test_compose_identity_and_channels():
    basis = Basis.standard(2)
    ident = SuperOp.identity(BasisPair(basis, basis))
    flip = SuperOp.from_kraus([X], basis)
    assert np.abs(compose(ident, flip).rmatrix - flip.rmatrix).max() < 1e-12
    squared = compose(flip, flip)
    assert np.abs(squared.rmatrix - np.eye(4)).max() < 1e-12


def test_compose_matches_nested_kraus():
    rng = np.random.default_rng(16)
    d = 3
    basis = Basis.standard(d)
    ms = random_tp_kraus(d, 2, rng)
    ns = random_tp_kraus(d, 2, rng)
    comp = compose(SuperOp.from_kraus(ns, basis), SuperOp.from_kraus(ms, basis))
    a = complex_gaussian(d, d, rng)
    nested = sum(
        adjoint(n) @ adjoint(m) @ a @ m @ n for m in ms for n in ns
    )
    got = comp.as_hsmap()(a)
    assert np.abs(got - nested).max() < 1e-10


def test_compose_chain_of_ten():
    rng = np.random.default_rng(17)
    d = 4
    basis = Basis.standard(d)
    chains = [random_tp_kraus(d, 2, rng) for _ in range(10)]
    total = SuperOp.identity(BasisPair(basis, basis))
    for ms in chains:
        total = compose(SuperOp.from_kraus(ms, basis), total)
    a = complex_gaussian(d, d, rng)
    nested = a
    for ms in chains:
        nested = kraus_apply(ms, nested)
    assert np.abs(total.as_hsmap()(a) - nested).max() < 1e-8


def test_compose_rejects_mismatched_bases():
    b1 = SuperOp.identity(BasisPair.standard(2, 2))
    b2 = SuperOp.identity(BasisPair(Basis.random(2, 1), Basis.random(2, 2)))
    with pytest.raises(DimensionMismatchError):
        compose(b1, b2)


def test_check_tp():
    # A Verdict is always truthy: read .passed, never the verdict itself.
    ident = check_tp([np.eye(2)])
    assert ident.passed and ident.value == 0.0 and ident.threshold == 2e-10
    assert check_tp([X / np.sqrt(2), Z / np.sqrt(2)]).passed
    big = check_tp([2 * np.eye(2)])
    assert not big.passed and big.value == 3.0


def test_cstar_properties_random_bases():
    rng = np.random.default_rng(18)
    for d in (2, 3):
        bases = rand_pair(d, d, 50 + d)
        n = d * d
        for _ in range(10):
            m1 = complex_gaussian(n, n, rng)
            m2 = complex_gaussian(n, n, rng)
            r1 = lift_r(HSMap.from_matrix(m1, d, d), bases)
            r2 = lift_r(HSMap.from_matrix(m2, d, d), bases)
            r12 = lift_r(HSMap.from_matrix(m1 @ m2, d, d), bases)
            assert np.abs(r12 - r1 @ r2).max() < 1e-8
            radj = lift_r(HSMap.from_matrix(adjoint(m1), d, d), bases)
            assert np.abs(radj - adjoint(r1)).max() < 1e-8
            assert abs(operator_norm(r1) - operator_norm(m1)) < 1e-8


def test_hs_preservation():
    rng = np.random.default_rng(19)
    bases = rand_pair(2, 2, 60)
    for _ in range(50):
        m1 = complex_gaussian(4, 4, rng)
        m2 = complex_gaussian(4, 4, rng)
        r1 = lift_r(HSMap.from_matrix(m1, 2, 2), bases)
        r2 = lift_r(HSMap.from_matrix(m2, 2, 2), bases)
        assert abs(hs_inner(r1, r2) - hs_inner(m1, m2)) <= 1e-10 * (1 + abs(hs_inner(m1, m2)))
        assert abs(np.trace(adjoint(r1) @ r1).real - np.trace(adjoint(m1) @ m1).real) < 1e-8


def test_complete_positivity_block():
    rng = np.random.default_rng(20)
    d = 2
    bases = rand_pair(d, d, 70)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        amats = [complex_gaussian(4, 4, rng) for _ in range(k)]
        bops = [complex_gaussian(4, 4, rng) for _ in range(k)]
        block = np.zeros((4, 4), dtype=complex)
        for i in range(k):
            for j in range(k):
                r_ij = lift_r(HSMap.from_matrix(adjoint(amats[i]) @ amats[j], d, d), bases)
                block += adjoint(bops[i]) @ r_ij @ bops[j]
        assert is_psd(block, Tolerance(abs=1e-10))


def test_hsmap_linearity():
    rng = np.random.default_rng(21)
    mat = complex_gaussian(4, 4, rng)
    b = HSMap.from_matrix(mat, 2, 2)
    a1 = complex_gaussian(2, 2, rng)
    a2 = complex_gaussian(2, 2, rng)
    x, y = 1.5 - 0.5j, -2j
    assert np.abs(b(x * a1 + y * a2) - (x * b(a1) + y * b(a2))).max() < 1e-10


CLOSED_FORM_CASES = [(d, k) for d in (1, 2, 3, 5, 8) for k in (1, 2, 5)]


def _kraus_and_bases(d, k, seed):
    rng = np.random.default_rng(seed)
    ms = [complex_gaussian(d, d, rng) for _ in range(k)]  # not TP: the forms are linear in each block
    return ms, (Basis.standard(d), Basis.random(d, seed))


@pytest.mark.parametrize("d,k", CLOSED_FORM_CASES)
def test_closed_form_r_matches_oracles(d, k):
    ms, bases = _kraus_and_bases(d, k, 100 * d + k)
    for basis in bases:
        r = kraus_to_r_kron(ms, basis)
        scale = 1 + np.abs(r).max()
        assert np.abs(r - kraus_to_r(ms, basis)).max() <= 1e-12 * scale
        assert np.abs(r - lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))).max() <= 1e-12 * scale
        assert np.array_equal(SuperOp.from_kraus(ms, basis).rmatrix, r)


@pytest.mark.parametrize("d,k", CLOSED_FORM_CASES)
def test_closed_form_choi_matches_probe(d, k):
    ms, bases = _kraus_and_bases(d, k, 200 * d + k)
    probe_map = HSMap(d, d, lambda a: kraus_apply(ms, a))  # no Kraus stack: choi_map probes
    assert probe_map.kraus is None
    for basis in bases:
        for normalize in (False, True):
            c = choi_map(HSMap.from_kraus(ms), basis, normalize=normalize)
            probe = choi_map(probe_map, basis, normalize=normalize)
            assert np.abs(c - probe).max() <= 1e-12 * (1 + np.abs(probe).max())
            assert np.array_equal(c, kraus_to_choi(ms, basis, normalize))


def test_closed_form_choi_is_reshuffled_r():
    # C[(i,a),(j,b)] = R[(b,a),(j,i)] in the standard basis.
    rng = np.random.default_rng(22)
    d = 4
    ms = random_tp_kraus(d, 3, rng)
    r = kraus_to_r_kron(ms)
    reshuffled = r.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    assert np.abs(kraus_to_choi(ms, Basis.standard(d)) - reshuffled).max() < 1e-14


def test_superoperator_cap_refuses_d33():
    d = 33
    assert d**4 > MAX_KRON_ENTRIES >= 32**4
    ms = [np.eye(d, dtype=complex)]
    with pytest.raises(DimensionMismatchError, match="R-matrix would have"):
        SuperOp.from_kraus(ms, Basis.standard(d))
    with pytest.raises(DimensionMismatchError, match="Choi matrix would have"):
        choi_map(HSMap.from_kraus(ms), Basis.standard(d))
    with pytest.raises(DimensionMismatchError, match="Choi matrix would have"):
        check_cp(HSMap.from_kraus(ms), Basis.standard(d))
    assert kraus_to_r_kron([np.eye(32, dtype=complex)]).shape == (1024, 1024)


def test_closed_forms_reject_basis_of_other_dimension():
    with pytest.raises(DimensionMismatchError):
        kraus_to_r_kron([np.eye(2)], Basis.standard(3))
    with pytest.raises(DimensionMismatchError):
        kraus_to_choi([np.eye(2)], Basis.standard(3))


def test_kraus_list_tuple_and_stack_give_identical_results():
    rng = np.random.default_rng(23)
    ms = random_tp_kraus(3, 3, rng)
    a = complex_gaussian(3, 3, rng)
    basis = Basis.random(3, 23)

    def results(channel):
        return (
            kraus_apply(channel, a),
            tp_deviation(channel),
            SuperOp.from_kraus(channel, basis).rmatrix,
            kraus_to_choi(channel, basis),
        )

    want = results(ms)
    assert ms.shape == (3, 3, 3)
    for channel in (list(ms), tuple(ms)):
        for got, ref in zip(results(channel), want):
            assert np.array_equal(got, ref)


BAD_KRAUS = {
    "empty": [],
    "empty-stack": np.empty((0, 2, 2)),
    "ragged": [np.eye(2), np.eye(3)],
    "non-square": [np.ones((2, 3)), np.ones((2, 3))],
    "1-D": [np.ones(2), np.ones(2)],
}


@pytest.mark.parametrize("name", sorted(BAD_KRAUS))
def test_kraus_validator_refuses_malformed_channels(name):
    ms = BAD_KRAUS[name]
    basis = Basis.standard(2)
    calls = (
        lambda: kraus_apply(ms, np.eye(2)),
        lambda: tp_deviation(ms),
        lambda: SuperOp.from_kraus(ms, basis),
        lambda: kraus_to_choi(ms, basis),
        lambda: HSMap.from_kraus(ms),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()
