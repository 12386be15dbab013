import numpy as np
import pytest

from hsdual.linalg import (
    MAX_KRON_ENTRIES,
    TOL,
    DimensionMismatchError,
    complex_gaussian,
    kron,
    min_eigenvalue,
    psd_check,
    random_unitary,
)
from hsdual.selftest import random_tp_kraus
from hsdual.superop import (
    HSMap,
    SuperOp,
    check_cp,
    check_tp,
    choi_map,
    compose,
    kraus_apply,
    kraus_to_r_kron,
    lower_s,
    tp_deviation,
)
from hsdual.entangle import schmidt
from hsdual.paper import choi_of_map, choi_of_vector, kraus_to_r, lift_r, m_alpha, phi_plus, vec_t
from hsdual.vectorize import Basis, BasisPair, devec_jstar, partial_slice, vec_j

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_pair(d1, d2, seed):
    return BasisPair(Basis(random_unitary(d1, seed)), Basis(random_unitary(d2, seed + 100)))


def test_lift_sandwich_is_kronecker():
    # Oracle: vec(M A N) = (N^T (x) M) vec(A) under column stacking.
    rng = np.random.default_rng(2)
    m = complex_gaussian(2, 2, rng)
    n = complex_gaussian(3, 3, rng)
    r = lift_r(HSMap(3, 2, lambda a: m @ a @ n), BasisPair.standard(3, 2))
    assert np.abs(r - kron(n.T, m)).max() < 1e-12


def test_lift_rank_matches():
    d = 2
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1
    trace_map = HSMap(d, d, lambda a: np.trace(a) * e11)
    r = lift_r(trace_map, BasisPair.standard(d, d))
    # The map on column-stacked operators: vec(A) -> vec(e11) * (vec(I)^T vec(A)).
    mat = np.outer(e11.flatten(order="F"), np.eye(d).flatten(order="F"))
    assert np.abs(r - mat).max() < 1e-12
    rank_r = np.linalg.matrix_rank(r, tol=1e-10)
    rank_m = np.linalg.matrix_rank(mat, tol=1e-10)
    assert rank_r == rank_m == 1


def test_matrix_unit_matrix_equals_standard_lift():
    rng = np.random.default_rng(3)
    mat = complex_gaussian(6, 6, rng)
    b = lower_s(mat, BasisPair.standard(3, 2))
    assert np.abs(lift_r(b, BasisPair.standard(3, 2)) - mat).max() < 1e-12


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


@pytest.mark.parametrize("d", [1, 2, 5, 8, 32])
@pytest.mark.parametrize("k", ["1", "3", "d^2"])
def test_kraus_apply_matches_the_plain_sum(d, k):
    # The stacked product W^* Y against sum_i M_i^* a M_i one block at a time,
    # for every form of channel, a non-contiguous state and real inputs.
    rng = np.random.default_rng(d)
    k = d * d if k == "d^2" else int(k)
    ms = np.stack([complex_gaussian(d, d, rng) for _ in range(k)])
    a = complex_gaussian(d, d, rng)
    cases = [
        (ms, a),
        (list(ms), a),
        (tuple(ms), a),
        (ms, a.T),
        (ms.real, a.real),
        (list(ms.real), a.real.T),
    ]
    for channel, state in cases:
        want = sum(m.conj().T @ state @ m for m in channel)
        got = kraus_apply(channel, state)
        assert got.shape == (d, d) and got.dtype == complex
        assert np.abs(got - want).max() <= 1e-12 * (1 + np.linalg.norm(want))


def test_kraus_apply_trace_preservation():
    rng = np.random.default_rng(9)
    ms = random_tp_kraus(3, 3, rng)
    assert tp_deviation(ms) < 1e-12
    a = complex_gaussian(3, 3, rng)
    assert abs(np.trace(kraus_apply(ms, a)) - np.trace(a)) < 1e-12


@pytest.mark.parametrize("d", [16, 32])
def test_random_tp_kraus_is_tp_to_rounding_at_rank_one(d):
    # A rank-1 draw is where (G G*)^(-1/2) through eigh would square the
    # condition number of G; the polar factor of one SVD does not.
    assert max(tp_deviation(random_tp_kraus(d, 1, np.random.default_rng(seed))) for seed in range(10)) <= 1e-13


def test_kraus_to_r_identity_and_bitflip():
    basis = Basis.standard(2)
    assert np.abs(kraus_to_r([np.eye(2)], basis) - np.eye(4)).max() < 1e-12
    r = kraus_to_r([X], basis)
    assert np.abs(r - kron(X, X)).max() < 1e-12
    assert np.abs(kraus_to_r_kron([X]) - kron(X, X)).max() < 1e-12


def test_m_alpha_matches_direct_collapse():
    # Oracle: M_alpha == sum_i M_i* devec(alpha) M_i by Kraus application.
    rng = np.random.default_rng(11)
    basis = Basis(random_unitary(3, 12))
    bases = BasisPair(basis, basis)
    ms = random_tp_kraus(3, 2, rng)
    alpha = complex_gaussian(9, 1, rng)[:, 0]
    got = m_alpha(ms, alpha, basis)
    expected = kraus_apply(ms, devec_jstar(alpha, bases))
    assert np.abs(got - expected).max() < 1e-10


def test_choi_of_identity():
    c = choi_of_map(HSMap.identity(2, 2), Basis.standard(2))
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1
    assert np.array_equal(c, expected)
    fp = phi_plus(Basis.standard(2))
    assert np.array_equal(c, np.outer(fp, fp.conj()))


def test_choi_of_transpose_is_swap():
    c = choi_of_map(HSMap(2, 2, lambda a: a.T.copy()), Basis.standard(2))
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    assert np.abs(c - swap).max() < 1e-15
    assert abs(min_eigenvalue(c) + 1.0) < 1e-12
    v = psd_check(choi_of_map(HSMap(2, 2, lambda a: a.T.copy()), Basis.standard(2)))
    assert not v.passed and abs(v.value + 1.0) < 1e-12


CP_CASES = sorted({(d, k) for d in (1, 2, 3, 5, 8) for k in (1, 2, d * d - 1, d * d, d * d + 1) if k >= 1})


@pytest.mark.parametrize("d,k", CP_CASES)
def test_gram_cp_verdict_matches_choi_eigensolve(d, k):
    # Oracle: psd_check of the built Choi matrix, in any basis: choi_map's in
    # the standard basis, the probe's in a random one.  check_cp reads the
    # squared singular values of the stacked blocks instead, so its least
    # eigenvalue agrees with either eigensolve to rounding in ||C||_2.  A
    # stack of plain Gaussian blocks is CP but not TP; the scales probe over-
    # and underflow margins.
    rng = np.random.default_rng(100 * d + k)
    stack = np.stack([complex_gaussian(d, d, rng) for _ in range(k)])
    for scale in (1.0, 1e100, 1e-100):
        ms = scale * stack
        v = check_cp(ms)
        for basis in (Basis.standard(d), Basis(random_unitary(d, 100 * d + k))):
            c = choi_map(ms) if basis.is_standard else choi_of_map(HSMap.from_kraus(ms), basis)
            oracle = psd_check(c)
            assert v.passed == oracle.passed
            assert abs(v.threshold - oracle.threshold) <= 1e-12 * abs(oracle.threshold)
            assert abs(v.value - oracle.value) <= 1e-12 * np.linalg.norm(c, 2)
        if k < d * d:
            assert v.value == 0.0
        else:
            assert v.value >= 0.0


def test_cp_fails_when_lambda_max_overflows():
    # Refused rather than judged against an infinite threshold, as psd_check
    # of the Choi matrix is, at k = 1 and at k = d^2 alike.
    for ms in (np.array([[[1e300, 0], [0, 1]]]), 1e160 * np.stack([np.eye(2)] * 4)):
        with pytest.raises(FloatingPointError, match="^overflow: the largest eigenvalue exceeds the double range"):
            check_cp(ms)


def test_cp_never_builds_the_choi_matrix():
    import tracemalloc

    d = 32
    ms = random_tp_kraus(d, 2, np.random.default_rng(24))
    tracemalloc.start()
    try:
        v = check_cp(ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.passed and v.value == 0.0
    assert peak < 1 << 20  # the d^4 Choi matrix alone is 16 MiB


# kron(U1, U2) alone is (d1*d2)^2 complex entries; a conjugated copy would double it.
KRON_BYTES_32X32 = (32 * 32) ** 2 * 16


@pytest.mark.parametrize(
    "name,bound",
    [
        pytest.param("vec_j", 1 << 20, id="vec_j"),  # closed form J1 A^T: no kron at all
        pytest.param("devec_jstar", 1.1 * KRON_BYTES_32X32, id="devec_jstar"),
        pytest.param("partial_slice", 1 << 20, id="partial_slice"),  # closed form: row of U1* times alpha
        pytest.param("schmidt", 1.1 * KRON_BYTES_32X32, id="schmidt"),
    ],
)
def test_basis_change_builds_one_kron_sized_array(name, bound):
    import tracemalloc

    d1, d2 = 32, 32  # d1*d2 = 1024, the kron cap
    rng = np.random.default_rng(25)
    bases = BasisPair(Basis(random_unitary(d1, 26)), Basis(random_unitary(d2, 27)))
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
    assert peak < bound


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
    got = choi_map(ms)
    assert np.abs(got - expected).max() < 1e-12


def test_choi_normalize_flag():
    c = choi_of_map(HSMap.identity(2, 2), Basis.standard(2))
    # The identity channel in closed form gives the same matrix, and
    # normalize divides it by the dimension.
    assert np.array_equal(choi_map([np.eye(2)]), c)
    assert np.array_equal(choi_map([np.eye(2)], normalize=True), c / 2)


def test_choi_requires_square():
    with pytest.raises(DimensionMismatchError):
        choi_of_map(HSMap.identity(3, 2), Basis.standard(3))


@pytest.mark.parametrize(
    "oracle, message",
    [
        (lambda: vec_t(np.eye(2, 3), Basis.standard(2)), "vec_t: operator/basis dimension mismatch"),
        (lambda: lift_r(HSMap.identity(3, 2), BasisPair.standard(2, 3)), "lift_r: map and bases dimensions differ"),
        (lambda: m_alpha([np.eye(2)], np.zeros(3), Basis.standard(2)), "m_alpha: vector length != d\\*d"),
        (lambda: choi_of_vector(np.eye(2, 3), Basis.standard(2)), "choi_of_vector: requires a d x d operator"),
    ],
    ids=["vec_t", "lift_r", "m_alpha", "choi_of_vector"],
)
def test_paper_oracles_refuse_mismatched_dimensions(oracle, message):
    with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
        oracle()


def test_choi_of_vector():
    basis = Basis.standard(2)
    assert np.array_equal(choi_of_vector(np.eye(2), basis), np.array([1, 0, 0, 1], dtype=complex))
    assert np.array_equal(choi_of_vector(X, basis), np.array([0, 1, 1, 0], dtype=complex))
    rng = np.random.default_rng(15)
    for d in (2, 4, 8):
        b = Basis(random_unitary(d, int(rng.integers(0, 1000))))
        for _ in range(10):
            a = complex_gaussian(d, d, rng)
            assert np.abs(choi_of_vector(a, b) - vec_t(a, b)).max() < 1e-12


def test_compose_identity_and_channels():
    basis = Basis.standard(2)
    ident = SuperOp(np.eye(4, dtype=complex), BasisPair(basis, basis))
    flip = SuperOp.from_kraus([X], basis)
    assert np.abs(compose(ident, flip).rmatrix - flip.rmatrix).max() < 1e-12
    squared = compose(flip, flip)
    assert np.abs(squared.rmatrix - np.eye(4)).max() < 1e-12


def test_compose_needs_only_the_h1_bases_to_agree():
    # An R-matrix depends on U1 and d2 alone, so the H2 bases may differ.
    rng = np.random.default_rng(28)
    b = Basis(random_unitary(2, 28))
    r1, r2 = complex_gaussian(4, 4, rng), complex_gaussian(4, 4, rng)
    other = Basis(random_unitary(2, 29))
    got = compose(SuperOp(r1, BasisPair(b, other)), SuperOp(r2, BasisPair(b, Basis.standard(2))))
    assert np.array_equal(got.rmatrix, r1 @ r2)


def test_compose_rejects_mismatched_bases():
    b1 = SuperOp(np.eye(4, dtype=complex), BasisPair.standard(2, 2))
    b2 = SuperOp(np.eye(4, dtype=complex), BasisPair(Basis(random_unitary(2, 1)), Basis(random_unitary(2, 2))))
    with pytest.raises(DimensionMismatchError):
        compose(b1, b2)
    b3 = SuperOp(np.eye(9, dtype=complex), BasisPair.standard(3, 3))
    with pytest.raises(DimensionMismatchError, match="^compose: dimension mismatch$"):
        compose(b1, b3)


def test_zero_dimensional_channel():
    # d = 0: every conversion returns its empty array, and both checks pass
    # with value 0, as unitary_defect reads an empty matrix.
    ms = np.zeros((1, 0, 0))
    assert kraus_apply(ms, np.zeros((0, 0))).shape == (0, 0)
    assert kraus_to_r_kron(ms).shape == (0, 0)
    assert choi_map(ms).shape == (0, 0)
    for v in (check_cp(ms), check_tp(ms)):
        assert v.passed and v.value == 0.0


def test_check_tp():
    # A Verdict is always truthy: read .passed, never the verdict itself.
    ident = check_tp([np.eye(2)])
    assert ident.passed and ident.value == 0.0 and ident.threshold == 2e-10
    assert check_tp([X / np.sqrt(2), Z / np.sqrt(2)]).passed
    big = check_tp([2 * np.eye(2)])
    assert not big.passed and big.value == 3.0


def test_hsmap_linearity():
    rng = np.random.default_rng(21)
    mat = complex_gaussian(4, 4, rng)
    b = lower_s(mat, BasisPair.standard(2, 2))
    a1 = complex_gaussian(2, 2, rng)
    a2 = complex_gaussian(2, 2, rng)
    x, y = 1.5 - 0.5j, -2j
    assert np.abs(b(x * a1 + y * a2) - (x * b(a1) + y * b(a2))).max() < 1e-10


CLOSED_FORM_CASES = [(d, k) for d in (1, 2, 3, 5, 8) for k in (1, 2, 5)]


def _kraus_and_bases(d, k, seed):
    rng = np.random.default_rng(seed)
    ms = [complex_gaussian(d, d, rng) for _ in range(k)]  # not TP: the forms are linear in each block
    return ms, (Basis.standard(d), Basis(random_unitary(d, seed)))


def r_without_j(ms):
    """sum_k M_k^T (x) M_k^*, the closed form with no J: its k Kronecker
    products summed by one product and reshuffled, as kraus_to_r_kron does."""
    m = np.asarray(ms, dtype=complex)
    k, d, _ = m.shape
    r = m.transpose(0, 2, 1).reshape(k, d * d).T @ m.conj().transpose(0, 2, 1).reshape(k, d * d)
    return r.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@pytest.mark.parametrize("d,k", CLOSED_FORM_CASES)
def test_closed_form_r_matches_oracles(d, k):
    ms, bases = _kraus_and_bases(d, k, 100 * d + k)
    for basis in bases:
        r = kraus_to_r_kron(ms, basis)
        scale = 1 + np.abs(r).max()
        assert np.abs(r - kraus_to_r(ms, basis)).max() <= 1e-12 * scale
        assert np.abs(r - lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))).max() <= 1e-12 * scale
        assert np.array_equal(SuperOp.from_kraus(ms, basis).rmatrix, r)
    # The standard basis is J = I, exactly: the J-free contraction.
    assert np.array_equal(kraus_to_r_kron(ms), r_without_j(ms))


@pytest.mark.parametrize("d,k", CLOSED_FORM_CASES)
def test_closed_form_choi_matches_probe(d, k):
    ms, _ = _kraus_and_bases(d, k, 200 * d + k)
    c = choi_map(ms)
    probe = choi_of_map(HSMap.from_kraus(ms), Basis.standard(d))
    assert np.abs(c - probe).max() <= 1e-12 * (1 + np.abs(probe).max())
    assert np.array_equal(choi_map(ms, normalize=True), c / d)


def test_closed_form_choi_is_reshuffled_r():
    # C[(i,a),(j,b)] = R[(b,a),(j,i)] in the standard basis.
    rng = np.random.default_rng(22)
    d = 4
    ms = random_tp_kraus(d, 3, rng)
    r = kraus_to_r_kron(ms)
    reshuffled = r.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    assert np.abs(choi_map(ms) - reshuffled).max() < 1e-14


def test_superoperator_cap_refuses_d33():
    d = 33
    assert d**4 > MAX_KRON_ENTRIES >= 32**4
    ms = [np.eye(d, dtype=complex)]
    with pytest.raises(DimensionMismatchError, match="R-matrix would have"):
        SuperOp.from_kraus(ms, Basis.standard(d))
    with pytest.raises(DimensionMismatchError, match="Choi matrix would have"):
        choi_map(ms)
    # check_cp builds no d^4 array at any rank: d^2 identity blocks pass, with
    # C = d^2 vec(I) vec(I)* of rank 1 and norm d^3.
    v = check_cp(np.broadcast_to(ms[0], (d * d, d, d)))
    assert v.passed and v.value == 0.0
    assert abs(v.threshold + TOL * d**3) <= 1e-12 * TOL * d**3
    assert check_cp(ms).passed
    with pytest.raises(DimensionMismatchError, match="Choi matrix would have"):
        choi_of_map(HSMap.from_kraus(ms), Basis.standard(d))
    assert kraus_to_r_kron([np.eye(32, dtype=complex)]).shape == (1024, 1024)
    ms = complex_gaussian(2 * 32, 32, np.random.default_rng(33)).reshape(2, 32, 32)
    assert np.array_equal(kraus_to_r_kron(ms), r_without_j(ms))


def test_lift_r_refuses_before_probing():
    # (d1 * d2)^2 = 1600^2 entries: refused before the probe array exists.
    with pytest.raises(DimensionMismatchError, match="R-matrix would have 2560000 entries"):
        lift_r(HSMap.identity(40, 40), BasisPair.standard(40, 40))


def test_closed_forms_reject_basis_of_other_dimension():
    with pytest.raises(DimensionMismatchError):
        kraus_to_r_kron([np.eye(2)], Basis.standard(3))


WRONG_SHAPES = {
    "kraus_apply": (lambda: kraus_apply([np.eye(2)], np.eye(3)), r"kraus_apply: state shape \(3, 3\)"),
    "HSMap": (lambda: HSMap.identity(2, 3)(np.eye(2)), r"HSMap: operand shape \(2, 2\) != \(3, 2\)"),
    "lower_s": (lambda: lower_s(np.eye(5), BasisPair.standard(2, 2)), r"lower_s: shape \(5, 5\)"),
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_operands_of_the_wrong_shape_are_refused(name):
    call, message = WRONG_SHAPES[name]
    with pytest.raises(DimensionMismatchError, match=f"^{message}"):
        call()


def test_choi_map_takes_no_basis_and_normalize_only_by_keyword():
    # A positional second argument, whether a basis or a flag, is refused
    # rather than read as normalize.
    for second in (Basis.standard(2), True):
        with pytest.raises(TypeError):
            choi_map([np.eye(2)], second)


def test_kraus_list_tuple_and_stack_give_identical_results():
    rng = np.random.default_rng(23)
    ms = random_tp_kraus(3, 3, rng)
    a = complex_gaussian(3, 3, rng)
    basis = Basis(random_unitary(3, 23))

    def results(channel):
        return (
            kraus_apply(channel, a),
            tp_deviation(channel),
            SuperOp.from_kraus(channel, basis).rmatrix,
            choi_map(channel),
            check_cp(channel),
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
    "hsmap": HSMap.identity(2, 2),  # a map, not its Kraus blocks
}


@pytest.mark.parametrize("name", sorted(BAD_KRAUS))
def test_kraus_validator_refuses_malformed_channels(name):
    ms = BAD_KRAUS[name]
    basis = Basis.standard(2)
    calls = (
        lambda: kraus_apply(ms, np.eye(2)),
        lambda: tp_deviation(ms),
        lambda: SuperOp.from_kraus(ms, basis),
        lambda: choi_map(ms),
        lambda: check_cp(ms),
        lambda: HSMap.from_kraus(ms),
    )
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()
