"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; tolerances are fixed here and never loosened.
"""

import numpy as np

from conftest import write_channel, write_matrix

from hsdual.bench import BenchConfig, run_bench
from hsdual.entangle import schmidt, schmidt_rank
from hsdual.io import parse_matrix
from hsdual.linalg import (
    adjoint,
    complex_gaussian,
    hs_inner,
    inner,
    kron,
    min_eigenvalue,
    operator_norm,
    psd_check,
)
from hsdual.paper import choi_of_map, devec_via_slices, kraus_to_r, lift_r, phi_plus, vec_t
from hsdual.selftest import random_tp_kraus
from hsdual.superop import (
    HSMap,
    SuperOp,
    compose,
    kraus_apply,
    kraus_to_r_kron,
    lower_s,
)
from hsdual.vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    partial_slice,
    partial_slice_adjoint,
    vec_j,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def rand_pair(d1, d2, rng):
    from hsdual.linalg import random_unitary_from

    return BasisPair(Basis(random_unitary_from(d1, rng)), Basis(random_unitary_from(d2, rng)))


def report(num, name):
    print(f"criterion {num:02d} ({name}): PASS")


def test_criterion_01_02_isometry_and_inverse_pair():
    rng = np.random.default_rng(101)
    for d1, d2 in [(2, 2), (3, 2), (4, 4), (8, 8)]:
        bases = rand_pair(d1, d2, rng)
        for _ in range(200):
            a = complex_gaussian(d2, d1, rng)
            b = complex_gaussian(d2, d1, rng)
            lhs = inner(vec_j(a, bases), vec_j(b, bases))
            rhs = hs_inner(a, b)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
            assert np.abs(devec_jstar(vec_j(a, bases), bases) - a).max() <= 1e-12
            alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
            assert np.abs(vec_j(devec_jstar(alpha, bases), bases) - alpha).max() <= 1e-12
    report(1, "isometry of vectorization")
    report(2, "inverse pair")


def test_criterion_03_conjugation_laws():
    rng = np.random.default_rng(103)
    for d in (2, 3, 5, 8):
        b = rand_pair(d, d, rng).b1
        for _ in range(25):
            phi = complex_gaussian(d, 1, rng)[:, 0]
            psi = complex_gaussian(d, 1, rng)[:, 0]
            k = lambda v: conjugate_in_basis(b, v)
            assert np.abs(k(k(phi)) - phi).max() <= 1e-12
            assert abs(inner(k(psi), phi) - inner(k(phi), psi)) <= 1e-12  # K* == K
            assert abs(inner(k(phi), k(psi)) - inner(psi, phi)) <= 1e-12
    report(3, "conjugation laws")


def test_criterion_04_alternative_vectorization():
    rng = np.random.default_rng(104)
    for d in (2, 4, 8):
        b1 = rand_pair(d, d, rng).b1
        fp = phi_plus(b1)
        for _ in range(34):
            a = complex_gaussian(d, d, rng)
            t = vec_t(a, b1)
            assert np.abs(t - vec_j(a, BasisPair(b1, Basis.standard(d)))).max() <= 1e-12
            assert np.abs(t - kron(np.eye(d), a) @ fp).max() <= 1e-12
    report(4, "alternative vectorization agreements")


def test_criterion_05_slice_identities():
    rng = np.random.default_rng(105)
    for _ in range(25):
        d1, d2 = 4, 3
        bases = rand_pair(d1, d2, rng)
        phi = complex_gaussian(d1, 1, rng)[:, 0]
        psi = complex_gaussian(d2, 1, rng)[:, 0]
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        beta = complex_gaussian(d2, 1, rng)[:, 0]
        for i in range(d1):
            got = partial_slice(i, np.kron(phi, psi), bases)
            assert np.abs(got - inner(bases.b1.column(i), phi) * psi).max() <= 1e-12
            lhs = inner(partial_slice(i, alpha, bases), beta)
            rhs = inner(alpha, partial_slice_adjoint(i, beta, bases))
            assert abs(lhs - rhs) <= 1e-12
        resum = sum(np.kron(bases.b1.column(i), partial_slice(i, alpha, bases)) for i in range(d1))
        assert np.abs(resum - alpha).max() <= 1e-12
        assert np.abs(devec_via_slices(alpha, bases) - devec_jstar(alpha, bases)).max() <= 1e-12
    report(5, "slice identities and devec cross-oracle")


def test_criterion_06_cstar_isomorphism():
    rng = np.random.default_rng(106)
    for d in (2, 3):
        bases = rand_pair(d, d, rng)
        n = d * d
        for _ in range(25):
            m1 = complex_gaussian(n, n, rng)
            m2 = complex_gaussian(n, n, rng)
            r1 = lift_r(HSMap.from_matrix(m1, d, d), bases)
            r2 = lift_r(HSMap.from_matrix(m2, d, d), bases)
            assert np.abs(lift_r(HSMap.from_matrix(m1 @ m2, d, d), bases) - r1 @ r2).max() <= 1e-8
            assert np.abs(lift_r(HSMap.from_matrix(adjoint(m1), d, d), bases) - adjoint(r1)).max() <= 1e-8
            assert abs(operator_norm(r1) - operator_norm(m1)) <= 1e-8
            assert np.abs(lift_r(lower_s(r1, bases), bases) - r1).max() <= 1e-12
            probe = complex_gaussian(d, d, rng)
            assert np.abs(lower_s(r1, bases)(probe) - HSMap.from_matrix(m1, d, d)(probe)).max() <= 1e-12
        assert np.abs(lift_r(HSMap.identity(d, d), bases) - np.eye(n)).max() <= 1e-8
    report(6, "C*-isomorphism suite")


def test_criterion_07_hs_preservation():
    rng = np.random.default_rng(107)
    bases = rand_pair(3, 3, rng)
    for _ in range(50):
        m1 = complex_gaussian(9, 9, rng)
        m2 = complex_gaussian(9, 9, rng)
        r1 = lift_r(HSMap.from_matrix(m1, 3, 3), bases)
        r2 = lift_r(HSMap.from_matrix(m2, 3, 3), bases)
        ref = hs_inner(m1, m2)
        assert abs(hs_inner(r1, r2) - ref) <= 1e-10 * (1 + abs(ref))
    report(7, "Hilbert-Schmidt structure preservation")


def test_criterion_08_complete_positivity():
    rng = np.random.default_rng(108)
    d = 2
    bases = rand_pair(d, d, rng)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        amats = [complex_gaussian(4, 4, rng) for _ in range(k)]
        bops = [complex_gaussian(4, 4, rng) for _ in range(k)]
        block = np.zeros((4, 4), dtype=complex)
        for i in range(k):
            for j in range(k):
                r_ij = lift_r(HSMap.from_matrix(adjoint(amats[i]) @ amats[j], d, d), bases)
                block += adjoint(bops[i]) @ r_ij @ bops[j]
        assert min_eigenvalue(block) >= -1e-10 * (1 + operator_norm(block))
        assert psd_check(block).passed
    report(8, "complete positivity block form")


def test_criterion_09_choi_behavior():
    basis = Basis.standard(2)
    c_id = choi_of_map(HSMap.identity(2, 2), basis)
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1
    assert np.array_equal(c_id, expected)

    rng = np.random.default_rng(109)
    for _ in range(50):
        m1 = complex_gaussian(4, 4, rng)
        m2 = complex_gaussian(4, 4, rng)
        lhs = hs_inner(
            choi_of_map(HSMap.from_matrix(m1, 2, 2), basis),
            choi_of_map(HSMap.from_matrix(m2, 2, 2), basis),
        )
        ref = hs_inner(m1, m2)
        assert abs(lhs - ref) <= 1e-10 * (1 + abs(ref))

    # Non-multiplicativity exhibit: the identity map against itself.
    assert operator_norm(c_id - c_id @ c_id) >= 0.1

    c_t = choi_of_map(HSMap(2, 2, lambda a: a.T.copy()), basis)
    assert abs(min_eigenvalue(c_t) + 1.0) <= 1e-10
    report(9, "Choi behavior")


def test_criterion_10_kraus_dual_construction():
    rng = np.random.default_rng(110)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        basis = Basis.standard(d)
        ms = random_tp_kraus(d, int(rng.integers(1, 5)), rng)
        r_alpha = kraus_to_r(ms, basis)
        r_kron = kraus_to_r_kron(ms)
        r_probe = lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))
        assert np.abs(r_alpha - r_kron).max() <= 1e-10
        assert np.abs(r_alpha - r_probe).max() <= 1e-10
        assert np.abs(r_kron - r_probe).max() <= 1e-10
    report(10, "Kraus-to-lift dual construction")


def test_criterion_11_schmidt_suite():
    rng = np.random.default_rng(111)
    for _ in range(25):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        phi = complex_gaussian(d1, 1, rng)[:, 0]
        psi = complex_gaussian(d2, 1, rng)[:, 0]
        assert schmidt_rank(np.kron(phi, psi), d1, d2) == 1
        bases = rand_pair(d1, d2, rng)
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        res = schmidt(alpha, bases)
        rebuilt = sum(
            res.lambdas[i] * np.kron(res.left[:, i], res.right[:, i])
            for i in range(len(res.lambdas))
        )
        assert np.abs(rebuilt - alpha).max() <= 1e-10
        assert abs(np.sum(res.lambdas**2) - np.linalg.norm(alpha) ** 2) <= 1e-10
    for seed in range(10):
        generic = complex_gaussian(9, 1, np.random.default_rng(1110 + seed))[:, 0]
        assert schmidt_rank(generic, 3, 3) == 3
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    lambdas = schmidt(bell, BasisPair.standard(2, 2)).lambdas
    assert np.abs(lambdas - 0.7071067811865476).max() <= 1e-12
    report(11, "Schmidt suite")


def test_criterion_12_composition_oracle():
    rng = np.random.default_rng(112)
    d = 4
    basis = Basis.standard(d)
    chains = [random_tp_kraus(d, 3, rng) for _ in range(10)]
    total = SuperOp(np.eye(d * d, dtype=complex), BasisPair(basis, basis))
    for ms in chains:
        total = compose(SuperOp.from_kraus(ms, basis), total)
    act = total.as_hsmap()
    for _ in range(10):
        state = complex_gaussian(d, d, rng)
        nested = state
        for ms in chains:
            nested = kraus_apply(ms, nested)
        assert np.abs(act(state) - nested).max() <= 1e-8
    report_bench = run_bench(BenchConfig(dim=d, kraus_rank=3, chain_length=10, trials=3, seed=112))
    assert report_bench.max_deviation <= 1e-8
    report(12, "composition oracle and bench agreement")


def test_criterion_13_cli_golden(cli, tmp_path):
    # vec of the identity, byte-exact.
    mpath = write_matrix(tmp_path / "i.json", np.eye(2))
    code, out, _ = cli("vec", mpath)
    assert code == 0
    assert out == (
        '{\n  "format": 1,\n  "rows": 4,\n  "cols": 1,\n  "data": [\n'
        "    [[1, 0]],\n    [[0, 0]],\n    [[0, 0]],\n    [[1, 0]]\n  ]\n}\n"
    )

    # vec/devec inverse pair on a generic matrix, byte-for-byte round trip.
    gen = write_matrix(tmp_path / "g.json", np.array([[1.5, -2.0], [0.25, 4.0 + 1j]]))
    _, vec_out, _ = cli("vec", gen)
    (tmp_path / "v.json").write_text(vec_out)
    code, devec_out, _ = cli("devec", str(tmp_path / "v.json"), "--d1", "2", "--d2", "2")
    assert code == 0
    assert np.array_equal(parse_matrix(devec_out), np.array([[1.5, -2.0], [0.25, 4.0 + 1j]]))

    # devec length mismatch -> exit 3.
    bad = write_matrix(tmp_path / "bad.json", np.zeros(5))
    code, _, _ = cli("devec", bad, "--d1", "2", "--d2", "2")
    assert code == 3

    # choi of the identity channel and the --normalize contract.
    ch = write_channel(tmp_path / "id.json", [np.eye(2)])
    _, choi_out, _ = cli("choi", ch)
    got = parse_matrix(choi_out)
    corner = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        corner[i, j] = 1
    assert np.array_equal(got, corner)
    _, choi_norm, _ = cli("choi", ch, "--normalize")
    assert np.array_equal(parse_matrix(choi_norm) * 2, got)

    # check subcommand exit-code contract.
    code, out, _ = cli("check", ch, "--cp", "--tp")
    assert code == 0 and "cp: PASS" in out and "tp: PASS" in out
    big = write_channel(tmp_path / "big.json", [2 * np.eye(2)])
    code, out, _ = cli("check", big, "--tp")
    assert code == 1 and "tp: FAIL" in out

    # compose: bit flip squared is the identity; --verify stays within 1e-8.
    x1 = write_channel(tmp_path / "x1.json", [X])
    x2 = write_channel(tmp_path / "x2.json", [X])
    code, out, err = cli("compose", x1, x2, "--verify")
    assert code == 0
    assert np.abs(parse_matrix(out) - np.eye(4)).max() <= 1e-12
    assert float(err.split("=")[1]) <= 1e-8

    # schmidt report for product / Bell / zero vectors.
    s = 0.7071067811865476
    bell = write_matrix(tmp_path / "bell.json", np.array([s, 0, 0, s]))
    code, out, _ = cli("schmidt", bell, "--d1", "2", "--d2", "2")
    assert code == 0
    assert out == "lambdas: 0.707106781187 0.707106781187\nrank: 2\nentangled: yes\n"
    prod = write_matrix(tmp_path / "prod.json", np.array([1.0, 0, 0, 0]))
    assert cli("schmidt", prod, "--d1", "2", "--d2", "2")[1].endswith("entangled: no\n")
    zero = write_matrix(tmp_path / "zero.json", np.zeros(4))
    code, out, _ = cli("schmidt", zero, "--d1", "2", "--d2", "2")
    assert code == 0 and "rank: 0" in out

    # selftest determinism and unknown-suite error path.
    code, out1, _ = cli("selftest", "--suite", "vectorize", "--seed", "1")
    assert code == 0 and "FAIL" not in out1
    code, out2, _ = cli("selftest", "--suite", "vectorize", "--seed", "1")
    assert out1 == out2
    code, _, err = cli("selftest", "--suite", "bogus")
    assert code == 2
    report(13, "CLI golden tests and exit codes")
