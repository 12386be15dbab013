import contextlib
import importlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAULT_FILES, write_channel, write_matrix

import hsdual.cli
from hsdual.io import format_matrix, parse_matrix
from hsdual.linalg import random_unitary
from hsdual.selftest import SUITES, run_suites

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

VEC_IDENTITY_GOLDEN = """{
  "format": 1,
  "rows": 4,
  "cols": 1,
  "data": [
    [[1, 0]],
    [[0, 0]],
    [[0, 0]],
    [[1, 0]]
  ]
}
"""


def test_vec_identity_golden(cli, tmp_path):
    path = write_matrix(tmp_path / "i.json", np.eye(2))
    code, out, err = cli("vec", path)
    assert code == 0
    assert out == VEC_IDENTITY_GOLDEN


def test_vec_is_column_stacking(cli, tmp_path):
    mat = np.array([[1 + 1j, 2.0], [3.0, 4 - 1j]])
    path = write_matrix(tmp_path / "m.json", mat)
    code, out, _ = cli("vec", path)
    assert code == 0
    got = parse_matrix(out)
    assert np.array_equal(got[:, 0], np.array([1 + 1j, 3.0, 2.0, 4 - 1j]))


def test_vec_devec_round_trip_bit_exact(cli, tmp_path):
    mat = np.array([[0.5, -0.25 + 1j], [2.0, 0.125]])
    path = write_matrix(tmp_path / "m.json", mat)
    code, vec_out, _ = cli("vec", path)
    assert code == 0
    vpath = tmp_path / "v.json"
    vpath.write_text(vec_out)
    code, devec_out, _ = cli("devec", str(vpath), "--d1", "2", "--d2", "2")
    assert code == 0
    assert devec_out == format_matrix(mat)


# Signed zeros, subnormals, the double range's ends and any other finite value.
EDGE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def edge_operators(draw):
    d2, d1 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a = np.empty((d2, d1), dtype=complex)
    a.real.flat = draw(st.lists(EDGE_ENTRIES, min_size=a.size, max_size=a.size))
    a.imag.flat = draw(st.lists(EDGE_ENTRIES, min_size=a.size, max_size=a.size))
    return a


def main_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert hsdual.cli.main(list(argv)) == 0
    return out.getvalue()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(edge_operators())
def test_vec_devec_round_trip_through_the_cli_is_value_exact(tmp_path_factory, a):
    # format_matrix writes -0.0 as 0, so values are compared with ==, not bitwise.
    d2, d1 = a.shape
    tmp = tmp_path_factory.mktemp("round-trip")
    vpath = tmp / "v.json"
    vpath.write_text(main_stdout("vec", write_matrix(tmp / "a.json", a)))
    assert np.array_equal(parse_matrix(vpath.read_text())[:, 0], a.reshape(-1, order="F"))
    assert np.array_equal(parse_matrix(main_stdout("devec", str(vpath), "--d1", str(d1), "--d2", str(d2))), a)


def test_vec_with_basis_files(cli, tmp_path):
    u = random_unitary(2, 1)
    v = random_unitary(2, 2)
    mpath = write_matrix(tmp_path / "m.json", np.array([[1.0, 2.0], [3.0, 4.0]]))
    b1 = write_matrix(tmp_path / "b1.json", u)
    b2 = write_matrix(tmp_path / "b2.json", v)
    code, out, _ = cli("vec", mpath, "--basis-h1", b1, "--basis-h2", b2)
    assert code == 0
    from hsdual.vectorize import Basis, BasisPair, vec_j

    expected = vec_j(np.array([[1.0, 2.0], [3.0, 4.0]]), BasisPair(Basis(u), Basis(v)))
    assert np.abs(parse_matrix(out)[:, 0] - expected).max() < 1e-12


def test_basis_files_need_d1_d2_at_most_1024(cli, tmp_path):
    # The README's dimension rule: a basis change builds kron(U1, U2), so vec
    # and devec with basis files run at 32x32 and exit 3 at 40x40.
    rng = np.random.default_rng(31)
    for d, code_expected in ((32, 0), (40, 3)):
        u1, u2 = random_unitary(d, 2 * d), random_unitary(d, 2 * d + 1)
        b1 = write_matrix(tmp_path / f"b1-{d}.json", u1)
        b2 = write_matrix(tmp_path / f"b2-{d}.json", u2)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        alpha = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        mpath = write_matrix(tmp_path / f"a-{d}.json", a)
        vpath = write_matrix(tmp_path / f"v-{d}.json", alpha)
        vec = cli("vec", mpath, "--basis-h1", b1, "--basis-h2", b2)
        devec = cli("devec", vpath, "--d1", str(d), "--d2", str(d), "--basis-h1", b1, "--basis-h2", b2)
        for code, out, err in (vec, devec):
            assert code == code_expected
            if code_expected:
                assert out == "" and err.count("\n") == 1
                assert err.startswith("error: ") and "kron result would have" in err
        if code_expected:
            continue

        # Plain-numpy oracle: C[i, j] = <psi_i, A phi_j>, vec_j(A) = (U1 C^T U2^T).reshape(-1).
        def oracle(m):
            return (u1 @ (u2.conj().T @ m @ u1).T @ u2.T).reshape(-1)

        assert np.abs(parse_matrix(vec[1])[:, 0] - oracle(a)).max() < 1e-12
        assert np.abs(oracle(parse_matrix(devec[1])) - alpha).max() < 1e-12


def test_vec_rejects_non_unitary_basis(cli, tmp_path):
    mpath = write_matrix(tmp_path / "m.json", np.eye(2))
    bad = write_matrix(tmp_path / "bad.json", np.array([[1.0, 1.0], [0.0, 1.0]]))
    code, _, err = cli("vec", mpath, "--basis-h1", bad)
    assert code == 2
    assert "unitary" in err


def test_devec_inverse_of_stacking(cli, tmp_path):
    path = write_matrix(tmp_path / "v.json", np.array([1.0, 3.0, 2.0, 4.0]))
    code, out, _ = cli("devec", str(path), "--d1", "2", "--d2", "2")
    assert code == 0
    assert np.array_equal(parse_matrix(out), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_devec_length_mismatch_exits_3(cli, tmp_path):
    path = write_matrix(tmp_path / "v.json", np.zeros(5))
    code, _, err = cli("devec", str(path), "--d1", "2", "--d2", "2")
    assert code == 3
    assert err


def test_malformed_input_exits_2(cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = cli("vec", str(bad))
    assert code == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text('{"format": 1, "rows": 2, "cols": 2, "data": [[[1, 0]]]}')
    code, _, _ = cli("vec", str(bad2))
    assert code == 2
    code, _, _ = cli("vec", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("name", sorted(FAULT_FILES))
def test_fault_file_exits_2_with_one_error_line(cli, tmp_path, name):
    kind, text = FAULT_FILES[name]
    path = tmp_path / "fault.json"
    path.write_text(text)
    code, out, err = cli("vec" if kind == "matrix" else "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# A valid file whose entries are near the double limit: the products each
# command forms overflow, and it must refuse with one line, not print inf or nan.
# schmidt forms no product of entries, so its vector has a Schmidt coefficient
# (sqrt(2) * 1.5e308) beyond the double range.
NEAR_LIMIT = np.array([[1e300, 0], [0, 1]])
OVERFLOW_CALLS = {
    "compose": ("compose", "{ch}"),
    "choi": ("choi", "{ch}"),
    "check-cp": ("check", "--cp", "{ch}"),
    "check-tp": ("check", "--tp", "{ch}"),
    "vec-basis-h1": ("vec", "{eye}", "--basis-h1", "{big}"),
    "schmidt": ("schmidt", "{wide}", "--d1", "2", "--d2", "2"),
}


def near_limit_files(tmp_path):
    return {
        "ch": write_channel(tmp_path / "ch.json", [NEAR_LIMIT]),
        "big": write_matrix(tmp_path / "big.json", NEAR_LIMIT),
        "eye": write_matrix(tmp_path / "eye.json", np.eye(2)),
        "col": write_matrix(tmp_path / "col.json", NEAR_LIMIT.reshape(-1)),
        "wide": write_matrix(tmp_path / "wide.json", np.array([1.5e308, 1.5e308, 0, 0])),
    }


@pytest.mark.parametrize("name", sorted(OVERFLOW_CALLS))
def test_overflow_exits_2_with_one_error_line(cli, tmp_path, name):
    files = near_limit_files(tmp_path)
    code, out, err = cli(*(arg.format(**files) for arg in OVERFLOW_CALLS[name]))
    assert (code, out) == (2, "")
    assert err.startswith("error: overflow") and err.count("\n") == 1


def test_entries_near_the_limit_pass_where_nothing_overflows(cli, tmp_path):
    files = near_limit_files(tmp_path)
    code, out, err = cli("vec", files["big"])
    assert (code, err) == (0, "")
    assert np.array_equal(parse_matrix(out)[:, 0], NEAR_LIMIT.T.reshape(-1))
    code, out, err = cli("schmidt", files["col"], "--d1", "2", "--d2", "2")
    assert (code, out, err) == (0, "lambdas: 1e+300 1\nrank: 1\nentangled: no\n", "")


def test_schmidt_rank_of_coefficients_past_1e154(cli, tmp_path):
    # The sum of squares of these coefficients overflows; their rank does not.
    path = write_matrix(tmp_path / "v.json", np.array([1e200, 0, 0, 1e200]))
    code, out, err = cli("schmidt", path, "--d1", "2", "--d2", "2")
    assert (code, err) == (0, "")
    assert "rank: 2\nentangled: yes\n" in out


def test_choi_identity_golden(cli, tmp_path):
    path = write_channel(tmp_path / "id.json", [np.eye(2)])
    code, out, _ = cli("choi", path)
    assert code == 0
    got = parse_matrix(out)
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1
    assert np.array_equal(got, expected)


def test_choi_bitflip_psd_trace_two(cli, tmp_path):
    path = write_channel(tmp_path / "x.json", [X])
    code, out, _ = cli("choi", path)
    assert code == 0
    got = parse_matrix(out)
    assert abs(np.trace(got) - 2) < 1e-12
    assert np.linalg.eigvalsh((got + got.conj().T) / 2).min() > -1e-12


def test_choi_normalize_halves(cli, tmp_path):
    path = write_channel(tmp_path / "id.json", [np.eye(2)])
    _, plain, _ = cli("choi", path)
    _, normed, _ = cli("choi", path, "--normalize")
    assert np.array_equal(parse_matrix(normed) * 2, parse_matrix(plain))


def test_check_identity_passes(cli, tmp_path):
    path = write_channel(tmp_path / "id.json", [np.eye(2)])
    code, out, _ = cli("check", path, "--cp", "--tp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("cp: PASS")
    assert lines[1].startswith("tp: PASS")


def test_check_golden_stdout(cli, tmp_path):
    ident = write_channel(tmp_path / "id.json", [np.eye(2)])
    assert cli("check", ident, "--cp", "--tp")[:2] == (
        0,
        "cp: PASS (min eigenvalue = 0)\ntp: PASS (deviation = 0)\n",
    )
    big = write_channel(tmp_path / "big.json", [2 * np.eye(2)])
    assert cli("check", big, "--cp", "--tp")[:2] == (
        1,
        "cp: PASS (min eigenvalue = 0)\ntp: FAIL (deviation = 3)\n",
    )


def test_check_cp_of_low_rank_channel_prints_structural_zero(cli, tmp_path):
    # k < d^2: the Choi matrix V V* has a null space, so its least eigenvalue is 0.
    from hsdual.selftest import random_tp_kraus

    path = write_channel(tmp_path / "c.json", random_tp_kraus(4, 2, np.random.default_rng(6)))
    assert cli("check", path, "--cp")[:2] == (0, "cp: PASS (min eigenvalue = 0)\n")


def test_check_scaled_identity_fails_tp(cli, tmp_path):
    path = write_channel(tmp_path / "big.json", [2 * np.eye(2)])
    code, out, _ = cli("check", path, "--tp")
    assert code == 1
    assert "tp: FAIL" in out


def test_check_pauli_mixture(cli, tmp_path):
    path = write_channel(tmp_path / "pauli.json", [X / np.sqrt(2), Z / np.sqrt(2)])
    code, out, _ = cli("check", path, "--cp", "--tp")
    assert code == 0
    assert "cp: PASS" in out and "tp: PASS" in out


def test_compose_identities(cli, tmp_path):
    p1 = write_channel(tmp_path / "a.json", [np.eye(2)])
    p2 = write_channel(tmp_path / "b.json", [np.eye(2)])
    code, out, _ = cli("compose", p1, p2)
    assert code == 0
    assert np.array_equal(parse_matrix(out), np.eye(4))


def test_compose_bitflip_squared(cli, tmp_path):
    p1 = write_channel(tmp_path / "x1.json", [X])
    p2 = write_channel(tmp_path / "x2.json", [X])
    code, out, _ = cli("compose", p1, p2)
    assert code == 0
    assert np.abs(parse_matrix(out) - np.eye(4)).max() < 1e-12


def test_compose_verify_reports_small_deviation(cli, tmp_path):
    rng = np.random.default_rng(0)
    from hsdual.selftest import random_tp_kraus

    p1 = write_channel(tmp_path / "c1.json", random_tp_kraus(2, 2, rng))
    p2 = write_channel(tmp_path / "c2.json", random_tp_kraus(2, 2, rng))
    code, out, err = cli("compose", p1, p2, "--verify")
    assert code == 0
    assert "verify: max deviation = " in err
    dev = float(err.split("=")[1])
    assert dev <= 1e-8


def test_compose_dim_mismatch_exits_3(cli, tmp_path):
    p1 = write_channel(tmp_path / "a.json", [np.eye(2)])
    p2 = write_channel(tmp_path / "b.json", [np.eye(3)])
    code, _, _ = cli("compose", p1, p2)
    assert code == 3


def test_schmidt_product_vector(cli, tmp_path):
    path = write_matrix(tmp_path / "v.json", np.array([1.0, 0, 0, 0]))
    code, out, _ = cli("schmidt", str(path), "--d1", "2", "--d2", "2")
    assert code == 0
    assert out == "lambdas: 1 0\nrank: 1\nentangled: no\n"


def test_schmidt_bell_vector(cli, tmp_path):
    s = 0.7071067811865476
    path = write_matrix(tmp_path / "bell.json", np.array([s, 0, 0, s]))
    code, out, _ = cli("schmidt", str(path), "--d1", "2", "--d2", "2")
    assert code == 0
    assert out == "lambdas: 0.707106781187 0.707106781187\nrank: 2\nentangled: yes\n"


def test_schmidt_zero_vector(cli, tmp_path):
    path = write_matrix(tmp_path / "z.json", np.zeros(4))
    code, out, _ = cli("schmidt", str(path), "--d1", "2", "--d2", "2")
    assert code == 0
    assert "rank: 0" in out and "entangled: no" in out


def test_selftest_single_suite(cli):
    code, out, _ = cli("selftest", "--suite", "vectorize", "--seed", "1")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 5


@pytest.mark.parametrize("seed", range(4))
def test_superop_choi_and_bench_suites_pass(seed):
    failed = [(suite, prop) for suite, prop, v in run_suites(["superop", "choi", "bench-sanity"], seed) if not v.passed]
    assert failed == []


def test_every_traced_cli_name_is_an_attribute_of_the_cli(monkeypatch):
    # hsbench/tracing.py wraps each CLI_SPANS key with getattr on hsdual.cli,
    # so a name dropped from cli.py would crash every traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "hsbench"))
    tracing = importlib.import_module("tracing")
    assert [name for name in tracing.CLI_SPANS if not hasattr(hsdual.cli, name)] == []


def test_selftest_unknown_suite_exits_2(cli):
    code, _, err = cli("selftest", "--suite", "nonsense")
    assert code == 2
    assert "usage" in err
    choices = ", ".join(map(repr, ["all", *sorted(SUITES)]))
    assert err.splitlines()[-1].endswith(f"argument --suite: invalid choice: 'nonsense' (choose from {choices})")


def test_selftest_suite_defaults_to_all():
    parser = hsdual.cli.build_parser()
    assert parser.parse_args(["selftest"]).suite == parser.parse_args(["selftest", "--suite", "all"]).suite == "all"


def test_selftest_deterministic(cli):
    code1, out1, _ = cli("selftest", "--suite", "entangle", "--seed", "7")
    code2, out2, _ = cli("selftest", "--suite", "entangle", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_csv_output(cli):
    code, out, _ = cli(
        "bench", "--dim", "2", "--kraus-rank", "2", "--chain-length", "3", "--trials", "2", "--seed", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,kraus_rank,chain_length,t_rmatrix_ns,t_nested_ns,max_deviation,seed"
    fields = lines[1].split(",")
    assert fields[0] == "2" and fields[-1] == "4"
    assert float(fields[5]) <= 1e-8


def test_digits_flag(cli, tmp_path):
    path = write_matrix(tmp_path / "m.json", np.array([[1 / 3]]))
    _, out17, _ = cli("vec", path)
    _, out3, _ = cli("vec", path, "--digits", "3")
    assert "0.33333333333333331" in out17
    assert "0.333," in out3 or "0.333]" in out3


def test_determinism_byte_identical(cli, tmp_path):
    path = write_matrix(tmp_path / "m.json", np.array([[0.1, 0.2], [0.3, 0.4]]))
    _, out1, _ = cli("vec", path)
    _, out2, _ = cli("vec", path)
    assert out1 == out2


def test_max_dim_guard(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("HSDUAL_MAX_DIM", "2")
    path = write_matrix(tmp_path / "m.json", np.eye(3))
    code, _, _ = cli("vec", path)
    assert code == 3


def test_max_dim_env_must_be_a_positive_integer(cli, tmp_path, monkeypatch):
    path = write_matrix(tmp_path / "m.json", np.eye(2))
    for bad in ("abc", "0", "-3", ""):
        monkeypatch.setenv("HSDUAL_MAX_DIM", bad)
        code, out, err = cli("vec", path)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "HSDUAL_MAX_DIM" in err


def test_negative_digits_exits_2(cli, tmp_path):
    path = write_matrix(tmp_path / "m.json", np.eye(2))
    ch = write_channel(tmp_path / "id.json", [np.eye(2)])
    for argv in (("vec", path), ("check", ch), ("choi", ch)):
        code, out, err = cli(*argv, "--digits", "-1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--digits" in err
    assert cli("vec", path, "--digits", "0")[0] == 0


def test_schmidt_64x64(cli, tmp_path):
    rng = np.random.default_rng(64)
    lam = np.array([1.5, 1.25, 1.0, 0.75, 0.5])
    x = np.linalg.qr(rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5)))[0]
    y = np.linalg.qr(rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5)))[0]
    alpha = sum(lam[i] * np.kron(x[:, i], y[:, i]) for i in range(5))
    code, out, err = cli("schmidt", write_matrix(tmp_path / "s.json", alpha), "--d1", "64", "--d2", "64")
    assert code == 0, err
    lines = out.splitlines()
    got = np.array([float(t) for t in lines[0].split(": ")[1].split()])
    assert got.shape == (64,)
    assert np.abs(got[:5] - lam).max() < 1e-10 and np.abs(got[5:]).max() < 1e-10
    assert lines[1:] == ["rank: 5", "entangled: yes"]


def test_superoperator_commands_capped_at_d33(cli, tmp_path):
    ch = write_channel(tmp_path / "d33.json", [np.eye(33)])
    for argv in (("compose", ch), ("compose", ch, ch), ("choi", ch), ("check", ch, "--cp")):
        code, out, err = cli(*argv)
        assert code == 3 and out == ""
        assert "would have 1185921 entries" in err
    code, out, _ = cli("check", ch, "--tp")  # no superoperator is built
    assert code == 0 and out.startswith("tp: PASS")


def test_compose_single_channel_is_its_r_matrix(cli, tmp_path):
    from hsdual.selftest import random_tp_kraus
    from hsdual.superop import kraus_to_r_kron

    ms = random_tp_kraus(3, 2, np.random.default_rng(5))
    code, out, _ = cli("compose", write_channel(tmp_path / "c.json", ms))
    assert code == 0
    assert out == format_matrix(kraus_to_r_kron(ms))


def test_compose_refuses_d33_before_reading_the_next_file(cli, tmp_path):
    ch = write_channel(tmp_path / "d33.json", [np.eye(33)])
    code, out, err = cli("compose", ch, str(tmp_path / "missing.json"))
    assert code == 3 and out == ""
    assert "would have 1185921 entries" in err


def test_bench_dim_33_is_a_dimension_error(cli):
    code, out, err = cli("bench", "--dim", "33", "--trials", "1")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "would have 1185921 entries" in err


def test_bench_channels_capped_just_over_the_limit(cli):
    # 1 channel * 65537 blocks * 4**2 entries = 2**20 + 16, one block over the cap.
    code, out, err = cli("bench", "--dim", "4", "--kraus-rank", "65537", "--chain-length", "1", "--trials", "1")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "bench channels would have 1048592 entries" in err
