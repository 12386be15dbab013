import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAULT_FILES, write_channel, write_matrix

import hsdual.cli
from hsdual.io import fmt_number, format_matrix, parse_matrix
from hsdual.linalg import complex_gaussian, random_unitary
from hsdual.selftest import SUITES

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

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


def test_vec_output_does_not_depend_on_the_h2_basis(cli, tmp_path):
    # sum_j phi_j (x) A phi_j needs only the H1 basis: --basis-h2 is read and
    # checked, but cannot change a byte of vec's output.
    mpath = write_matrix(tmp_path / "a.json", complex_gaussian(3, 4, np.random.default_rng(7)))
    b1 = write_matrix(tmp_path / "b1.json", random_unitary(4, 5))
    b2 = write_matrix(tmp_path / "b2.json", random_unitary(3, 6))
    for h1 in ((), ("--basis-h1", b1)):
        code, out, err = cli("vec", mpath, *h1)
        assert code == 0 and err == ""
        assert cli("vec", mpath, *h1, "--basis-h2", b2) == (code, out, err)


def test_basis_files_cap_devec_not_vec_at_d1_d2_1024(cli, tmp_path):
    # The README's dimension rule: vec with basis files uses the closed form
    # J1 A^T and runs at every size up to MAX_DIM; devec still builds
    # kron(U1, U2), so it runs at 32x32 and exits 3 above d1*d2 = 1024.
    rng = np.random.default_rng(31)
    for d1, d2 in ((32, 32), (40, 40), (64, 24), (64, 64)):
        u1, u2 = random_unitary(d1, 2 * d1), random_unitary(d2, 2 * d2 + 1)
        b1 = write_matrix(tmp_path / f"b1-{d1}x{d2}.json", u1)
        b2 = write_matrix(tmp_path / f"b2-{d1}x{d2}.json", u2)

        # Plain-numpy oracle: C[i, j] = <psi_i, A phi_j>, vec_j(A) = (U1 C^T U2^T).reshape(-1).
        def oracle(m):
            return (u1 @ (u2.conj().T @ m @ u1).T @ u2.T).reshape(-1)

        a = rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))
        mpath = write_matrix(tmp_path / f"a-{d1}x{d2}.json", a)
        code, out, err = cli("vec", mpath, "--basis-h1", b1, "--basis-h2", b2)
        assert code == 0 and err == ""
        assert np.abs(parse_matrix(out)[:, 0] - oracle(a)).max() < 1e-12

        alpha = rng.standard_normal(d1 * d2) + 1j * rng.standard_normal(d1 * d2)
        vpath = write_matrix(tmp_path / f"v-{d1}x{d2}.json", alpha)
        dims = ("--d1", str(d1), "--d2", str(d2))
        code, out, err = cli("devec", vpath, *dims, "--basis-h1", b1, "--basis-h2", b2)
        if d1 * d2 <= 1024:
            assert code == 0
            assert np.abs(oracle(parse_matrix(out)) - alpha).max() < 1e-12
        else:
            assert code == 3 and out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and "kron result would have" in err


def test_devec_with_only_an_h2_basis_file_is_the_transpose_at_64x64(cli, tmp_path):
    # devec(alpha) = alpha.reshape(d1, d2)^T conj(J1): with no H1 basis file
    # J1 = I, U2 cancels, and no kron(U1, U2) is built.
    alpha = complex_gaussian(64 * 64, 1, np.random.default_rng(32))[:, 0]
    vpath = write_matrix(tmp_path / "v.json", alpha)
    b2 = write_matrix(tmp_path / "b2.json", random_unitary(64, 33))
    code, out, err = cli("devec", vpath, "--d1", "64", "--d2", "64", "--basis-h2", b2)
    assert code == 0 and err == ""
    assert np.array_equal(parse_matrix(out), alpha.reshape(64, 64).T)


def test_vec_rejects_non_unitary_basis(cli, tmp_path):
    mpath = write_matrix(tmp_path / "m.json", np.eye(2))
    bad = write_matrix(tmp_path / "bad.json", np.array([[1.0, 1.0], [0.0, 1.0]]))
    code, _, err = cli("vec", mpath, "--basis-h1", bad)
    assert code == 2
    assert "unitary" in err


def test_basis_file_rule_holds_at_its_edge(cli, tmp_path):
    # U = [[1, t], [0, 1]] has unitary defect t bit for bit (1 + t^2 rounds to 1).
    mpath = write_matrix(tmp_path / "m.json", np.eye(2))
    edge = 1e-8
    for t, code in ((edge, 0), (np.nextafter(edge, 1), 2)):
        upath = write_matrix(tmp_path / "u.json", np.array([[1, t], [0, 1]]))
        assert cli("vec", mpath, "--basis-h1", upath)[0] == code


def test_vec_rejects_a_basis_of_the_wrong_size(cli, tmp_path):
    mpath = write_matrix(tmp_path / "m.json", np.ones((2, 4)))  # d1 = 4 columns
    small = write_matrix(tmp_path / "small.json", np.eye(2))
    code, out, err = cli("vec", mpath, "--basis-h1", small)
    assert (code, out) == (3, "")
    assert err == f"error: basis file {small}: shape (2, 2), expected (4, 4)\n"


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


# One bad entry, the last of a 64 x 64 MatrixFile, and the line each must print.
LAST_ENTRY_FAULTS = {
    "true": ("true", "entry (63,63) must be a [re, im] pair of numbers"),
    "string": ('"x"', "entry (63,63) must be a [re, im] pair of numbers"),
    "short-pair": ("[1]", "entry (63,63) must be a [re, im] pair of numbers"),
    "nested-pair": ("[[1, 0]]", "entry (63,63) must be a [re, im] pair of numbers"),
    # np.array reads [1.5, true] as [1.5, 1.0]; the file must still be refused.
    "bool-part": ("[1.5, true]", "entry (63,63) must be a [re, im] pair of numbers"),
    "null-part": ("[0, null]", "entry (63,63) must be a [re, im] pair of numbers"),
    "huge-int": ("[1" + "0" * 400 + ", 0]", "an integer entry is too large for a double"),
    "inf": ("[1e999, 0]", "entry (63,63) is not finite"),
}


@pytest.mark.parametrize("name", sorted(LAST_ENTRY_FAULTS))
def test_last_entry_fault_of_a_64x64_file_exits_2_with_its_line(cli, tmp_path, name):
    entry, message = LAST_ENTRY_FAULTS[name]
    path = tmp_path / "fault.json"
    text = Path(write_matrix(path, np.ones((64, 64)))).read_text()
    assert text.endswith("[1.0, 0.0]]]}")
    path.write_text(text[: -len("[1.0, 0.0]]]}")] + entry + "]]}")
    assert cli("vec", str(path)) == (2, "", f"error: {message}\n")


# A valid file whose entries are near the double limit: the products each
# command forms overflow, and it must refuse with one line, not print inf or nan.
# schmidt forms no product of entries, so its vector has a Schmidt coefficient
# (sqrt(2) * 1.5e308) beyond the double range.  The products of FLAT stay
# finite, but the largest eigenvalue of the Choi matrix of 4 or 3 such
# blocks, the squared largest singular value of the stack, is about 3e308.
NEAR_LIMIT = np.array([[1e300, 0], [0, 1]])
FLAT = np.full((2, 2), 4.47e153)
OVERFLOW_CALLS = {
    "compose": ("compose", "{ch}"),
    "choi": ("choi", "{ch}"),
    "check-cp": ("check", "--cp", "{ch}"),
    "check-cp-rank-4": ("check", "--cp", "{flat4}"),
    "check-cp-rank-3": ("check", "--cp", "{flat3}"),
    "check-tp": ("check", "--tp", "{ch}"),
    "vec-basis-h1": ("vec", "{eye}", "--basis-h1", "{big}"),
    "schmidt": ("schmidt", "{wide}", "--d1", "2", "--d2", "2"),
}


def near_limit_files(tmp_path):
    return {
        "ch": write_channel(tmp_path / "ch.json", [NEAR_LIMIT]),
        "flat4": write_channel(tmp_path / "flat4.json", [FLAT] * 4),
        "flat3": write_channel(tmp_path / "flat3.json", [FLAT] * 3),
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


def test_choi_bitflip_psd_trace_two(cli, tmp_path):
    path = write_channel(tmp_path / "x.json", [X])
    code, out, _ = cli("choi", path)
    assert code == 0
    got = parse_matrix(out)
    assert abs(np.trace(got) - 2) < 1e-12
    assert np.linalg.eigvalsh((got + got.conj().T) / 2).min() > -1e-12


def test_check_golden_stdout(cli, tmp_path):
    ident = write_channel(tmp_path / "id.json", [np.eye(2)])
    assert cli("check", ident, "--cp", "--tp")[:2] == (
        0,
        "cp: PASS (min eigenvalue = 0, threshold = -2.0000000000000006e-10)\n"
        "tp: PASS (deviation = 0, threshold = 2.0000000000000001e-10)\n",
    )
    big = write_channel(tmp_path / "big.json", [2 * np.eye(2)])
    assert cli("check", big, "--cp", "--tp")[:2] == (
        1,
        "cp: PASS (min eigenvalue = 0, threshold = -8.0000000000000024e-10)\n"
        "tp: FAIL (deviation = 3, threshold = 2.0000000000000001e-10)\n",
    )


def test_check_cp_of_low_rank_channel_prints_structural_zero(cli, tmp_path):
    # k < d^2: the Choi matrix V V* has a null space, so its least eigenvalue
    # is 0.  Only the stacked blocks are read, so d runs up to MAX_DIM.  The
    # threshold is -1e-10 times the largest eigenvalue, s_1^2 of the stack.
    from hsdual.selftest import random_tp_kraus

    for d, k in ((4, 2), (64, 1)):
        ms = random_tp_kraus(d, k, np.random.default_rng(6))
        path = write_channel(tmp_path / f"c{d}.json", ms)
        s1 = np.linalg.svd(ms.reshape(k, d * d), compute_uv=False)[0]
        threshold = fmt_number(-1e-10 * (s1 * s1), 17)
        assert cli("check", path, "--cp")[:2] == (0, f"cp: PASS (min eigenvalue = 0, threshold = {threshold})\n")


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


def test_selftest_names_what_each_value_is(cli):
    # Every property reports its worst deviation, held from above; the CP
    # block property's is -lambda_min / ||H||_2, negative when it passes.
    code, out, _ = cli("selftest", "--seed", "0")
    line = re.compile(r"[a-z]+\.[a-z-]+: PASS \(max deviation = -?\d\.\d{3}e[+-]\d\d, threshold = \d\.\de[+-]\d\d\)")
    assert code == 0 and [x for x in out.splitlines() if not line.fullmatch(x)] == []
    assert "superop.complete-positivity-block-psd: PASS (max deviation = -" in out
    assert len(out.splitlines()) == sum(map(len, SUITES.values()))


def test_every_traced_cli_name_is_an_attribute_of_the_cli(monkeypatch):
    # hsbench/tracing.py wraps each CLI_SPANS key with getattr on hsdual.cli,
    # so a name dropped from cli.py would crash every traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "hsbench"))
    tracing = importlib.import_module("tracing")
    assert [name for name in tracing.CLI_SPANS if not hasattr(hsdual.cli, name)] == []


@pytest.mark.parametrize("suite", ["nonsense", "bench-sanity"])
def test_selftest_unknown_suite_exits_2(cli, suite):
    code, _, err = cli("selftest", "--suite", suite)
    assert code == 2
    assert "usage" in err
    choices = ", ".join(map(repr, ["all", *sorted(SUITES)]))
    assert err.splitlines()[-1].endswith(f"argument --suite: invalid choice: '{suite}' (choose from {choices})")


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


def test_max_dim_guard(cli, tmp_path):
    # The per-factor limit of the operator commands is the constant MAX_DIM.
    mat = write_matrix(tmp_path / "m65.json", np.eye(65))
    vec = write_matrix(tmp_path / "v65.json", np.zeros(65))
    ch = write_channel(tmp_path / "c65.json", [np.eye(65)])
    dims = ("--d1", "65", "--d2", "1")
    for argv in (("vec", mat), ("devec", vec, *dims), ("schmidt", vec, *dims), ("check", "--tp", ch)):
        assert cli(*argv) == (3, "", "error: dimension 65 exceeds limit 64\n")


def test_superoperator_commands_at_d65_are_capped_by_entries_alone(cli, tmp_path):
    # choi and compose have one limit, the d^4 entry cap of the array they build.
    ch = write_channel(tmp_path / "d65.json", [np.eye(65)])
    for argv, what in ((("choi", ch), "Choi matrix"), (("compose", ch, ch), "R-matrix")):
        assert cli(*argv) == (3, "", f"error: {what} would have 17850625 entries (max 1048576)\n")


def test_bench_dim_0_is_a_dimension_error(cli):
    assert cli("bench", "--dim", "0", "--trials", "1") == (3, "", "error: dimensions must be positive\n")


def test_bench_trials_0_exits_2_naming_the_function(cli):
    assert cli("bench", "--trials", "0") == (2, "", "error: run_bench: trials must be positive\n")


def test_negative_digits_exits_2(cli, tmp_path):
    path = write_matrix(tmp_path / "m.json", np.eye(2))
    ch = write_channel(tmp_path / "id.json", [np.eye(2)])
    for argv in (("vec", path), ("check", ch), ("choi", ch)):
        code, out, err = cli(*argv, "--digits", "-1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--digits" in err
    assert cli("vec", path, "--digits", "0")[0] == 0


@pytest.mark.parametrize("command", ["selftest", "bench"])
def test_negative_seed_exits_2_naming_the_flag(cli, command):
    code, out, err = cli(command, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be a non-negative integer, got -1\n")


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
    for argv in (("compose", ch), ("compose", ch, ch), ("choi", ch)):
        code, out, err = cli(*argv)
        assert code == 3 and out == ""
        assert "would have 1185921 entries" in err
    # No superoperator is built: the CP test of k = 1 < d^2 blocks reads the
    # one singular value of the 1 x d^2 block stack.
    assert cli("check", ch, "--tp")[:2] == (0, "tp: PASS (deviation = 0, threshold = 2.0000000000000001e-10)\n")
    assert cli("check", ch, "--cp")[:2] == (0, "cp: PASS (min eigenvalue = 0, threshold = -3.300000000000001e-09)\n")


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
