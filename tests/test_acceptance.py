"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criteria 01-12 and 14-19 run every property of the catalogue in
hsdual.selftest, which owns their bounds, at larger sizes than selftest and at
several seeds.
"""

import numpy as np

from conftest import write_channel, write_matrix

from hsdual import selftest as catalogue
from hsdual.io import parse_matrix

X = np.array([[0, 1], [1, 0]], dtype=complex)

SEEDS = range(3)


def holds(n, *props):
    """Each property passes at every seed in SEEDS, run at size n."""
    for prop in props:
        for seed in SEEDS:
            v = prop(np.random.default_rng(seed), n)
            assert v.passed, f"{prop.__name__} at seed {seed}: {v}"


def report(num, name):
    print(f"criterion {num:02d} ({name}): PASS")


def test_criterion_01_02_isometry_and_inverse_pair():
    holds(200, catalogue.isometry_of_vectorization, catalogue.vec_devec_inverse_pair)
    report(1, "isometry of vectorization")
    report(2, "inverse pair")


def test_criterion_03_conjugation_laws():
    holds(25, catalogue.conjugation_involution_and_antiunitarity)
    report(3, "conjugation laws")


def test_criterion_04_alternative_vectorization():
    holds(
        34,
        catalogue.alternative_vectorization,
        catalogue.operator_reconstruction_from_coefficients,
        catalogue.basis_change_via_conjugation,
    )
    report(4, "alternative vectorization agreements")


def test_criterion_05_slice_identities():
    holds(34, catalogue.slice_operators_and_alternative_devec)
    report(5, "slice identities and devec cross-oracle")


def test_criterion_06_cstar_isomorphism():
    holds(
        25,
        catalogue.lift_multiplicativity,
        catalogue.lift_adjoint_preservation,
        catalogue.lift_norm_preservation,
        catalogue.lift_unit_preservation,
        catalogue.lift_lower_round_trip,
    )
    report(6, "C*-isomorphism suite")


def test_criterion_07_hs_preservation():
    holds(50, catalogue.lift_hs_inner_preservation)
    report(7, "Hilbert-Schmidt structure preservation")


def test_criterion_08_complete_positivity():
    holds(25, catalogue.complete_positivity_block_psd)
    report(8, "complete positivity block form")


def test_criterion_09_choi_behavior():
    holds(
        50,
        catalogue.choi_of_identity_corner_ones,
        catalogue.choi_hs_isometry,
        catalogue.choi_non_multiplicative_exhibit,
        catalogue.choi_of_transpose_min_eigenvalue,
        catalogue.choi_positivity_of_kraus_channels,
    )
    report(9, "Choi behavior")


def test_criterion_10_kraus_dual_construction():
    holds(50, catalogue.kraus_to_lift_dual_construction)
    holds(3, catalogue.closed_form_trace_preservation)
    report(10, "Kraus-to-lift dual construction")


def test_criterion_11_schmidt_suite():
    holds(
        34,
        catalogue.schmidt_reconstruction,
        catalogue.schmidt_rank_dichotomy,
        catalogue.schmidt_bell_lambdas,
        catalogue.schmidt_unitary_invariance,
    )
    report(11, "Schmidt suite, graded spectra included")


def test_criterion_12_composition_oracle():
    holds(10, catalogue.chain_composition_oracle)
    report(12, "composition oracle")


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
    code, choi_out, _ = cli("choi", ch)
    assert code == 0
    got = parse_matrix(choi_out)
    corner = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        corner[i, j] = 1
    assert np.array_equal(got, corner)
    code, choi_norm, _ = cli("choi", ch, "--normalize")
    assert code == 0
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
    assert np.abs(parse_matrix(out) - np.eye(4)).max() < 1e-12
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


def test_criterion_14_finite_sections():
    holds(
        5,
        catalogue.section_consistency,
        catalogue.section_products,
        catalogue.section_strong_products,
        catalogue.section_norms_exhibit,
    )
    report(14, "finite sections of the infinite-dimensional lift")


def test_criterion_15_vectorization_at_the_cli_limit():
    holds(3, catalogue.vectorization_at_the_cli_limit)
    report(15, "vectorization at the CLI limit")


def test_criterion_16_exact_scale_covariance():
    holds(2, catalogue.exact_scale_covariance)
    report(16, "exact scale covariance")


def test_criterion_17_schmidt_rank_at_its_cutoff():
    holds(5, catalogue.schmidt_rank_at_its_cutoff)
    report(17, "Schmidt rank at its cutoff")


def test_criterion_18_verdicts_under_exact_scaling():
    holds(100, catalogue.verdicts_under_exact_scaling)
    report(18, "PSD verdicts under exact scaling")


def test_criterion_19_snapped_basis_perturbation():
    holds(3, catalogue.snapped_basis_perturbation)
    report(19, "basis changes under a perturbed and snapped basis")
