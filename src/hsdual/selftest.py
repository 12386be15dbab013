"""Executable property suites behind the ``selftest`` CLI subcommand.

Every property measures a worst-case numerical deviation over seeded random
instances and holds it to a fixed threshold (``Verdict.at_most``).  Each suite
returns its verdicts by property name.  Runs are deterministic for a given
seed.
"""

from __future__ import annotations

import numpy as np

from . import bench as bench_mod
from .linalg import (
    Verdict,
    adjoint,
    complex_gaussian,
    hs_inner,
    inner,
    kron,
    min_eigenvalue,
    operator_norm,
    psd_check,
    random_unitary_from,
)
from .superop import HSMap, check_cp, choi_map, kraus_to_r_kron, lower_s, random_tp_kraus
from .vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    partial_slice,
    partial_slice_adjoint,
    vec_j,
)
from .entangle import schmidt, schmidt_rank
from .paper import choi_of_map, devec_via_slices, kraus_to_r, lift_r, vec_t


def _random_pair(d1: int, d2: int, rng) -> BasisPair:
    return BasisPair(Basis(random_unitary_from(d1, rng)), Basis(random_unitary_from(d2, rng)))


def suite_vectorize(seed: int) -> dict[str, Verdict]:
    rng = np.random.default_rng(seed)
    out = {}

    dev_iso = dev_inv = 0.0
    for d1, d2 in [(2, 2), (3, 2), (4, 4), (8, 8)]:
        bases = _random_pair(d1, d2, rng)
        for _ in range(20):
            a = complex_gaussian(d2, d1, rng)
            b = complex_gaussian(d2, d1, rng)
            lhs = inner(vec_j(a, bases), vec_j(b, bases))
            rhs = hs_inner(a, b)
            dev_iso = max(dev_iso, abs(lhs - rhs) / (1 + abs(rhs)))
            dev_inv = max(dev_inv, np.abs(devec_jstar(vec_j(a, bases), bases) - a).max())
            alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
            dev_inv = max(dev_inv, np.abs(vec_j(devec_jstar(alpha, bases), bases) - alpha).max())
    out["isometry-of-vectorization"] = Verdict.at_most(dev_iso, 1e-10)
    out["vec-devec-inverse-pair"] = Verdict.at_most(dev_inv, 1e-12)

    dev_k = 0.0
    for d in (2, 5, 8):
        b = Basis(random_unitary_from(d, rng))
        for _ in range(10):
            phi = complex_gaussian(d, 1, rng)[:, 0]
            psi = complex_gaussian(d, 1, rng)[:, 0]
            dev_k = max(dev_k, np.abs(conjugate_in_basis(b, conjugate_in_basis(b, phi)) - phi).max())
            dev_k = max(
                dev_k,
                abs(inner(conjugate_in_basis(b, phi), conjugate_in_basis(b, psi)) - inner(psi, phi)),
            )
        u = random_unitary_from(d, rng)
        kcols = np.column_stack([conjugate_in_basis(b, u[:, i]) for i in range(d)])
        dev_k = max(dev_k, np.abs(kcols.conj().T @ kcols - np.eye(d)).max())
    out["conjugation-involution-and-antiunitarity"] = Verdict.at_most(dev_k, 1e-12)

    dev_rec = 0.0
    for _ in range(10):
        d1, d2 = 4, 3
        bases = _random_pair(d1, d2, rng)
        a = complex_gaussian(d2, d1, rng)
        rebuilt = np.zeros_like(a)
        for i in range(d2):
            for j in range(d1):
                coeff = inner(bases.b2.column(i), a @ bases.b1.column(j))
                rebuilt += coeff * np.outer(bases.b2.column(i), np.conj(bases.b1.column(j)))
        dev_rec = max(dev_rec, np.abs(rebuilt - a).max())
    out["operator-reconstruction-from-coefficients"] = Verdict.at_most(dev_rec, 1e-12)

    dev_bc = 0.0
    for _ in range(10):
        d1, d2 = 3, 2
        bases = _random_pair(d1, d2, rng)
        primed = _random_pair(d1, d2, rng)
        a = complex_gaussian(d2, d1, rng)
        direct = vec_j(a, primed)
        total = np.zeros(d1 * d2, dtype=complex)
        for i in range(d2):
            for j in range(d1):
                coeff = inner(bases.b2.column(i), a @ bases.b1.column(j))
                total += coeff * np.kron(
                    conjugate_in_basis(primed.b1, bases.b1.column(j)), bases.b2.column(i)
                )
        dev_bc = max(dev_bc, np.abs(direct - total).max())
    out["basis-change-via-conjugation"] = Verdict.at_most(dev_bc, 1e-10)

    dev_sl = 0.0
    for _ in range(10):
        d1, d2 = 3, 2
        bases = _random_pair(d1, d2, rng)
        phi = complex_gaussian(d1, 1, rng)[:, 0]
        psi = complex_gaussian(d2, 1, rng)[:, 0]
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        beta = complex_gaussian(d2, 1, rng)[:, 0]
        for i in range(d1):
            lhs = partial_slice(i, np.kron(phi, psi), bases)
            dev_sl = max(dev_sl, np.abs(lhs - inner(bases.b1.column(i), phi) * psi).max())
            dev_sl = max(
                dev_sl,
                abs(
                    inner(partial_slice(i, alpha, bases), beta)
                    - inner(alpha, partial_slice_adjoint(i, beta, bases))
                ),
            )
        resum = sum(
            np.kron(bases.b1.column(i), partial_slice(i, alpha, bases)) for i in range(d1)
        )
        dev_sl = max(dev_sl, np.abs(resum - alpha).max())
        dev_sl = max(dev_sl, np.abs(devec_via_slices(alpha, bases) - devec_jstar(alpha, bases)).max())
        a = complex_gaussian(d2, d1, rng)
        dev_sl = max(dev_sl, np.abs(vec_t(a, bases.b1) - vec_j(a, BasisPair(bases.b1, Basis.standard(d2))) ).max())
    out["slice-operators-and-alternative-devec"] = Verdict.at_most(dev_sl, 1e-12)
    return out


def suite_superop(seed: int) -> dict[str, Verdict]:
    rng = np.random.default_rng(seed)
    out = {}

    dev_mult = dev_adj = dev_norm = dev_unit = dev_rt = 0.0
    for d in (2, 3):
        bases = _random_pair(d, d, rng)
        n = d * d
        for _ in range(15):
            m1 = complex_gaussian(n, n, rng)
            m2 = complex_gaussian(n, n, rng)
            b1 = HSMap.from_matrix(m1, d, d)
            b2 = HSMap.from_matrix(m2, d, d)
            b12 = HSMap.from_matrix(m1 @ m2, d, d)
            r1 = lift_r(b1, bases)
            r2 = lift_r(b2, bases)
            dev_mult = max(dev_mult, np.abs(lift_r(b12, bases) - r1 @ r2).max())
            dev_adj = max(dev_adj, np.abs(lift_r(HSMap.from_matrix(adjoint(m1), d, d), bases) - adjoint(r1)).max())
            dev_norm = max(dev_norm, abs(operator_norm(r1) - operator_norm(m1)))
            low = lower_s(r1, bases)
            probe = complex_gaussian(d, d, rng)
            dev_rt = max(dev_rt, np.abs(low(probe) - b1(probe)).max())
        dev_unit = max(dev_unit, np.abs(lift_r(HSMap.identity(d, d), bases) - np.eye(n)).max())
    out["lift-multiplicativity"] = Verdict.at_most(dev_mult, 1e-8)
    out["lift-adjoint-preservation"] = Verdict.at_most(dev_adj, 1e-8)
    out["lift-norm-preservation"] = Verdict.at_most(dev_norm, 1e-8)
    out["lift-unit-preservation"] = Verdict.at_most(dev_unit, 1e-12)
    out["lift-lower-round-trip"] = Verdict.at_most(dev_rt, 1e-12)

    dev_hs = 0.0
    for _ in range(20):
        d = 2
        bases = _random_pair(d, d, rng)
        m1 = complex_gaussian(4, 4, rng)
        m2 = complex_gaussian(4, 4, rng)
        lhs = hs_inner(lift_r(HSMap.from_matrix(m1, d, d), bases), lift_r(HSMap.from_matrix(m2, d, d), bases))
        rhs = hs_inner(m1, m2)
        dev_hs = max(dev_hs, abs(lhs - rhs) / (1 + abs(rhs)))
    out["lift-hs-inner-preservation"] = Verdict.at_most(dev_hs, 1e-10)

    dev_cp = 0.0
    for _ in range(10):
        d = 2
        bases = _random_pair(d, d, rng)
        k = int(rng.integers(1, 4))
        amats = [complex_gaussian(4, 4, rng) for _ in range(k)]
        bops = [complex_gaussian(4, 4, rng) for _ in range(k)]
        n = 4
        block = np.zeros((n, n), dtype=complex)
        for i in range(k):
            for j in range(k):
                r_ij = lift_r(HSMap.from_matrix(adjoint(amats[i]) @ amats[j], d, d), bases)
                block += adjoint(bops[i]) @ r_ij @ bops[j]
        dev_cp = max(dev_cp, max(0.0, -min_eigenvalue(block) / (1 + operator_norm(block))))
    out["complete-positivity-block-psd"] = Verdict.at_most(dev_cp, 1e-10)

    dev_kr = 0.0
    for _ in range(15):
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 5))
        ms = random_tp_kraus(d, rank, rng)
        basis = Basis.standard(d)
        r_probe = lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))
        r_alpha = kraus_to_r(ms, basis)
        r_kron = kraus_to_r_kron(ms)
        dev_kr = max(dev_kr, np.abs(r_probe - r_alpha).max())
        dev_kr = max(dev_kr, np.abs(r_probe - r_kron).max())
        dev_kr = max(dev_kr, np.abs(r_alpha - r_kron).max())
    out["kraus-to-lift-dual-construction"] = Verdict.at_most(dev_kr, 1e-10)

    dev_closed = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 6))
        ms = random_tp_kraus(d, int(rng.integers(1, 6)), rng)
        basis = Basis(random_unitary_from(d, rng))
        dev_closed = max(dev_closed, np.abs(kraus_to_r_kron(ms, basis) - kraus_to_r(ms, basis)).max())
    out["kraus-to-r-closed-form-random-basis"] = Verdict.at_most(dev_closed, 1e-10)
    return out


def suite_choi(seed: int) -> dict[str, Verdict]:
    rng = np.random.default_rng(seed)
    out = {}
    basis = Basis.standard(2)

    corner = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        corner[i, j] = 1
    c_id = choi_of_map(HSMap.identity(2, 2), basis)
    out["choi-of-identity-corner-ones"] = Verdict.at_most(float(np.abs(c_id - corner).max()), 0.0)

    dev_iso = 0.0
    for _ in range(20):
        m1 = complex_gaussian(4, 4, rng)
        m2 = complex_gaussian(4, 4, rng)
        lhs = hs_inner(choi_of_map(HSMap.from_matrix(m1, 2, 2), basis), choi_of_map(HSMap.from_matrix(m2, 2, 2), basis))
        rhs = hs_inner(m1, m2)
        dev_iso = max(dev_iso, abs(lhs - rhs) / (1 + abs(rhs)))
    out["choi-hs-isometry"] = Verdict.at_most(dev_iso, 1e-10)

    # Non-multiplicativity exhibit: the identity map composed with itself.
    sep = float(operator_norm(c_id - c_id @ c_id))
    out["choi-non-multiplicative-exhibit"] = Verdict.at_most(0.0 if sep >= 0.1 else 1.0, 0.5)

    transpose_map = HSMap(2, 2, lambda a: a.T.copy())
    dev_t = abs(min_eigenvalue(choi_of_map(transpose_map, basis)) + 1.0)
    out["choi-of-transpose-min-eigenvalue"] = Verdict.at_most(dev_t, 1e-10)

    # check_cp certifies a Kraus channel from its Gram matrix; psd_check of the
    # Choi matrix probed from the map is the oracle for verdict and threshold.
    dev_psd = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 4))
        ms = random_tp_kraus(d, int(rng.integers(1, 4)), rng)
        v = check_cp(ms, Basis.standard(d))
        oracle = psd_check(choi_of_map(HSMap.from_kraus(ms), Basis.standard(d)))
        dev_psd = max(
            dev_psd,
            -oracle.value,
            abs(v.threshold - oracle.threshold) / -oracle.threshold,
            0.0 if v.passed and oracle.passed else 1.0,
        )
    out["choi-positivity-of-kraus-channels"] = Verdict.at_most(dev_psd, 1e-10)

    dev_closed = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 6))
        ms = random_tp_kraus(d, int(rng.integers(1, 6)), rng)
        for b in (Basis.standard(d), Basis(random_unitary_from(d, rng))):
            probe = choi_of_map(HSMap.from_kraus(ms), b)
            dev_closed = max(dev_closed, np.abs(choi_map(ms, b) - probe).max())
    out["choi-closed-form-vs-probe"] = Verdict.at_most(dev_closed, 1e-10)
    return out


def suite_entangle(seed: int) -> dict[str, Verdict]:
    rng = np.random.default_rng(seed)
    out = {}

    dev_rec = dev_norm = 0.0
    for _ in range(25):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        bases = _random_pair(d1, d2, rng)
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        res = schmidt(alpha, bases)
        rebuilt = sum(
            res.lambdas[i] * np.kron(res.left[:, i], res.right[:, i])
            for i in range(res.lambdas.shape[0])
        )
        dev_rec = max(dev_rec, np.abs(rebuilt - alpha).max())
        dev_norm = max(dev_norm, abs(np.sum(res.lambdas**2) - np.linalg.norm(alpha) ** 2))
    out["schmidt-reconstruction"] = Verdict.at_most(dev_rec, 1e-10)
    out["schmidt-norm-identity"] = Verdict.at_most(dev_norm, 1e-10)

    dev_rank = 0.0
    for _ in range(10):
        phi = complex_gaussian(3, 1, rng)[:, 0]
        psi = complex_gaussian(4, 1, rng)[:, 0]
        if schmidt_rank(np.kron(phi, psi), 3, 4) != 1:
            dev_rank = 1.0
        generic = complex_gaussian(9, 1, rng)[:, 0]
        if schmidt_rank(generic, 3, 3) != 3:
            dev_rank = 1.0
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    dev_bell = float(
        np.abs(schmidt(bell, BasisPair.standard(2, 2)).lambdas - 1 / np.sqrt(2)).max()
    )
    out["schmidt-rank-dichotomy"] = Verdict.at_most(dev_rank, 0.5)
    out["schmidt-bell-lambdas"] = Verdict.at_most(dev_bell, 1e-12)

    dev_inv = 0.0
    for _ in range(10):
        d1, d2 = 3, 4
        alpha = complex_gaussian(d1 * d2, 1, rng)[:, 0]
        u = random_unitary_from(d1, rng)
        v = random_unitary_from(d2, rng)
        rotated = kron(u, v) @ alpha
        s0 = schmidt(alpha, BasisPair.standard(d1, d2)).lambdas
        s1 = schmidt(rotated, BasisPair.standard(d1, d2)).lambdas
        dev_inv = max(dev_inv, float(np.abs(np.sort(s0) - np.sort(s1)).max()))
    out["schmidt-unitary-invariance"] = Verdict.at_most(dev_inv, 1e-10)
    return out


def suite_bench_sanity(seed: int) -> dict[str, Verdict]:
    cfg = bench_mod.BenchConfig(dim=3, kraus_rank=2, chain_length=4, trials=3, seed=seed)
    report = bench_mod.run_bench(cfg)
    return {"bench-method-agreement": Verdict.at_most(report.max_deviation, 1e-8)}


SUITES = {
    "vectorize": suite_vectorize,
    "superop": suite_superop,
    "choi": suite_choi,
    "entangle": suite_entangle,
    "bench-sanity": suite_bench_sanity,
}


def run_suites(names: list[str], seed: int) -> list[tuple[str, str, Verdict]]:
    """(suite, property, verdict) for every property of the named suites, in order."""
    return [(suite, prop, v) for suite in names for prop, v in SUITES[suite](seed).items()]
