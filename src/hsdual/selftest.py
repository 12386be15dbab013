"""The property catalogue behind the ``selftest`` CLI subcommand and the
acceptance tests.

Each property of the paper's constructions is one function
``prop(rng, n) -> Verdict``: it draws ``n`` random instances from ``rng`` (for
each dimension it covers, where it covers several), measures the worst
deviation from the claim and holds it to the property's bound, which is
written here and nowhere else.  ``SUITES`` lists the properties by suite with
the size ``selftest`` runs them at; the acceptance tests call every one of
them at larger sizes and several seeds.  Each property draws from its
own generator, so a run is deterministic for a given seed and no property's
numbers depend on another's.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

import numpy as np

from .linalg import (
    TOL,
    Verdict,
    adjoint,
    complex_gaussian,
    hs_inner,
    inner,
    kron,
    nearest_unitary,
    operator_norm,
    psd_check,
    random_unitary,
)
from .superop import (
    HSMap,
    SuperOp,
    check_cp,
    choi_map,
    compose,
    kraus_apply,
    kraus_to_r_kron,
    lower_s,
    random_tp_kraus,
)
from .vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    partial_slice,
    partial_slice_adjoint,
    vec_j,
)
from .entangle import RANK_CUTOFF, schmidt, schmidt_rank
from .paper import choi_of_map, choi_of_vector, devec_via_slices, kraus_to_r, lift_r, vec_t


# Each suite's properties, in print order, with the size selftest runs each at.
SUITES: dict[str, list[tuple[Callable[..., Verdict], int]]] = {}


def register(suite: str, size: int, bound: float):
    """Add the decorated property to suite, where selftest runs it at size.

    The function yields deviations, and the property holds the worst of them
    to bound with ``Verdict.at_most`` (a NaN fails).
    """

    def wrap(fn):
        @functools.wraps(fn)
        def prop(rng, n: int) -> Verdict:
            return Verdict.at_most(float(np.max([*fn(rng, n)])), bound)

        SUITES.setdefault(suite, []).append((prop, size))
        return prop

    return wrap


def _random_pair(d1: int, d2: int, rng) -> BasisPair:
    return BasisPair(Basis(random_unitary(d1, rng)), Basis(random_unitary(d2, rng)))


def _vector(d: int, rng) -> np.ndarray:
    return complex_gaussian(d, 1, rng)[:, 0]


def _dist(x, y) -> float:
    """Largest entrywise distance."""
    return float(np.abs(x - y).max())


def _rel(x: complex, ref: complex) -> float:
    """Distance relative to 1 + |ref|."""
    return abs(x - ref) / (1 + abs(ref))


VEC_PAIRS = ((2, 2), (3, 2), (4, 4), (8, 8), (4, 3))  # (d1, d2)


@register("vectorize", 20, bound=1e-10)
def isometry_of_vectorization(rng, n):
    """<vec A, vec B> = <A, B>_HS."""
    for d1, d2 in VEC_PAIRS:
        bases = _random_pair(d1, d2, rng)
        for _ in range(n):
            a, b = complex_gaussian(d2, d1, rng), complex_gaussian(d2, d1, rng)
            yield _rel(inner(vec_j(a, bases), vec_j(b, bases)), hs_inner(a, b))


@register("vectorize", 20, bound=1e-12)
def vec_devec_inverse_pair(rng, n):
    """devec . vec = 1 on operators and vec . devec = 1 on vectors."""
    for d1, d2 in VEC_PAIRS:
        bases = _random_pair(d1, d2, rng)
        for _ in range(n):
            a, alpha = complex_gaussian(d2, d1, rng), _vector(d1 * d2, rng)
            yield _dist(devec_jstar(vec_j(a, bases), bases), a)
            yield _dist(vec_j(devec_jstar(alpha, bases), bases), alpha)


@register("vectorize", 10, bound=1e-12)
def conjugation_involution_and_antiunitarity(rng, n):
    """The conjugation K of a basis: K K = 1, K* = K, <K phi, K psi> = <psi, phi>,
    K(c phi) = conj(c) K phi, and K maps an orthonormal family to an
    orthonormal family."""
    for d in (2, 3, 5, 8):
        k = functools.partial(conjugate_in_basis, Basis(random_unitary(d, rng)))
        for _ in range(n):
            phi, psi = _vector(d, rng), _vector(d, rng)
            yield _dist(k(k(phi)), phi)
            yield abs(inner(k(psi), phi) - inner(k(phi), psi))
            yield abs(inner(k(phi), k(psi)) - inner(psi, phi))
            c = inner(psi, phi)
            yield _dist(k(c * phi), np.conj(c) * k(phi))
        kcols = np.column_stack([k(col) for col in random_unitary(d, rng).T])
        yield _dist(adjoint(kcols) @ kcols, np.eye(d))


@register("vectorize", 10, bound=1e-12)
def operator_reconstruction_from_coefficients(rng, n):
    """A = sum_ij <psi_i, A phi_j> |psi_i><phi_j| (d1, d2 = 4, 3)."""
    for _ in range(n):
        bases = _random_pair(4, 3, rng)
        a = complex_gaussian(3, 4, rng)
        rebuilt = sum(
            inner(psi, a @ phi) * np.outer(psi, phi.conj()) for psi in bases.b2.u.T for phi in bases.b1.u.T
        )
        yield _dist(rebuilt, a)


@register("vectorize", 10, bound=1e-10)
def basis_change_via_conjugation(rng, n):
    """vec A in primed bases = sum_ij <psi_i, A phi_j> K' phi_j (x) psi_i, K' the
    conjugation of the primed H1 basis (d1, d2 = 3, 2)."""
    for _ in range(n):
        bases, primed = _random_pair(3, 2, rng), _random_pair(3, 2, rng)
        a = complex_gaussian(2, 3, rng)
        total = sum(
            inner(psi, a @ phi) * np.kron(conjugate_in_basis(primed.b1, phi), psi)
            for psi in bases.b2.u.T
            for phi in bases.b1.u.T
        )
        yield _dist(vec_j(a, primed), total)


@register("vectorize", 10, bound=1e-12)
def slice_operators_and_alternative_devec(rng, n):
    """The slices P_i: P_i (phi (x) psi) = <phi_i, phi> psi, P_i* is the adjoint
    and P_i P_i* = 1, sum_i phi_i (x) P_i alpha = alpha, and devec through them
    is devec_jstar."""
    for d1, d2 in ((3, 2), (4, 3)):
        for _ in range(n):
            bases = _random_pair(d1, d2, rng)
            phi, psi, beta = _vector(d1, rng), _vector(d2, rng), _vector(d2, rng)
            alpha = _vector(d1 * d2, rng)
            slices = [partial_slice(i, alpha, bases) for i in range(d1)]
            for i, col in enumerate(bases.b1.u.T):
                yield _dist(partial_slice(i, np.kron(phi, psi), bases), inner(col, phi) * psi)
                lifted = partial_slice_adjoint(i, beta, bases)
                yield abs(inner(slices[i], beta) - inner(alpha, lifted))
                yield _dist(partial_slice(i, lifted, bases), beta)
            yield _dist(sum(np.kron(col, s) for col, s in zip(bases.b1.u.T, slices)), alpha)
            yield _dist(devec_via_slices(alpha, bases), devec_jstar(alpha, bases))


@register("vectorize", 10, bound=1e-12)
def alternative_vectorization(rng, n):
    """vec_t A = sum_j phi_j (x) A phi_j is vec_j A with the standard H2 basis
    and with a random one, and (I (x) A) applied to phi_plus."""
    for d1, d2 in VEC_PAIRS:
        b1 = Basis(random_unitary(d1, rng))
        b2 = Basis(random_unitary(d2, rng))
        for _ in range(n):
            a = complex_gaussian(d2, d1, rng)
            t = vec_t(a, b1)
            yield _dist(t, vec_j(a, BasisPair(b1, Basis.standard(d2))))
            yield _dist(t, vec_j(a, BasisPair(b1, b2)))
            yield _dist(t, choi_of_vector(a, b1))


CLI_LIMIT_PAIRS = ((64, 64), (64, 24), (40, 40))  # (d1, d2), up to the CLI's 64 per factor


@register("vectorize", 1, bound=1e-10)
def vectorization_at_the_cli_limit(rng, n):
    """At the CLI's sizes, in random bases: <vec A, vec B> = <A, B>_HS
    (relative), vec_j A = vec_t A, and sum_i phi_i (x) P_i alpha = alpha."""
    for d1, d2 in CLI_LIMIT_PAIRS:
        for _ in range(n):
            bases = _random_pair(d1, d2, rng)
            a, b = complex_gaussian(d2, d1, rng), complex_gaussian(d2, d1, rng)
            alpha = _vector(d1 * d2, rng)
            yield _rel(inner(vec_j(a, bases), vec_j(b, bases)), hs_inner(a, b))
            yield _dist(vec_j(a, bases), vec_t(a, bases.b1))
            slices = [partial_slice(i, alpha, bases) for i in range(d1)]
            yield _dist(sum(np.kron(col, s) for col, s in zip(bases.b1.u.T, slices)), alpha)


HARD_PAIRS = ((2, 3), (8, 8), (5, 7), (32, 32), (16, 64))  # (d1, d2), up to the kron cap


def _basis_changes(a, alpha, bases: BasisPair) -> list[np.ndarray]:
    """vec_j of a, devec_jstar of alpha and every partial_slice of alpha."""
    slices = [partial_slice(i, alpha, bases) for i in range(bases.d1)]
    return [vec_j(a, bases), devec_jstar(alpha, bases), *slices]


@register("vectorize", 1, bound=0.0)
def exact_scale_covariance(rng, n):
    """Scaling by a power of two commutes with each basis change and lift, bit
    for bit: vec_j, devec_jstar and every partial_slice of 2^k x are 2^k times
    those of x (k = +-500, random bases at HARD_PAIRS), and kraus_to_r_kron (a
    random basis) and choi_map of 2^k M are 2^2k times those of M (k = +-250,
    d = 2 ... 32).  Each result is scaled back, exactly, before comparing."""
    for d1, d2 in HARD_PAIRS:
        for _ in range(n):
            bases = _random_pair(d1, d2, rng)
            a, alpha = complex_gaussian(d2, d1, rng), _vector(d1 * d2, rng)
            ref = _basis_changes(a, alpha, bases)
            for s in (2.0**500, 2.0**-500):
                yield max(_dist(x / s, y) for x, y in zip(_basis_changes(s * a, s * alpha, bases), ref))
    for d in range(2, 33):
        for _ in range(n):
            ms = complex_gaussian(2 * d, d, rng).reshape(2, d, d)
            basis = Basis(random_unitary(d, rng))
            r, c = kraus_to_r_kron(ms, basis), choi_map(ms)
            for s in (2.0**250, 2.0**-250):
                yield _dist(kraus_to_r_kron(s * ms, basis) / s**2, r)
                yield _dist(choi_map(s * ms) / s**2, c)


@register("vectorize", 1, bound=2.001)
def snapped_basis_perturbation(rng, n):
    """A basis U perturbed by E = 1e-9 G, G complex Gaussian, and snapped to
    the polar factor V of U + E, as a basis file is, moves vec_j, devec_jstar
    and every partial_slice of a unit x by at most 2 ||E1||_F (VEC_PAIRS and
    (32, 32), both bases perturbed).  In exact arithmetic they depend on U1
    alone, through J1 = U1 U1^T and its columns, so they move by (2 + m) m
    for m = ||V1 - U1||_2, and m <= (1 + ||E1||_2) ||E1||_F by Li's polar
    factor bound.  Each deviation is over ||E1||_F, about 1e-9 d1; the bound's
    0.001 above 2 covers rounding, about n u over ||E1||_F."""
    for d1, d2 in (*VEC_PAIRS, (32, 32)):
        for _ in range(n):
            us = random_unitary(d1, rng), random_unitary(d2, rng)
            moves = 1e-9 * complex_gaussian(d1, d1, rng), 1e-9 * complex_gaussian(d2, d2, rng)
            snapped = BasisPair(*(Basis(nearest_unitary(u + e)) for u, e in zip(us, moves)))
            a, alpha = complex_gaussian(d2, d1, rng), _vector(d1 * d2, rng)
            a, alpha = a / np.linalg.norm(a), alpha / np.linalg.norm(alpha)
            ref = _basis_changes(a, alpha, BasisPair(*map(Basis, us)))
            yield max(map(_dist, _basis_changes(a, alpha, snapped), ref)) / np.linalg.norm(moves[0])


LIFT_PAIRS = ((2, 2), (3, 3), (3, 2))  # (d1, d2)


def _maps(rng, n):
    """(bases, m): n dense maps m on d2 x d1 operators per pair in LIFT_PAIRS,
    with one pair of random bases per pair."""
    for d1, d2 in LIFT_PAIRS:
        bases = _random_pair(d1, d2, rng)
        for _ in range(n):
            yield bases, complex_gaussian(d1 * d2, d1 * d2, rng)


def _lift(m, bases: BasisPair) -> np.ndarray:
    """lift_r of the map whose matrix on column-stacked operators is m."""
    return lift_r(lower_s(m, BasisPair.standard(bases.d1, bases.d2)), bases)


def _budget_channels(rng, n):
    """Random trace-preserving channels of rank 1 to 3: n each at d = 2, 5, 16,
    then one at d = 32, whose R-matrix has MAX_KRON_ENTRIES entries."""
    for d in [size for size in (2, 5, 16) for _ in range(n)] + [32]:
        yield random_tp_kraus(d, int(rng.integers(1, 4)), rng)


@register("superop", 15, bound=1e-10)
def lift_multiplicativity(rng, n):
    """R(B1 B2) = R(B1) R(B2), for dense maps through the probe `lift_r`, and
    for Kraus channels through `kraus_to_r_kron` up to MAX_KRON_ENTRIES.
    Choi's matrix does not keep products (`choi-non-multiplicative-exhibit`).
    The channel N first, then M has the Kraus stack {N_j M_i}."""
    for bases, m1 in _maps(rng, n):
        m2 = complex_gaussian(*m1.shape, rng)
        yield _dist(_lift(m1 @ m2, bases), _lift(m1, bases) @ _lift(m2, bases))
    for m in _budget_channels(rng, n):
        nn = random_tp_kraus(m.shape[1], int(rng.integers(1, 4)), rng)
        stack = (nn[:, None] @ m[None, :]).reshape(-1, *m.shape[1:])
        yield _dist(kraus_to_r_kron(stack), kraus_to_r_kron(m) @ kraus_to_r_kron(nn))


@register("superop", 15, bound=1e-10)
def lift_adjoint_preservation(rng, n):
    """R(B*) = R(B)*, for dense maps through the probe `lift_r`, and for Kraus
    channels, R({M_i*}) = R(M)*, through `kraus_to_r_kron` up to
    MAX_KRON_ENTRIES."""
    for bases, m in _maps(rng, n):
        yield _dist(_lift(adjoint(m), bases), adjoint(_lift(m, bases)))
    for m in _budget_channels(rng, n):
        yield _dist(kraus_to_r_kron(m.conj().transpose(0, 2, 1)), adjoint(kraus_to_r_kron(m)))


@register("superop", 15, bound=1e-10)
def lift_norm_preservation(rng, n):
    """||R(B)|| = ||B||."""
    for bases, m in _maps(rng, n):
        yield abs(operator_norm(_lift(m, bases)) - operator_norm(m))


@register("superop", 1, bound=1e-12)
def lift_unit_preservation(rng, n):
    """R(1) = 1, in the standard bases and n pairs of random bases per pair in
    LIFT_PAIRS."""
    for d1, d2 in LIFT_PAIRS:
        unit = HSMap.identity(d1, d2)
        yield _dist(lift_r(unit, BasisPair.standard(d1, d2)), np.eye(d1 * d2))
        for _ in range(n):
            yield _dist(lift_r(unit, _random_pair(d1, d2, rng)), np.eye(d1 * d2))


@register("superop", 15, bound=1e-12)
def lift_lower_round_trip(rng, n):
    """lower_s(R(B)) acts as B, and R(lower_s(r)) = r."""
    for bases, m in _maps(rng, n):
        r = _lift(m, bases)
        low = lower_s(r, bases)
        probe = complex_gaussian(bases.d2, bases.d1, rng)
        yield _dist(low(probe), lower_s(m, BasisPair.standard(bases.d1, bases.d2))(probe))
        yield _dist(lift_r(low, bases), r)


@register("superop", 20, bound=1e-10)
def lift_hs_inner_preservation(rng, n):
    """<R(B1), R(B2)>_HS = <B1, B2>_HS, and so <R(B), R(B)>_HS = <B, B>_HS."""
    for bases, m1 in _maps(rng, n):
        m2 = complex_gaussian(*m1.shape, rng)
        r1 = _lift(m1, bases)
        yield _rel(hs_inner(r1, _lift(m2, bases)), hs_inner(m1, m2))
        yield _rel(hs_inner(r1, r1), hs_inner(m1, m1))


def _cp_blocks(rng, n):
    """n blocks sum_ij B_i* R(A_i* A_j) B_j, each of one to three terms for
    Gaussian A_i, B_i on 2 x 2 operators, lifted in a random pair of bases."""
    for _ in range(n):
        bases = _random_pair(2, 2, rng)
        k = int(rng.integers(1, 4))
        amats = [complex_gaussian(4, 4, rng) for _ in range(k)]
        bops = [complex_gaussian(4, 4, rng) for _ in range(k)]
        yield sum(
            adjoint(bops[i]) @ _lift(adjoint(amats[i]) @ amats[j], bases) @ bops[j]
            for i in range(k)
            for j in range(k)
        )


def _psd_deviation(h) -> float:
    """-lambda_min / ||H||_2 of h's Hermitian part H when psd_check passes h, 0
    for a zero matrix, inf when psd_check refuses h: at most TOL exactly when
    psd_check passes, since TOL * (least / threshold) is TOL at the edge."""
    v = psd_check(h)
    if not v.passed:
        return np.inf
    return TOL * (v.value / v.threshold) if v.threshold else 0.0


@register("superop", 10, bound=TOL)
def complete_positivity_block_psd(rng, n):
    """sum_ij B_i* R(A_i* A_j) B_j is PSD, by psd_check of each block."""
    for block in _cp_blocks(rng, n):
        yield _psd_deviation(block)


@register("superop", 15, bound=1e-10)
def kraus_to_lift_dual_construction(rng, n):
    """The paper's kraus_to_r, the probe lift_r and the closed form
    kraus_to_r_kron give one R-matrix (d and rank 1 ... 5), in the standard
    basis on the first draw and in a random basis on the others."""
    for i in range(n):
        d = int(rng.integers(1, 6))
        ms = random_tp_kraus(d, int(rng.integers(1, 6)), rng)
        basis = Basis(random_unitary(d, rng)) if i else Basis.standard(d)
        r_probe = lift_r(HSMap.from_kraus(ms), BasisPair(basis, basis))
        r_alpha = kraus_to_r(ms, basis)
        r_kron = kraus_to_r_kron(ms, basis)
        yield max(_dist(r_probe, r_alpha), _dist(r_probe, r_kron), _dist(r_alpha, r_kron))


@register("superop", 4, bound=1e-10)
def chain_composition_oracle(rng, n):
    """A chain of n channels (d = 3 of rank 2, d = 4 of rank 3), composed into
    one R-matrix, acts on ten states as the nested Kraus sums do."""
    for d, rank in ((3, 2), (4, 3)):
        basis = Basis.standard(d)
        chain = [random_tp_kraus(d, rank, rng) for _ in range(n)]
        total = SuperOp(np.eye(d * d, dtype=complex), BasisPair(basis, basis))
        for ms in chain:
            total = compose(SuperOp.from_kraus(ms, basis), total)
        for _ in range(10):
            state = nested = complex_gaussian(d, d, rng)
            for ms in chain:
                nested = kraus_apply(ms, nested)
            yield _dist(total.as_hsmap()(state), nested)


@register("superop", 1, bound=1e-10)
def closed_form_trace_preservation(rng, n):
    """vec(I)* R = vec(S)*, S = sum_i M_i M_i*, as tr B(A) = tr(A S); so
    vec(I)* R = vec(I)* for a trace-preserving channel.  S is measured, not
    taken to be I, so the property holds R alone to the bound, whatever the
    rounding of the draw."""
    for m in _budget_channels(rng, n):
        std = BasisPair.standard(m.shape[1], m.shape[1])
        s = (m @ m.conj().transpose(0, 2, 1)).sum(axis=0)
        yield _dist(vec_j(np.eye(m.shape[1]), std).conj() @ kraus_to_r_kron(m), vec_j(s, std).conj())


def _choi_2(b: HSMap) -> np.ndarray:
    return choi_of_map(b, Basis.standard(2))


@register("choi", 1, bound=0.0)
def choi_of_identity_corner_ones(rng, n):
    """Choi's matrix of the identity map on 2 x 2 operators is 1 at its four
    corners and 0 elsewhere, exactly."""
    corner = np.zeros((4, 4))
    corner[np.ix_((0, 3), (0, 3))] = 1
    yield _dist(_choi_2(HSMap.identity(2, 2)), corner)


@register("choi", 20, bound=1e-10)
def choi_hs_isometry(rng, n):
    """<C(B1), C(B2)>_HS = <B1, B2>_HS (d = 2)."""
    standard = BasisPair.standard(2, 2)
    for _ in range(n):
        m1, m2 = complex_gaussian(4, 4, rng), complex_gaussian(4, 4, rng)
        lhs = hs_inner(_choi_2(lower_s(m1, standard)), _choi_2(lower_s(m2, standard)))
        yield _rel(lhs, hs_inner(m1, m2))


@register("choi", 1, bound=0.5)
def choi_non_multiplicative_exhibit(rng, n):
    """Choi's matrix is not multiplicative: C(1) C(1) is at least 0.1 from C(1)
    (deviation 0 when it is, 1 when not)."""
    c_id = _choi_2(HSMap.identity(2, 2))
    yield 0.0 if operator_norm(c_id - c_id @ c_id) >= 0.1 else 1.0


@register("choi", 1, bound=1e-10)
def choi_of_transpose_min_eigenvalue(rng, n):
    """Choi's matrix of the 2 x 2 transpose has least eigenvalue -1, as
    psd_check measures it."""
    yield abs(psd_check(_choi_2(HSMap(2, 2, lambda a: a.T.copy()))).value + 1.0)


def _cp_channels(rng, n):
    """n random trace-preserving channels at d = 1 ... 5 of every rank 1 to
    d^2 + 1; one at d = 3, k = 9 whose blocks after the first are scaled by
    1e-8, so that C's least eigenvalue sits far below rounding; and one graded
    channel, M_i = sqrt(p_i) U_i for Haar unitaries U_i and weights p_i
    proportional to 10^(-12 i / (k - 1)), at d = 2 ... 5 and k = 2, d^2 - 1,
    d^2 or d^2 + 2, whose C has eigenvalues down to 1e-12 ||C||_2."""
    for _ in range(n):
        d = int(rng.integers(1, 6))
        yield random_tp_kraus(d, int(rng.integers(1, d * d + 2)), rng)
    dominant = random_tp_kraus(3, 9, rng)
    dominant[1:] *= 1e-8
    yield dominant
    d = int(rng.integers(2, 6))
    k = int(rng.choice([2, d * d - 1, d * d, d * d + 2]))
    p = 10.0 ** (-12 * np.arange(k) / (k - 1))
    yield np.sqrt(p / p.sum())[:, None, None] * np.stack([random_unitary(d, rng) for _ in range(k)])


@register("choi", 20, bound=1e-10)
def choi_positivity_of_kraus_channels(rng, n):
    """check_cp certifies a Kraus channel from the singular values of its
    blocks; psd_check of the Choi matrix probed from the map is the oracle for
    verdict, threshold and least eigenvalue (relative to ||C||_2).  The closed
    form choi_map is that probed matrix."""
    for ms in _cp_channels(rng, n):
        v = check_cp(ms)
        c = choi_of_map(HSMap.from_kraus(ms), Basis.standard(ms.shape[1]))
        oracle = psd_check(c)
        yield -oracle.value
        yield abs(v.threshold - oracle.threshold) / -oracle.threshold
        yield abs(v.value - oracle.value) / operator_norm(c)
        yield 0.0 if v.passed and oracle.passed else 1.0
        yield _dist(choi_map(ms), c)


@register("choi", 20, bound=0.0)
def verdicts_under_exact_scaling(rng, n):
    """No PSD verdict changes when its input is scaled by a power of two:
    psd_check of 2^+-500 H is that of H, for Choi's matrix of the 2 x 2
    transpose map and of each channel the choi-positivity property draws
    (deviation 1 for each verdict that differs)."""
    transpose = _choi_2(HSMap(2, 2, lambda a: a.T.copy()))
    for h in (transpose, *map(choi_map, _cp_channels(rng, n))):
        for s in (2.0**500, 2.0**-500):
            yield float(psd_check(s * h).passed != psd_check(h).passed)


def _schmidt_pairs(rng, n):
    """(alpha, schmidt(alpha), None) for n random vectors, 2 <= d1, d2 <= 6,
    in random bases."""
    for _ in range(n):
        d1, d2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        bases = _random_pair(d1, d2, rng)
        alpha = _vector(d1 * d2, rng)
        yield alpha, schmidt(alpha, bases), None


def _graded_schmidt_pairs(rng, n):
    """(alpha, schmidt(alpha), lambda) for n vectors per shape in HARD_PAIRS,
    alpha = sum_i lambda_i x_i (x) y_i for orthonormal x_i and y_i and
    lambda_i = 10^(-12 i / (r - 1)), r = min(d1, d2), in random bases."""
    for d1, d2 in HARD_PAIRS:
        r = min(d1, d2)
        lam = 10.0 ** (-12 * np.arange(r) / (r - 1))
        for _ in range(n):
            bases = _random_pair(d1, d2, rng)
            x, y = random_unitary(d1, rng)[:, :r], random_unitary(d2, rng)[:, :r]
            alpha = ((x * lam) @ y.T).reshape(-1)
            yield alpha, schmidt(alpha, bases), lam


@register("entangle", 25, bound=1e-10)
def schmidt_reconstruction(rng, n):
    """alpha = sum_i lambda_i left_i (x) right_i, with orthonormal families
    left_i and right_i, and sum_i lambda_i^2 = ||alpha||^2: for Gaussian
    vectors, then for coefficients graded from 1 down to 1e-12 at HARD_PAIRS,
    which schmidt must also find."""
    for alpha, res, lam in itertools.chain(_schmidt_pairs(rng, n), _graded_schmidt_pairs(rng, n)):
        yield _dist(((res.left * res.lambdas) @ res.right.T).reshape(-1), alpha)
        for family in (res.left, res.right):
            yield _dist(adjoint(family) @ family, np.eye(family.shape[1]))
        yield abs(np.sum(res.lambdas**2) - np.linalg.norm(alpha) ** 2)
        if lam is not None:
            yield _dist(res.lambdas, lam)


@register("entangle", 10, bound=0.5)
def schmidt_rank_dichotomy(rng, n):
    """A product vector has Schmidt rank 1 and a generic 3 x 3 vector rank 3
    (deviation 1 if either fails)."""
    for _ in range(n):
        d1, d2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        yield float(schmidt_rank(np.kron(_vector(d1, rng), _vector(d2, rng)), d1, d2) != 1)
        yield float(schmidt_rank(_vector(9, rng), 3, 3) != 3)


@register("entangle", 1, bound=1e-12)
def schmidt_bell_lambdas(rng, n):
    """The Bell vector has both Schmidt coefficients 1/sqrt 2."""
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    yield _dist(schmidt(bell, BasisPair.standard(2, 2)).lambdas, 1 / np.sqrt(2))


@register("entangle", 10, bound=1e-10)
def schmidt_unitary_invariance(rng, n):
    """The Schmidt coefficients of (U (x) V) alpha are those of alpha (3 x 4)."""
    std = BasisPair.standard(3, 4)
    for _ in range(n):
        alpha = _vector(12, rng)
        rotated = kron(random_unitary(3, rng), random_unitary(4, rng)) @ alpha
        yield _dist(np.sort(schmidt(alpha, std).lambdas), np.sort(schmidt(rotated, std).lambdas))


@register("entangle", 1, bound=0.5)
def schmidt_rank_at_its_cutoff(rng, n):
    """alpha = sum_i lambda_i x_i (x) y_i, for orthonormal x_i and y_i and
    lambda = (1, 1/2, 4c, c/4) with c = RANK_CUTOFF ||lambda||, has rank 3 by
    schmidt in random bases and by schmidt_rank, at HARD_PAIRS but (2, 3) and
    at (4, 4) (deviation 1 if either is not 3)."""
    lam = np.array([1.0, 0.5, 0.0, 0.0])
    c = RANK_CUTOFF * np.linalg.norm(lam)  # the two small ones add 1e-20 to the norm
    lam[2:] = 4 * c, c / 4
    for d1, d2 in ((4, 4), *HARD_PAIRS[1:]):
        for _ in range(n):
            bases = _random_pair(d1, d2, rng)
            x, y = random_unitary(d1, rng)[:, :4], random_unitary(d2, rng)[:, :4]
            alpha = ((x * lam) @ y.T).reshape(-1)
            yield float(schmidt(alpha, bases).rank != 3)
            yield float(schmidt_rank(alpha, d1, d2) != 3)


# The paper's R isomorphism holds on infinite-dimensional spaces, Choi's only on
# finite ones.  The sections suite shows this on the first d levels of an
# oscillator: R of a cut channel is the cut of R, and R_d settles as d grows
# while C_d does not.  Every norm is taken at d <= 16, where an SVD of R_d is cheap.
SECTIONS = (2, 4, 8, 16)
GAMMA = 0.3


def _damping(d: int) -> np.ndarray:
    """Amplitude damping of rate GAMMA on the first d levels: M_0 =
    diag((1 - GAMMA)^(n/2)) and M_1[n, n-1] = sqrt(1 - (1 - GAMMA)^n), so
    sum_i M_i M_i* = I at every d."""
    levels = np.arange(d)
    m = np.zeros((2, d, d), dtype=complex)
    m[0] = np.diag((1 - GAMMA) ** (levels / 2))
    m[1, levels[1:], levels[:-1]] = np.sqrt(1 - (1 - GAMMA) ** levels[1:])
    return m


@register("sections", 1, bound=0.0)
def section_consistency(rng, n):
    """R of a Kraus stack cut to d levels is R on 32 levels cut to the
    operators on the first d, the indices a * 32 + b with a, b < d, exactly:
    for the damping channel and for n full complex Gaussian stacks of rank 2
    or 3.  The entry R[(a, b), (c, e)] = sum_k M_k[c, a] conj(M_k[e, b]) reads
    only levels below d, so this holds for every stack; only products need
    the triangular shape."""
    gaussian = (complex_gaussian(32 * k, 32, rng).reshape(k, 32, 32) for k in rng.integers(2, 4, size=n))
    for m in (_damping(32), *gaussian):
        r = kraus_to_r_kron(m)
        for d in SECTIONS:
            keep = (np.arange(d)[:, None] * 32 + np.arange(d)).ravel()
            yield _dist(kraus_to_r_kron(m[:, :d, :d]), r[np.ix_(keep, keep)])


@register("sections", 2, bound=1e-10)
def section_products(rng, n):
    """For Kraus stacks A (rank 2) and B (rank 3) on 16 levels, both upper or
    both lower triangular, R_d({B_j A_i}) = R_d(A) R_d(B) at d = 2 ... 16,
    relative in the Frobenius norm.  The triangular shape makes the cut of
    B_j A_i the product of the cuts; full blocks break it."""
    for _ in range(n):
        for triangle in (np.triu, np.tril):
            a = triangle(np.stack([complex_gaussian(16, 16, rng) for _ in range(2)]))
            b = triangle(np.stack([complex_gaussian(16, 16, rng) for _ in range(3)]))
            stack = (b[:, None] @ a[None, :]).reshape(-1, 16, 16)
            for d in range(2, 17):
                product = kraus_to_r_kron(a[:, :d, :d]) @ kraus_to_r_kron(b[:, :d, :d])
                yield np.linalg.norm(kraus_to_r_kron(stack[:, :d, :d]) - product) / np.linalg.norm(product)


@register("sections", 1, bound=1e-10)
def section_strong_products(rng, n):
    """For banded Kraus stacks A (rank 2) and B (rank 3) of bandwidth w = 1
    or 2 on 24 levels, and X a complex Gaussian operator on the first 3
    levels, R_d(A) R_d(B) vec X = R_d({B_j A_i}) vec X at d = 3 + w ... 24,
    relative.  Applying A moves X onto the first 3 + w levels, so from there
    on no cut between the two factors loses any of it.  In norm R_d(A) R_d(B)
    and R_d({B_j A_i}) stay apart at every d, since an X on the last levels
    spills over the cut (`section-norms-exhibit`): the sections converge
    strongly, not in norm."""
    levels = np.arange(24)
    for _ in range(n):
        for w in (1, 2):
            band = np.abs(levels[:, None] - levels) <= w
            a, b = (band * complex_gaussian(24 * k, 24, rng).reshape(k, 24, 24) for k in (2, 3))
            stack = (b[:, None] @ a[None, :]).reshape(-1, 24, 24)
            x = complex_gaussian(3, 3, rng)
            for d in range(3 + w, 25):
                v = vec_j(np.pad(x, (0, d - 3)), BasisPair.standard(d, d))
                ra, rb, rs = (kraus_to_r_kron(m[:, :d, :d]) for m in (a, b, stack))
                ref = rs @ v
                yield np.linalg.norm(ra @ (rb @ v) - ref) / np.linalg.norm(ref)


@register("sections", 1, bound=0.5)
def section_norms_exhibit(rng, n):
    """The damping sections' R_d settle and their Choi matrices C_d do not:
    ||R_16|| - ||R_8|| < 1e-6, while ||C_d|| >= d - 1/GAMMA at every d, which
    has no limit.  C_d = V V* has the norm of the Gram matrix
    diag(||M_0||^2, ||M_1||^2), and ||M_1||^2 = d - sum_{n<d} (1 - GAMMA)^n.
    And the sections of a product do not converge in norm: for A = {S} and
    B = {S*}, S the shift on 24 levels (bandwidth 1), ||R_d(A) R_d(B) -
    R_d({B_j A_i})|| is at least half of ||R_d({B_j A_i})|| at every d; both
    read 1, since the cut of S loses the top level that S* S = I keeps
    (deviation 0 when all three hold, 1 when not)."""
    sections = [_damping(d) for d in SECTIONS]
    r_norms = [operator_norm(kraus_to_r_kron(m)) for m in sections]
    c_norms = [operator_norm(choi_map(m)) for m in sections]
    settles = r_norms[-1] - r_norms[-2] < 1e-6
    grows = all(c >= d - 1 / GAMMA for d, c in zip(SECTIONS, c_norms))
    a = np.eye(24, k=-1)[None]
    b = a.transpose(0, 2, 1)
    apart = True
    for d in SECTIONS:
        ra, rb, rs = (kraus_to_r_kron(m[:, :d, :d]) for m in (a, b, b @ a))
        apart &= operator_norm(ra @ rb - rs) >= operator_norm(rs) / 2
    yield 0.0 if settles and grows and apart else 1.0


def run_suites(names: list[str], seed: int) -> list[tuple[str, str, Verdict]]:
    """(suite, property, verdict) for every property of the named suites, in
    order, each at its selftest size on a generator seeded with seed."""
    return [
        (suite, fn.__name__.replace("_", "-"), fn(np.random.default_rng(seed), n))
        for suite in names
        for fn, n in SUITES[suite]
    ]
