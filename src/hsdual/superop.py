"""Superoperators on the space of operators H1 -> H2 and their representations.

Three interchangeable representations are supported:

* an ``HSMap``: the abstract linear action A -> B(A), backed by either a Kraus
  stack or a dense matrix in the matrix-unit basis (flat index j*d2 + i);
* the R-matrix: the dense matrix of vec . B . devec on the tensor-product
  space, in standard coordinates — the canonical internal form, where
  composition of maps is a plain matrix product;
* the Choi matrix (square case only), which is positive semidefinite exactly
  for completely positive maps but does not respect products.

Kraus convention used throughout: B(A) = sum_i M_i* A M_i, trace preserving
when sum_i M_i M_i* = I.  This is the adjoint of the other common convention
B(A) = sum_i M_i A M_i*; mind the stars when importing channels from
elsewhere.

A Kraus channel is one complex k x d x d array, the k blocks M_i stacked.
Every function that takes a channel passes it through one validator,
``_kraus``, which also accepts a list or tuple of equal square blocks and
raises ``DimensionMismatchError`` for an empty, ragged or non-square input.
Sums over the blocks (``kraus_apply``, ``tp_deviation``) are one batched
product each.

Each conversion from a Kraus stack has one closed-form production path, an
index rearrangement of the stacked blocks (Wood, Biamonte and Cory,
arXiv:1111.6950, sec. 3).  With J = U U^T for the basis U (J = I for the
standard basis), both cost O(k d^4) for k blocks of size d:

* Kraus -> R (``kraus_to_r_kron``, behind ``SuperOp.from_kraus``):
  R = sum_k (J M_k^T conj(J)) (x) M_k^*, one batched product;
* Kraus -> Choi (``kraus_to_choi``, taken by ``choi_map`` for maps built
  with ``HSMap.from_kraus``): C = V V^*, where column k of the d^2 x k matrix
  V is the row-major flattening of J conj(M_k).

Complete positivity of a Kraus channel (``check_cp``) is certified without
the Choi matrix.  C = V V^* is positive by construction, and its nonzero
eigenvalues are those of the k x k Gram matrix V^* V (Watrous, The Theory of
Quantum Information, ch. 2).  For k < d^2 the least eigenvalue of C is 0, and
the largest, which sets the threshold, comes from the Gram matrix: O(k d^2)
to form V, O(k^2 d^2) for V^* V and O(k^3) for its eigenvalues, with no
d^4 array.  For k >= d^2 C is built and eigensolved.  The d^4 entry cap
still applies, so a channel the Choi matrix could not hold is refused.

The paper's constructions are kept as independent oracles for the tests:
``kraus_to_r`` (columnwise through ``m_alpha`` and ``vec_t``), the probe
``lift_r`` and the probe ``choi_map`` of a map without a Kraus stack, e.g.
``HSMap(d, d, lambda a: kraus_apply(ms, a))``.  Every dense d^2 x d^2 result
is refused above ``MAX_KRON_ENTRIES`` entries (``guard_entries``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    Verdict,
    adjoint,
    as_matrix,
    as_vector,
    complex_gaussian,
    guard_entries,
    kron,
    psd_check,
)
from .vectorize import Basis, BasisPair, devec_jstar, phi_plus, vec_j, vec_t


def _kraus(ms, basis: Basis | None = None, what: str = "Kraus channel") -> np.ndarray:
    """A Kraus channel as one complex k x d x d stack.

    Takes any sequence of equal square blocks, or a stack already; refuses an
    empty, ragged or non-square input and a basis of another dimension.
    """
    try:
        m = np.asarray(ms, dtype=complex)
    except ValueError:  # ragged blocks
        m = None
    if m is None or m.ndim != 3 or m.shape[0] == 0 or m.shape[1] != m.shape[2]:
        raise DimensionMismatchError(f"{what}: Kraus operators must be a nonempty set of equal square blocks")
    if basis is not None and basis.dim != m.shape[1]:
        raise DimensionMismatchError(f"{what}: basis dimension {basis.dim} != Kraus dimension {m.shape[1]}")
    return m


def kraus_apply(ms, a) -> np.ndarray:
    """Apply the channel in Kraus form: sum_i M_i* a M_i."""
    m = _kraus(ms)
    a = as_matrix(a)
    d = m.shape[1]
    if a.shape != (d, d):
        raise DimensionMismatchError(f"kraus_apply: state shape {a.shape} != ({d}, {d})")
    return (m.conj().transpose(0, 2, 1) @ a @ m).sum(axis=0)


class HSMap:
    """A linear map on d2 x d1 operators, with a concrete apply action."""

    def __init__(
        self,
        d1: int,
        d2: int,
        apply_fn: Callable[[np.ndarray], np.ndarray],
        kraus: np.ndarray | None = None,
    ):
        self.d1 = d1
        self.d2 = d2
        self._apply = apply_fn
        self.kraus = kraus  # the k x d x d stack when the map is a Kraus channel

    def __call__(self, a) -> np.ndarray:
        a = as_matrix(a)
        if a.shape != (self.d2, self.d1):
            raise DimensionMismatchError(
                f"HSMap: operand shape {a.shape} != ({self.d2}, {self.d1})"
            )
        return self._apply(a)

    @classmethod
    def identity(cls, d1: int, d2: int) -> "HSMap":
        return cls(d1, d2, lambda a: a.copy())

    @classmethod
    def from_kraus(cls, ms) -> "HSMap":
        m = _kraus(ms)
        return cls(m.shape[1], m.shape[1], lambda a: kraus_apply(m, a), kraus=m)

    @classmethod
    def sandwich(cls, m, n) -> "HSMap":
        """The map A -> m @ A @ n."""
        m = as_matrix(m)
        n = as_matrix(n)
        return cls(n.shape[0], m.shape[1], lambda a: m @ a @ n)

    @classmethod
    def from_matrix(cls, mat, d1: int, d2: int) -> "HSMap":
        """Dense map in the matrix-unit basis: mat acts on column-stacked operators."""
        return lower_s(mat, BasisPair.standard(d1, d2))

    def matrix(self) -> np.ndarray:
        """Dense matrix in the matrix-unit basis (probe on standard matrix units);
        equals the R-matrix with standard bases."""
        return lift_r(self, BasisPair.standard(self.d1, self.d2))


@dataclass(frozen=True)
class SuperOp:
    """A superoperator pinned to its canonical R-matrix representation."""

    rmatrix: np.ndarray
    bases: BasisPair

    @property
    def d1(self) -> int:
        return self.bases.d1

    @property
    def d2(self) -> int:
        return self.bases.d2

    @staticmethod
    def identity(bases: BasisPair) -> "SuperOp":
        n = bases.d1 * bases.d2
        return SuperOp(np.eye(n, dtype=complex), bases)

    @staticmethod
    def from_kraus(ms, basis: Basis) -> "SuperOp":
        return SuperOp(kraus_to_r_kron(ms, basis), BasisPair(basis, basis))

    def as_hsmap(self) -> HSMap:
        return lower_s(self.rmatrix, self.bases)


def lift_r(b: HSMap, bases: BasisPair) -> np.ndarray:
    """Lift a map on operators to the tensor-product space: vec . b . devec.

    Built by probing b on the matrix units |psi_i><phi_j| of the given bases,
    then rotating back to standard coordinates.
    """
    d1, d2 = bases.d1, bases.d2
    if (b.d1, b.d2) != (d1, d2):
        raise DimensionMismatchError("lift_r: map and bases dimensions differ")
    n = d1 * d2
    probes = np.zeros((n, n), dtype=complex)
    for j in range(d1):
        for i in range(d2):
            unit = np.outer(bases.b2.column(i), np.conj(bases.b1.column(j)))
            probes[:, j * d2 + i] = vec_j(b(unit), bases)
    if bases.b1.is_standard and bases.b2.is_standard:
        return probes
    return probes @ adjoint(kron(bases.b1.u, bases.b2.u))


def lower_s(c, bases: BasisPair) -> HSMap:
    """Inverse of lift_r: bring an operator on the tensor product down to a
    map on operators, devec . c . vec."""
    c = as_matrix(c)
    n = bases.d1 * bases.d2
    if c.shape != (n, n):
        raise DimensionMismatchError(f"lower_s: shape {c.shape} != ({n}, {n})")
    return HSMap(bases.d1, bases.d2, lambda a: devec_jstar(c @ vec_j(a, bases), bases))


def m_alpha(ms, alpha, basis: Basis) -> np.ndarray:
    """The collapsed operator sum_{r,s} <phi_r (x) phi_s, alpha>
    sum_i |M_i* phi_s><M_i* phi_r| attached to a tensor-product vector."""
    ms = _kraus(ms, basis, "m_alpha")
    d = basis.dim
    alpha = as_vector(alpha)
    if alpha.shape[0] != d * d:
        raise DimensionMismatchError("m_alpha: vector length != d*d")
    w = kron(basis.u, basis.u)
    coeff = (adjoint(w) @ alpha).reshape(d, d)  # coeff[r, s] = <phi_r (x) phi_s, alpha>
    out = np.zeros((d, d), dtype=complex)
    for m in ms:
        cols = m.conj().T @ basis.u  # column s is M* phi_s
        out += cols @ coeff.T @ adjoint(cols)
    return out


def kraus_to_r(ms, basis: Basis) -> np.ndarray:
    """R-matrix of a Kraus channel, built columnwise as
    alpha -> sum_s phi_s (x) (M_alpha phi_s).

    The paper's construction, O(d^2) Python iterations; kept as an oracle.
    Independent of lift_r(HSMap.from_kraus(ms), ...) and of kraus_to_r_kron;
    the three are cross-checked in the test suite.
    """
    ms = _kraus(ms, basis, "kraus_to_r")
    d = basis.dim
    n = d * d
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for k in range(n):
        out[:, k] = vec_t(m_alpha(ms, eye[:, k], basis), basis)
    return out


def kraus_to_r_kron(ms, basis: Basis | None = None) -> np.ndarray:
    """Closed Kronecker form of the R-matrix:
    sum_k (J M_k^T conj(J)) (x) M_k^*, with J = U U^T for the basis U
    (J = I for the standard basis, the default).

    The production Kraus -> R path: the k Kronecker products are summed by one
    (d^2 x k) @ (k x d^2) product and an index reshuffle, O(k d^4).
    """
    m = _kraus(ms, basis, "R-matrix")
    k, d, _ = m.shape
    guard_entries(d**4, "R-matrix")
    left = m.transpose(0, 2, 1)
    if basis is not None and not basis.is_standard:
        j = basis.conjugation
        left = j @ left @ j.conj()
    right = m.conj().transpose(0, 2, 1)
    # R[(a, b), (c, e)] = sum_k left[k, a, c] * right[k, b, e]
    r = left.reshape(k, d * d).T @ right.reshape(k, d * d)
    return r.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def kraus_to_choi(ms, basis: Basis, normalize: bool = False) -> np.ndarray:
    """Closed form of the Choi matrix of a Kraus channel: C = V V^*, where
    column k of V is the row-major flattening of J conj(M_k), J = U U^T.

    The production Kraus -> Choi path, one d^2 x k x d^2 product.  Equals
    choi_map of the same channel given without its Kraus stack.
    """
    m = _kraus(ms, basis, "Choi matrix")
    k, d, _ = m.shape
    guard_entries(d**4, "Choi matrix")
    w = m.conj()
    if not basis.is_standard:
        w = basis.conjugation @ w
    w = w.reshape(k, d * d)
    c = w.T @ w.conj()
    if normalize:
        c /= d
    return c


def choi_map(b: HSMap, basis: Basis, normalize: bool = False) -> np.ndarray:
    """Choi matrix sum_{i,j} |phi_i><phi_j| (x) b(|phi_i><phi_j|).

    Defined for the square case only; the reference vector
    sum_j phi_j (x) phi_j is kept unnormalized unless ``normalize`` is set,
    which divides the result by the dimension.  A map that carries a Kraus
    stack takes the closed form kraus_to_choi; any other map is probed on the
    d^2 matrix units (the paper's construction, the oracle for the tests).
    """
    d = basis.dim
    if (b.d1, b.d2) != (d, d):
        raise DimensionMismatchError("choi_map: requires a square map matching the basis")
    if b.kraus is not None:
        return kraus_to_choi(b.kraus, basis, normalize)
    n = d * d
    out = np.zeros((n, n), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.outer(basis.column(i), np.conj(basis.column(j)))
            out += kron(unit, b(unit))
    if normalize:
        out /= d
    return out


def choi_of_vector(a, basis: Basis) -> np.ndarray:
    """(I (x) A) applied to the unnormalized maximally entangled vector;
    coincides with vec_t(A)."""
    a = as_matrix(a)
    d = basis.dim
    if a.shape != (d, d):
        raise DimensionMismatchError("choi_of_vector: requires a d x d operator")
    return kron(np.eye(d, dtype=complex), a) @ phi_plus(basis)


def compose(b1: SuperOp, b2: SuperOp) -> SuperOp:
    """Composition b1 after b2, a plain product of R-matrices."""
    if (b1.d1, b1.d2) != (b2.d1, b2.d2):
        raise DimensionMismatchError("compose: dimension mismatch")
    if not (
        np.array_equal(b1.bases.b1.u, b2.bases.b1.u)
        and np.array_equal(b1.bases.b2.u, b2.bases.b2.u)
    ):
        raise DimensionMismatchError("compose: superoperators use different bases")
    return SuperOp(b1.rmatrix @ b2.rmatrix, b1.bases)


def check_cp(b: HSMap, basis: Basis, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Complete positivity via the Choi criterion, with psd_check's threshold
    -tol.abs * (1 + lambda_max) on the least eigenvalue of the Choi matrix C.

    A map that carries a Kraus stack has C = V V^*, positive by construction,
    and the nonzero eigenvalues of C are those of the k x k Gram matrix V^* V.
    So for k < d^2 the verdict is PASS with the structural least eigenvalue 0,
    and lambda_max is read off the Gram matrix; C is never built.  The Gram
    matrix does not depend on the basis (J is unitary), which only has to
    match the dimension.  For k >= d^2 the Gram matrix is no smaller than C,
    so psd_check runs on C itself.  Any other map is probed through choi_map
    and held to psd_check.  Every path refuses d^4 > MAX_KRON_ENTRIES.
    """
    if b.kraus is None:
        return psd_check(choi_map(b, basis), tol)
    m = _kraus(b.kraus, basis, "Choi matrix")
    k, d, _ = m.shape
    guard_entries(d**4, "Choi matrix")
    if k >= d * d:
        return psd_check(kraus_to_choi(m, basis), tol)
    w = m.reshape(k, d * d)
    threshold = -tol.abs * (1 + float(np.linalg.eigvalsh(w.conj() @ w.T)[-1]))
    # 0 >= threshold, unless lambda_max overflowed a double.
    return Verdict(bool(np.isfinite(threshold)), 0.0, threshold)


def check_tp(ms, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Trace preservation of a Kraus channel: sum_i M_i M_i* == I."""
    return tp_verdict(tp_deviation(ms), tol)


def tp_verdict(deviation: float, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Trace preservation passes iff tp_deviation is at most abs + rel of tol:
    the relative part is scaled by 1, the largest entry of the identity."""
    return Verdict.at_most(deviation, tol.abs + tol.rel)


def random_tp_kraus(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random trace-preserving Kraus stack: sum_i M_i M_i* == I by construction."""
    gs = [complex_gaussian(d, d, rng) for _ in range(rank)]
    total = sum(g @ g.conj().T for g in gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return inv_sqrt @ np.stack(gs)


def tp_deviation(ms) -> float:
    """Max-entry deviation of sum_i M_i M_i* from the identity."""
    m = _kraus(ms)
    return float(np.abs((m @ m.conj().transpose(0, 2, 1)).sum(axis=0) - np.eye(m.shape[1])).max())
