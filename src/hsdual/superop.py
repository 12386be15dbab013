"""Superoperators on the space of operators H1 -> H2 and their representations.

Three interchangeable representations are supported:

* an ``HSMap``: the abstract linear action A -> B(A), a callable on d2 x d1
  operators;
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
``kraus_apply`` reads the stack as the (k d) x d matrix W, the blocks one
under another (a free reshape), and returns W^* Y, where Y stacks the
products A M_i the same way: two products, the second of which sums over the
blocks.  ``tp_deviation`` is one batched product and a sum.

Each conversion from a Kraus stack has one closed-form production path, an
index rearrangement of the stacked blocks (Wood, Biamonte and Cory,
arXiv:1111.6950, sec. 3).  Both cost O(k d^4) for k blocks of size d:

* Kraus -> R (``kraus_to_r_kron``, behind ``SuperOp.from_kraus``):
  R = sum_k (J M_k^T conj(J)) (x) M_k^*, one batched product, with J = U U^T
  for the basis U (J = I for the standard basis);
* Kraus -> Choi (``choi_map``), in the standard basis: C = V V^*, where
  column k of the d^2 x k matrix V is the row-major flattening of conj(M_k).

Complete positivity of a Kraus channel (``check_cp``) is certified without
the Choi matrix.  C = V V^* is positive by construction, and its d^2
eigenvalues are the squared singular values of the k x d^2 matrix V^* of
flattened blocks, padded with zeros when k < d^2 (Watrous, The Theory of
Quantum Information, ch. 2).  One SVD of the stacked blocks gives both ends
of the spectrum at every rank, in O(min(k, d^2)^2 max(k, d^2)) with no array
larger than the channel and no basis; ``linalg.Verdict.psd`` then refuses a
lambda_max that overflowed.

hsdual.paper holds the paper's literal constructions, the oracles for these;
its ``choi_of_map`` gives the Choi matrix of a map that is not a Kraus stack.
Every dense d^2 x d^2 result is refused above ``MAX_KRON_ENTRIES`` entries
(``guard_entries``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .linalg import (
    TOL,
    DimensionMismatchError,
    Verdict,
    as_matrix,
    complex_gaussian,
    guard_entries,
)
from .vectorize import Basis, BasisPair, devec_jstar, vec_j


def _kraus(ms, basis: Basis | None = None, what: str = "Kraus channel") -> np.ndarray:
    """A Kraus channel as one complex k x d x d stack.

    Takes any sequence of equal square blocks, or a stack already; refuses an
    empty, ragged or non-square input and a basis of another dimension.
    """
    try:
        m = np.asarray(ms, dtype=complex)
    except (TypeError, ValueError):  # ragged blocks, or not numbers at all
        m = None
    if m is None or m.ndim != 3 or m.shape[0] == 0 or m.shape[1] != m.shape[2]:
        raise DimensionMismatchError(f"{what}: Kraus operators must be a nonempty set of equal square blocks")
    if basis is not None and basis.dim != m.shape[1]:
        raise DimensionMismatchError(f"{what}: basis dimension {basis.dim} != Kraus dimension {m.shape[1]}")
    return m


def kraus_apply(ms, a) -> np.ndarray:
    """Apply the channel in Kraus form: sum_i M_i* a M_i.

    With W the (k d) x d stack of the M_i and Y the (k d) x d stack of the
    a M_i, the sum is W^* Y: k products of d x d blocks, then one
    d x kd by kd x d product, which also does the sum over i.
    """
    m = _kraus(ms)
    a = as_matrix(a)
    k, d, _ = m.shape
    if a.shape != (d, d):
        raise DimensionMismatchError(f"kraus_apply: state shape {a.shape} != ({d}, {d})")
    return m.reshape(k * d, d).conj().T @ np.matmul(a, m).reshape(k * d, d)


class HSMap:
    """A linear map on d2 x d1 operators, with a concrete apply action."""

    def __init__(self, d1: int, d2: int, apply_fn: Callable[[np.ndarray], np.ndarray]):
        self.d1 = d1
        self.d2 = d2
        self._apply = apply_fn

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
        return cls(m.shape[1], m.shape[1], lambda a: kraus_apply(m, a))


class SuperOp(NamedTuple):
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
    def from_kraus(ms, basis: Basis) -> "SuperOp":
        return SuperOp(kraus_to_r_kron(ms, basis), BasisPair(basis, basis))

    def as_hsmap(self) -> HSMap:
        return lower_s(self.rmatrix, self.bases)


def lower_s(c, bases: BasisPair) -> HSMap:
    """Inverse of hsdual.paper.lift_r: bring an operator on the tensor product
    down to a map on operators, devec . c . vec."""
    c = as_matrix(c)
    n = bases.d1 * bases.d2
    if c.shape != (n, n):
        raise DimensionMismatchError(f"lower_s: shape {c.shape} != ({n}, {n})")
    return HSMap(bases.d1, bases.d2, lambda a: devec_jstar(c @ vec_j(a, bases), bases))


def kraus_to_r_kron(ms, basis: Basis | None = None) -> np.ndarray:
    """Closed Kronecker form of the R-matrix:
    sum_k (J M_k^T conj(J)) (x) M_k^*, with J = U U^T for the basis U.  No
    basis is the standard one, J = I, taken like any other J (exactly).

    The production Kraus -> R path: the k Kronecker products are summed by one
    (d^2 x k) @ (k x d^2) product and an index reshuffle, O(k d^4).
    """
    m = _kraus(ms, basis, "R-matrix")
    k, d, _ = m.shape
    guard_entries(d**4, "R-matrix")
    j = (Basis.standard(d) if basis is None else basis).conjugation
    left = j @ m.transpose(0, 2, 1) @ j.conj()
    right = m.conj().transpose(0, 2, 1)
    # R[(a, b), (c, e)] = sum_k left[k, a, c] * right[k, b, e]
    r = left.reshape(k, d * d).T @ right.reshape(k, d * d)
    return r.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def choi_map(ms, *, normalize: bool = False) -> np.ndarray:
    """Choi matrix sum_{i,j} |e_i><e_j| (x) B(|e_i><e_j|) of a Kraus channel
    in the standard basis, in closed form: C = V V^*, where column k of V is
    the row-major flattening of conj(M_k).  One d^2 x k x d^2 product.

    The reference vector sum_j e_j (x) e_j is kept unnormalized unless
    ``normalize`` is set, which divides the result by the dimension.
    hsdual.paper.choi_of_map probes the matrix units instead, the oracle; it
    also gives the Choi matrix in any other basis.
    """
    m = _kraus(ms, what="Choi matrix")
    k, d, _ = m.shape
    guard_entries(d**4, "Choi matrix")
    w = m.conj().reshape(k, d * d)
    c = w.T @ w.conj()
    if normalize:
        c /= d
    return c


def compose(b1: SuperOp, b2: SuperOp) -> SuperOp:
    """Composition b1 after b2, a plain product of R-matrices.  An R-matrix
    depends on its bases only through J1 and d2, so only the H1 bases must
    agree."""
    if (b1.d1, b1.d2) != (b2.d1, b2.d2):
        raise DimensionMismatchError("compose: dimension mismatch")
    if not np.array_equal(b1.bases.b1.u, b2.bases.b1.u):
        raise DimensionMismatchError("compose: superoperators use different bases")
    return SuperOp(b1.rmatrix @ b2.rmatrix, b1.bases)


def check_cp(ms) -> Verdict:
    """Complete positivity of a Kraus channel via the Choi criterion: the PSD
    rule ``Verdict.psd`` on the spectrum of the Choi matrix C = V V^*.

    The d^2 eigenvalues of C are the squared singular values of the stacked
    blocks, zeros after the first min(k, d^2).  So the least is s_{d^2}^2, 0
    when k < d^2, and the largest s_1^2; one more zero stands in for both at
    d = 0.  They are squared as Python floats, whose product overflows to inf
    silently, for ``Verdict.psd`` to refuse.  C is never built, and neither
    value depends on the basis (J is unitary), so none is taken.
    """
    m = _kraus(ms, what="Choi matrix")
    k, d, _ = m.shape
    s = np.zeros(d * d + 1)
    s[: min(k, d * d)] = np.linalg.svd(m.reshape(k, d * d), compute_uv=False)
    least, top = float(s[d * d - 1]), float(s[0])
    return Verdict.psd(least * least, top * top)


def check_tp(ms) -> Verdict:
    """Trace preservation of a Kraus channel: sum_i M_i M_i* == I."""
    return tp_verdict(tp_deviation(ms))


def tp_verdict(deviation: float) -> Verdict:
    """Trace preservation passes iff tp_deviation is at most 2 * TOL: TOL
    absolute plus TOL relative to 1, the largest entry of the identity."""
    return Verdict.at_most(deviation, 2 * TOL)


def random_tp_kraus(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random trace-preserving Kraus stack: M_i = (sum_j G_j G_j*)^(-1/2) G_i
    for Gaussian G_i, taken as the k blocks of the polar factor U V^* of
    [G_1 | ... | G_k] (one SVD), so sum_i M_i M_i* = U U^* = I to rounding at
    every rank."""
    gs = [complex_gaussian(d, d, rng) for _ in range(rank)]
    u, _, vh = np.linalg.svd(np.hstack(gs), full_matrices=False)
    return np.stack(np.hsplit(u @ vh, rank))


def tp_deviation(ms) -> float:
    """Max-entry deviation of sum_i M_i M_i* from the identity."""
    m = _kraus(ms)
    return float(np.abs((m @ m.conj().transpose(0, 2, 1)).sum(axis=0) - np.eye(m.shape[1])).max(initial=0.0))
