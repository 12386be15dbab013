"""Dense complex linear algebra primitives shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128.  Matrices are
row-major 2-D arrays; vectors are 1-D arrays.  All functions are pure and hold
no global state (random generation is seeded explicitly by the caller).
Each acceptance rule is written once, here: ``Verdict.psd``, ``is_hermitian``
and ``unitary_defect``; the PSD, Hermitian and TP bounds scale ``TOL``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Largest dense result, in entries, that a Kronecker product or a d^2 x d^2
# superoperator (R-matrix, Choi matrix) may have: 2^20 entries, 16 MiB complex.
MAX_KRON_ENTRIES = 2**20


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


def guard_entries(entries: int, what: str) -> None:
    """Refuse a dense result above MAX_KRON_ENTRIES before it is allocated."""
    if entries > MAX_KRON_ENTRIES:
        raise DimensionMismatchError(
            f"{what} would have {entries} entries (max {MAX_KRON_ENTRIES})"
        )


# The tolerance of the PSD, TP and Hermitian checks: relative to the largest
# eigenvalue or entry for PSD and Hermitian, absolute for TP.
TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    return v


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor index-major."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    guard_entries(a.size * b.size, "kron result")
    return np.kron(a, b)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def inner(x, y) -> complex:
    """Vector inner product, conjugate-linear in the first argument."""
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"inner: shapes {x.shape} vs {y.shape}")
    return complex(np.vdot(x, y))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a* b), conjugate-linear in the first slot."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"hs_inner: shapes {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def is_hermitian(h) -> bool:
    """max |h - h*| <= TOL * max |h| over the entries: relative, so a zero
    matrix passes exactly, and a NaN entry fails."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        return False
    return bool(np.max(np.abs(h - h.conj().T), initial=0.0) <= TOL * np.max(np.abs(h), initial=0.0))


def unitary_defect(u) -> float:
    """max |U*U - I| over the entries: 0 for an isometry and for an empty
    matrix, inf when an entry is not a number, so that no bound passes it."""
    u = as_matrix(u)
    with np.errstate(invalid="ignore"):  # inf * 0 makes a NaN, reported as inf
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])), initial=0.0))
    return np.inf if np.isnan(defect) else defect


def nearest_unitary(u) -> np.ndarray:
    """The unitary factor W V* of u's polar decomposition, from the thin SVD
    u = W S V*: the unitary nearest a square u.  For a wide u it is the
    factor with orthonormal rows nearest u."""
    w, _, vh = np.linalg.svd(as_matrix(u), full_matrices=False)
    return w @ vh


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


class Verdict(NamedTuple):
    """Outcome of a PASS/FAIL check: the measured value (a least eigenvalue
    or a deviation) and the threshold it was held to."""

    passed: bool
    value: float
    threshold: float

    @classmethod
    def at_most(cls, value: float, threshold: float) -> "Verdict":
        """Pass iff value <= threshold (a deviation under its bound)."""
        return cls(value <= threshold, value, threshold)

    @classmethod
    def psd(cls, least: float, top: float) -> "Verdict":
        """The PSD rule: pass iff least >= -TOL * top, top the largest
        |eigenvalue|, so the verdict does not change when the matrix is
        scaled; FloatingPointError, naming that eigenvalue, if top
        overflowed, which eigvalsh and a product of floats do silently."""
        if not np.isfinite(top):
            raise FloatingPointError("overflow: the largest eigenvalue exceeds the double range")
        threshold = -TOL * top
        return cls(least >= threshold, least, threshold)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def psd_check(h) -> Verdict:
    """PSD from one eigendecomposition: h is Hermitian and the least eigenvalue
    of its Hermitian part H passes ``Verdict.psd`` with top = ||H||_2."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1] or h.size == 0:
        raise DimensionMismatchError("psd_check: matrix must be square and nonempty")
    w = np.linalg.eigvalsh((h + h.conj().T) / 2)  # ascending
    least = float(w[0])
    v = Verdict.psd(least, max(-least, float(w[-1])))
    return v._replace(passed=v.passed and is_hermitian(h))


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of the Hermitian part of h."""
    h = as_matrix(h)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2).min())


def complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix (variance 1 per complex entry)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unitary(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian with the phases of
    R's diagonal absorbed into Q.  ``seed`` is an int or a Generator, drawn
    from in place; a fixed int gives a fixed unitary."""
    if d < 1:
        raise ValueError("random_unitary: d must be >= 1")
    z = complex_gaussian(d, d, np.random.default_rng(seed))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases
