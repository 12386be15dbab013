"""Dense complex linear algebra primitives shared by the rest of the package.

Everything operates on plain numpy arrays of dtype complex128.  Matrices are
row-major 2-D arrays; vectors are 1-D arrays.  All functions are pure and hold
no global state (random generation is seeded explicitly by the caller).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative comparison tolerance: pass iff |x-y| <= abs + rel*max(|x|,|y|)."""

    abs: float = 1e-10
    rel: float = 1e-10

    def close(self, x, y) -> bool:
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != y.shape:
            return False
        scale = np.maximum(np.abs(x), np.abs(y))
        return bool(np.all(np.abs(x - y) <= self.abs + self.rel * scale))


DEFAULT_TOL = Tolerance()


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


def is_hermitian(h, tol: Tolerance = DEFAULT_TOL) -> bool:
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        return False
    return tol.close(h, h.conj().T)


def hermitian_eig(h, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with real eigenvalues sorted descending and the
    matching unitary of eigenvectors as columns.  Raises on non-Hermitian
    input beyond ``tol``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError("hermitian_eig: matrix must be square")
    if not is_hermitian(h, tol):
        raise ValueError("hermitian_eig: input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def svd(a):
    """Thin SVD.  Returns (u, s, v) with a == u @ diag(s) @ v.conj().T,
    u and v having orthonormal columns and s nonnegative descending."""
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a PASS/FAIL check: the measured value (a least eigenvalue
    or a deviation) and the threshold it was held to."""

    passed: bool
    value: float
    threshold: float

    @classmethod
    def at_most(cls, value: float, threshold: float) -> "Verdict":
        """Pass iff value <= threshold (a deviation under its bound)."""
        return cls(value <= threshold, value, threshold)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def psd_check(h, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Positive semidefiniteness from one eigendecomposition.

    h must be Hermitian within tol, and the least eigenvalue of its Hermitian
    part H (the verdict's value) must be >= -tol.abs * (1 + ||H||_2), where
    ||H||_2 = max |lambda| comes from the same eigenvalues.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError("is_psd: matrix must be square")
    w = np.linalg.eigvalsh((h + h.conj().T) / 2)  # ascending
    mineig = float(w[0])
    threshold = -tol.abs * (1 + max(-mineig, float(w[-1])))
    return Verdict(is_hermitian(h, tol) and mineig >= threshold, mineig, threshold)


def is_psd(h, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness: Hermitian within tol and min eigenvalue
    >= -tol.abs * (1 + operator norm of the Hermitian part)."""
    return psd_check(h, tol).passed


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of the Hermitian part of h."""
    h = as_matrix(h)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2).min())


def complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix (variance 1 per complex entry)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary: QR of a seeded complex Gaussian with the
    phases of R's diagonal absorbed into Q.  Deterministic for fixed seed."""
    if d < 1:
        raise ValueError("random_unitary: d must be >= 1")
    rng = np.random.default_rng(seed)
    return random_unitary_from(d, rng)


def random_unitary_from(d: int, rng: np.random.Generator) -> np.ndarray:
    z = complex_gaussian(d, d, rng)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases
