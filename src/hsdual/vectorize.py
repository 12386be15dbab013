"""Vectorization isomorphisms between operators and tensor-product vectors.

An operator A mapping a d1-dimensional space H1 into a d2-dimensional space H2
is stored as a d2 x d1 matrix.  Its vectorization lives in H1 (x) H2 with the
flat-index convention: the component of phi (x) psi at index j*d2 + i equals
phi[j] * psi[i] (first factor index-major), so with standard bases the
vectorization of A is exactly column-stacking of A.

With standard bases vec_j, devec_jstar and partial_slice are reshapes of the
data and allocate nothing of size (d1*d2)^2.  Other bases go through
kron(U1, U2), so they are bounded by MAX_KRON_ENTRIES (d1*d2 <= 1024).  A
basis change builds that one (d1*d2)^2 complex array (16 MiB at the cap) and
applies its adjoint in place: only vectors are conjugated, never the matrix.
vec_t (sum_j phi_j (x) A phi_j) and devec_via_slices (sum_j |P_j alpha><phi_j|)
are independent constructions that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionMismatchError,
    Tolerance,
    as_matrix,
    as_vector,
    kron,
    random_unitary,
)


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of C^d: a unitary whose columns are the basis vectors.

    ``u`` is treated as immutable: ``is_standard`` and ``conjugation`` are
    computed once per basis.
    """

    u: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u)
        if u.shape[0] != u.shape[1]:
            raise DimensionMismatchError("Basis: matrix must be square")
        if not Tolerance(abs=1e-10, rel=0.0).close(u.conj().T @ u, np.eye(u.shape[0])):
            raise ValueError("Basis: columns are not orthonormal within 1e-10")
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.u[:, i].copy()

    @cached_property
    def is_standard(self) -> bool:
        return bool(np.array_equal(self.u, np.eye(self.dim)))

    @cached_property
    def conjugation(self) -> np.ndarray:
        """J = U U^T: the conjugation fixing the basis columns is phi -> J conj(phi)."""
        return self.u @ self.u.T

    @staticmethod
    def standard(d: int) -> "Basis":
        return Basis(np.eye(d, dtype=complex))

    @staticmethod
    def random(d: int, seed: int) -> "Basis":
        return Basis(random_unitary(d, seed))

    @staticmethod
    def adapted_to(phi) -> "Basis":
        """Orthonormal basis whose first column is the given unit vector."""
        phi = as_vector(phi)
        d = phi.shape[0]
        # The bound Basis puts on each diagonal entry of U*U, checked here so
        # that the refusal names adapted_to.
        if abs(np.vdot(phi, phi).real - 1.0) > 1e-10:
            raise ValueError("adapted_to: vector must be normalized (|norm^2 - 1| <= 1e-10)")
        cols = np.column_stack([phi, np.eye(d, dtype=complex)])
        q = np.linalg.qr(cols)[0][:, :d]
        q[:, 0] = phi  # QR returns the first column only up to phase
        return Basis(q)


@dataclass(frozen=True)
class BasisPair:
    """Bases for the two factors: b1 for H1 (dimension d1), b2 for H2 (d2)."""

    b1: Basis
    b2: Basis

    @property
    def d1(self) -> int:
        return self.b1.dim

    @property
    def d2(self) -> int:
        return self.b2.dim

    @staticmethod
    def standard(d1: int, d2: int) -> "BasisPair":
        return BasisPair(Basis.standard(d1), Basis.standard(d2))


def _check_operator(a, bases: BasisPair) -> np.ndarray:
    a = as_matrix(a)
    if a.shape != (bases.d2, bases.d1):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match bases ({bases.d2}, {bases.d1})"
        )
    return a


def _check_bipartite(alpha, bases: BasisPair) -> np.ndarray:
    alpha = as_vector(alpha)
    if alpha.shape[0] != bases.d1 * bases.d2:
        raise DimensionMismatchError(
            f"vector length {alpha.shape[0]} != d1*d2 = {bases.d1 * bases.d2}"
        )
    return alpha


def _standard(bases: BasisPair) -> bool:
    return bases.b1.is_standard and bases.b2.is_standard


def conjugate_in_basis(basis: Basis, phi) -> np.ndarray:
    """Antilinear conjugation fixing the basis columns: sum_i <phi, u_i> u_i.

    Entrywise complex conjugation when the basis is standard.
    """
    phi = as_vector(phi)
    if phi.shape[0] != basis.dim:
        raise DimensionMismatchError("conjugate_in_basis: vector/basis dimension mismatch")
    return basis.u @ np.conj(basis.u.conj().T @ phi)


def _product_coefficients(alpha: np.ndarray, bases: BasisPair) -> np.ndarray:
    """beta = (U1 (x) U2)* alpha: beta[j*d2 + i] = <phi_j (x) psi_i, alpha>.

    conj(W^T conj(alpha)) equals W* alpha entry for entry, so the Kronecker
    matrix W is the only (d1*d2)^2 array; no conjugated copy of it is made.
    """
    return np.conj(kron(bases.b1.u, bases.b2.u).T @ np.conj(alpha))


def vec_j(a, bases: BasisPair) -> np.ndarray:
    """Vectorize an operator: sum_{i,j} <psi_i, A phi_j> phi_j (x) psi_i.

    With standard bases this is column-stacking of the matrix of A.
    """
    a = _check_operator(a, bases)
    if _standard(bases):
        return a.flatten(order="F")  # column-stack: index j*d2 + i
    coeff = bases.b2.u.conj().T @ a @ bases.b1.u  # coeff[i, j] = <psi_i, A phi_j>
    return kron(bases.b1.u, bases.b2.u) @ coeff.T.reshape(-1)


def devec_jstar(alpha, bases: BasisPair) -> np.ndarray:
    """Inverse of vec_j: sum <phi_j (x) psi_i, alpha> |psi_i><phi_j|."""
    alpha = _check_bipartite(alpha, bases)
    d1, d2 = bases.d1, bases.d2
    if _standard(bases):
        return alpha.reshape(d1, d2).T.copy()
    beta = _product_coefficients(alpha, bases)
    coeff = beta.reshape(d1, d2).T  # coeff[i, j] = <phi_j (x) psi_i, alpha>
    return bases.b2.u @ coeff @ bases.b1.u.conj().T


def vec_t(a, b1: Basis) -> np.ndarray:
    """Alternative vectorization sum_j phi_j (x) (A phi_j); agrees with vec_j
    for any choice of the second-factor basis."""
    a = as_matrix(a)
    if a.shape[1] != b1.dim:
        raise DimensionMismatchError("vec_t: operator/basis dimension mismatch")
    d2 = a.shape[0]
    out = np.zeros(b1.dim * d2, dtype=complex)
    for j in range(b1.dim):
        out += np.kron(b1.column(j), a @ b1.column(j))
    return out


def phi_plus(basis: Basis) -> np.ndarray:
    """The unnormalized maximally entangled vector sum_j phi_j (x) phi_j."""
    return vec_t(np.eye(basis.dim, dtype=complex), basis)


def partial_slice(i: int, alpha, bases: BasisPair) -> np.ndarray:
    """H2-component of alpha in direction phi_i: sum_j <phi_i (x) psi_j, alpha> psi_j."""
    alpha = _check_bipartite(alpha, bases)
    if not 0 <= i < bases.d1:
        raise IndexError(f"partial_slice: index {i} out of range for d1={bases.d1}")
    d2 = bases.d2
    if _standard(bases):
        return alpha[i * d2 : (i + 1) * d2].copy()
    beta = _product_coefficients(alpha, bases)
    return bases.b2.u @ beta[i * d2 : (i + 1) * d2]


def partial_slice_adjoint(i: int, beta, bases: BasisPair) -> np.ndarray:
    """Adjoint of partial_slice: embeds beta as phi_i (x) beta."""
    beta = as_vector(beta)
    if beta.shape[0] != bases.d2:
        raise DimensionMismatchError("partial_slice_adjoint: vector dimension mismatch")
    if not 0 <= i < bases.d1:
        raise IndexError(f"partial_slice_adjoint: index {i} out of range for d1={bases.d1}")
    return np.kron(bases.b1.column(i), beta)


def devec_via_slices(alpha, bases: BasisPair) -> np.ndarray:
    """Devectorize through the slice operators: sum_j |P_j alpha><phi_j|.

    Independent construction; agrees with devec_jstar and serves as its
    cross-oracle in the tests.
    """
    alpha = _check_bipartite(alpha, bases)
    out = np.zeros((bases.d2, bases.d1), dtype=complex)
    for j in range(bases.d1):
        out += np.outer(partial_slice(j, alpha, bases), np.conj(bases.b1.column(j)))
    return out
