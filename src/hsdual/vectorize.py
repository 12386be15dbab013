"""Vectorization isomorphisms between operators and tensor-product vectors.

An operator A mapping a d1-dimensional space H1 into a d2-dimensional space H2
is stored as a d2 x d1 matrix.  Its vectorization lives in H1 (x) H2 with the
flat-index convention: the component of phi (x) psi at index j*d2 + i equals
phi[j] * psi[i] (first factor index-major), so with standard bases the
vectorization of A is exactly column-stacking of A.

The paper's vectorization sum_j phi_j (x) A phi_j needs only the H1 basis,
so vec_j, partial_slice, partial_slice_adjoint and conjugate_in_basis read
only U1 and J1 = U1 U1^T, with one formula for every basis: vec_j is
(J1 A^T) flattened and partial_slice conj(U1[:, i])^T alpha.reshape(d1, d2).
The standard basis is J1 = I, for which both give the reshapes exactly.
Only devec_jstar reads U2, and only it asks whether a basis is standard.
With a standard H1 basis it is the transpose of alpha.reshape(d1, d2),
exactly, in any H2 basis: devec(alpha) = alpha.reshape(d1, d2)^T conj(J1),
where U2 cancels, and J1 = I.  Otherwise it builds kron(U1, U2), one
(d1*d2)^2 array bounded by MAX_KRON_ENTRIES (d1*d2 <= 1024), and applies its
adjoint in place, conjugating only vectors.
hsdual.paper holds the paper's literal constructions, the oracles for these.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    DimensionMismatchError,
    as_matrix,
    as_vector,
    kron,
    unitary_defect,
)


class Basis:
    """Orthonormal basis of C^d: a unitary whose columns are the basis vectors.

    ``u`` is a private read-only copy, so ``is_standard`` and ``conjugation``,
    computed once per basis, cannot go stale.  Only devec_jstar reads
    ``is_standard``; every other basis change takes J = I for the standard
    basis like any other J.
    """

    def __init__(self, u):
        u = as_matrix(u).copy()
        if u.shape[0] != u.shape[1]:
            raise DimensionMismatchError("Basis: matrix must be square")
        if unitary_defect(u) > 1e-10:
            raise ValueError("Basis: columns are not orthonormal within 1e-10")
        u.flags.writeable = False
        vars(self)["u"] = u

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Basis is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Basis(u={self.u!r})"

    @property
    def dim(self) -> int:
        return self.u.shape[0]

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
    def adapted_to(phi) -> "Basis":
        """Orthonormal basis whose first column is the given unit vector."""
        phi = as_vector(phi)
        d = phi.shape[0]
        # The bound Basis puts on U*U, checked on phi as a column so that the
        # refusal names adapted_to.  No input lands on its edge: for s =
        # phi*phi near 1 the measured |s - 1| is an exact multiple of 2^-53,
        # and 1e-10 is not one, so > and >= are the same rule here.
        if unitary_defect(phi[:, None]) > 1e-10:
            raise ValueError("adapted_to: vector must be normalized (|norm^2 - 1| <= 1e-10)")
        cols = np.column_stack([phi, np.eye(d, dtype=complex)])
        q = np.linalg.qr(cols)[0][:, :d]
        q[:, 0] = phi  # QR returns the first column only up to phase
        return Basis(q)


class BasisPair(NamedTuple):
    """Bases for the two factors: b1 for H1 (dimension d1), b2 for H2 (d2).
    Production reads b2 only for d2 and devec_jstar's kron."""

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


def conjugate_in_basis(basis: Basis, phi) -> np.ndarray:
    """Antilinear conjugation fixing the basis columns: sum_i <phi, u_i> u_i.

    Entrywise complex conjugation when the basis is standard.
    """
    phi = as_vector(phi)
    if phi.shape[0] != basis.dim:
        raise DimensionMismatchError("conjugate_in_basis: vector/basis dimension mismatch")
    return basis.conjugation @ np.conj(phi)


def vec_j(a, bases: BasisPair) -> np.ndarray:
    """Vectorize an operator: sum_{i,j} <psi_i, A phi_j> phi_j (x) psi_i.

    Summing over i leaves sum_j phi_j (x) A phi_j, which is (J1 A^T) flattened
    with J1 = U1 U1^T: the H2 basis cancels and no (d1*d2)^2 array is built.
    With a standard H1 basis this is column-stacking of the matrix of A.
    """
    a = _check_operator(a, bases)
    return (bases.b1.conjugation @ a.T).reshape(-1)


def devec_jstar(alpha, bases: BasisPair) -> np.ndarray:
    """Inverse of vec_j: sum <phi_j (x) psi_i, alpha> |psi_i><phi_j|."""
    alpha = _check_bipartite(alpha, bases)
    d1, d2 = bases.d1, bases.d2
    # devec(alpha) = alpha.reshape(d1, d2)^T conj(J1): U2 cancels, and J1 = I
    # for a standard H1 basis.  Any other takes the kron, which reads U2.
    if bases.b1.is_standard:
        return alpha.reshape(d1, d2).T.copy()
    # beta = (U1 (x) U2)* alpha, beta[j*d2 + i] = <phi_j (x) psi_i, alpha>.
    # conj(W^T conj(alpha)) equals W* alpha entry for entry, so the Kronecker
    # matrix W is the only (d1*d2)^2 array; no conjugated copy of it is made.
    beta = np.conj(kron(bases.b1.u, bases.b2.u).T @ np.conj(alpha))
    coeff = beta.reshape(d1, d2).T  # coeff[i, j] = <phi_j (x) psi_i, alpha>
    return bases.b2.u @ coeff @ bases.b1.u.conj().T


def partial_slice(i: int, alpha, bases: BasisPair) -> np.ndarray:
    """H2-component of alpha in direction phi_i: sum_j <phi_i (x) psi_j, alpha> psi_j.

    Summing over j gives sum_j psi_j psi_j^* = I, so the H2 basis cancels and
    the slice is conj(U1[:, i])^T alpha.reshape(d1, d2): an O(d1*d2) product
    that builds no (d1*d2)^2 array.
    """
    alpha = _check_bipartite(alpha, bases)
    if not 0 <= i < bases.d1:
        raise IndexError(f"partial_slice: index {i} out of range for d1={bases.d1}")
    return bases.b1.u[:, i].conj() @ alpha.reshape(bases.d1, bases.d2)


def partial_slice_adjoint(i: int, beta, bases: BasisPair) -> np.ndarray:
    """Adjoint of partial_slice: embeds beta as phi_i (x) beta."""
    beta = as_vector(beta)
    if beta.shape[0] != bases.d2:
        raise DimensionMismatchError("partial_slice_adjoint: vector dimension mismatch")
    if not 0 <= i < bases.d1:
        raise IndexError(f"partial_slice_adjoint: index {i} out of range for d1={bases.d1}")
    return np.outer(bases.b1.u[:, i], beta).reshape(-1)

