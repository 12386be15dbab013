"""Schmidt decomposition and entanglement analysis of bipartite vectors.

The decomposition is computed by one SVD of the devectorized operator: for
alpha in H1 (x) H2 the operator devec(alpha) factors as sum_i lambda_i
|w_i><x_i|, and alpha = sum_i lambda_i (K x_i) (x) w_i where K is the
conjugation of the H1 basis.  A single SVD yields both orthonormal families
at once, with no phase mismatch between separately diagonalized marginals.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatchError, as_vector, unitary_defect
from .superop import HSMap
from .vectorize import BasisPair, devec_jstar, vec_j

# A Schmidt coefficient counts towards the rank above this times their norm.
RANK_CUTOFF = 1e-10


class SchmidtResult(NamedTuple):
    """Singular values plus the two orthonormal vector families.

    Reconstruction: alpha == sum_i lambdas[i] * kron(left[:, i], right[:, i]).
    """

    lambdas: np.ndarray  # nonnegative, descending
    left: np.ndarray  # d1 x k, orthonormal columns in H1
    right: np.ndarray  # d2 x k, orthonormal columns in H2

    @property
    def rank(self) -> int:
        return rank_from_lambdas(self.lambdas)


def _check_finite(lambdas: np.ndarray) -> None:
    """FloatingPointError if a Schmidt coefficient is beyond the double range:
    numpy runs its SVD with overflow ignored, so nothing else reports it."""
    if not np.isfinite(lambdas).all():
        raise FloatingPointError("overflow encountered in svd: a Schmidt coefficient exceeds the double range")


def rank_from_lambdas(lambdas: np.ndarray) -> int:
    """Number of Schmidt coefficients above RANK_CUTOFF times their norm.

    The norm is taken as lambda_max * ||lambda / lambda_max||, whose sum of
    squares cannot overflow however large the coefficients are.  A coefficient
    beyond the double range raises FloatingPointError.  The edge is arbitrary:
    the cutoff is a convention, not a derived bound, so a coefficient exactly
    at it may count either way.
    """
    _check_finite(lambdas)
    top = float(np.max(lambdas, initial=0.0))
    if top == 0.0:
        return 0
    return int(np.count_nonzero(lambdas > RANK_CUTOFF * top * float(np.linalg.norm(lambdas / top))))


def schmidt(alpha, bases: BasisPair) -> SchmidtResult:
    """Schmidt decomposition of a bipartite vector relative to the given bases.

    A coefficient beyond the double range raises FloatingPointError.
    """
    a = devec_jstar(alpha, bases)
    w, s, vh = np.linalg.svd(a, full_matrices=False)
    x = vh.conj().T  # a == w @ diag(s) @ x.conj().T
    _check_finite(s)
    # Phase convention: the first entry above 1e-12 of each (unit) x-column is
    # made real nonnegative, the w-column absorbing the compensating phase.
    # The edge is arbitrary: any nonzero entry fixes a valid phase, and the
    # cutoff only skips entries at rounding level.
    first = x[np.argmax(np.abs(x) > 1e-12, axis=0), np.arange(x.shape[1])]
    phase = first / np.abs(first)
    x = x / phase
    w = w / phase
    left = bases.b1.conjugation @ x.conj()  # column i is K x_i
    return SchmidtResult(lambdas=s, left=left, right=w)


def schmidt_rank(alpha, d1: int, d2: int) -> int:
    """Number of Schmidt coefficients above RANK_CUTOFF times their norm.

    Basis independent; the zero vector has rank 0.  A vector is entangled iff
    the rank is at least 2.
    """
    alpha = as_vector(alpha)
    if alpha.shape[0] != d1 * d2:
        raise DimensionMismatchError("schmidt_rank: vector length != d1*d2")
    s = np.linalg.svd(alpha.reshape(d1, d2), compute_uv=False)
    return rank_from_lambdas(s)


def _check_unit(v, name: str) -> np.ndarray:
    v = as_vector(v)
    # |v*v - 1|, the unit-norm rule of a basis, inf for a NaN or inf entry.
    # No input lands on the edge: for v*v near 1 the measured |v*v - 1| is
    # an exact multiple of 2^-53, and 1e-8 is not one, so < and <= are the
    # same rule here.
    if unitary_defect(v[:, None]) > 1e-8:
        raise ValueError(f"{name}: expected a unit vector")
    return v


def product_state_devec(phi, psi, bases: BasisPair) -> np.ndarray:
    """Devectorization of the product vector phi (x) psi: the rank-one
    operator |psi><K phi|."""
    phi = _check_unit(phi, "product_state_devec")
    psi = _check_unit(psi, "product_state_devec")
    return devec_jstar(np.outer(phi, psi).reshape(-1), bases)


def pure_state_transport(phi, psi, bases: BasisPair) -> HSMap:
    """The image under the S isomorphism of the product projection
    P_phi (x) P_psi: a rank-one projection on operator space.

    With v = phi (x) psi the projection is |v><v|, so the map is
    A -> <v, vec_j(A)> devec_jstar(v); no (d1*d2)^2 array is built.
    """
    phi = _check_unit(phi, "pure_state_transport")
    psi = _check_unit(psi, "pure_state_transport")
    v = np.outer(phi, psi).reshape(-1)
    image = devec_jstar(v, bases)
    return HSMap(bases.d1, bases.d2, lambda a: np.vdot(v, vec_j(a, bases)) * image)
