"""The paper's constructions, literally (arXiv:2010.15901), kept as oracles.

Each builds its object as the paper defines it, column by column or by
probing matrix units, where production runs a closed form or a reshape:

* ``vec_t``: sum_j phi_j (x) A phi_j (production: ``vectorize.vec_j``);
* ``phi_plus``: sum_j phi_j (x) phi_j, the vec_t of the identity;
* ``devec_via_slices``: sum_j |P_j alpha><phi_j| through the slice operators
  P_j alpha = sum_i <phi_j (x) psi_i, alpha> psi_i (production:
  ``vectorize.devec_jstar``);
* ``m_alpha``: the operator M_alpha a Kraus channel attaches to a vector alpha;
* ``kraus_to_r``: the R-matrix column by column, alpha -> vec_t(M_alpha)
  (production: ``superop.kraus_to_r_kron``, the closed form of Wood, Biamonte
  and Cory, arXiv:1111.6950, sec. 3);
* ``lift_r``: the R isomorphism vec . B . devec, probed on the matrix units
  |psi_i><phi_j|, each image vectorized by ``vec_t`` (its inverse is
  ``superop.lower_s``);
* ``choi_of_map``: Choi's matrix sum_{i,j} |phi_i><phi_j| (x) B(|phi_i><phi_j|),
  probed on the matrix units in any basis (production: ``superop.choi_map``,
  C = V V^* of a Kraus stack in the standard basis);
* ``choi_of_vector``: (I (x) A) applied to phi_plus, which equals vec_t(A).

This module is the oracle the tests and ``selftest`` compare the closed forms
against.  It imports no production basis change, only the basis types, the
bipartite-vector check, ``HSMap``, the Kraus validator and ``linalg`` helpers,
so a change to a closed form cannot change the oracle that checks it.  No
module of the package but ``selftest`` imports it, so no other CLI command
loads it; tests/test_oracles.py parses the imports both ways.  ``lift_r`` and
``choi_of_map`` are also the library's only way to lift a map given only as a
callable, ``HSMap(d1, d2, fn)``, or to take its Choi matrix.  Both refuse a
result above ``MAX_KRON_ENTRIES`` entries before allocating it.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatchError, adjoint, as_matrix, as_vector, guard_entries, kron
from .superop import HSMap, _kraus
from .vectorize import Basis, BasisPair, _check_bipartite


def vec_t(a, b1: Basis) -> np.ndarray:
    """Alternative vectorization sum_j phi_j (x) (A phi_j); agrees with vec_j
    for any choice of the second-factor basis."""
    a = as_matrix(a)
    if a.shape[1] != b1.dim:
        raise DimensionMismatchError("vec_t: operator/basis dimension mismatch")
    d2 = a.shape[0]
    out = np.zeros(b1.dim * d2, dtype=complex)
    for j in range(b1.dim):
        out += np.kron(b1.u[:, j], a @ b1.u[:, j])
    return out


def phi_plus(basis: Basis) -> np.ndarray:
    """The unnormalized maximally entangled vector sum_j phi_j (x) phi_j."""
    return vec_t(np.eye(basis.dim, dtype=complex), basis)


def devec_via_slices(alpha, bases: BasisPair) -> np.ndarray:
    """Devectorize through the slice operators: sum_j |P_j alpha><phi_j|.

    Each slice is the paper's sum P_j alpha = sum_i <phi_j (x) psi_i, alpha> psi_i,
    its coefficients read off against the columns phi_j (x) psi_i of
    np.kron(phi_j, U2).
    """
    alpha = _check_bipartite(alpha, bases)
    u1, u2 = bases.b1.u, bases.b2.u
    out = np.zeros((bases.d2, bases.d1), dtype=complex)
    for j in range(bases.d1):
        coeff = np.kron(u1[:, j, None], u2).conj().T @ alpha  # <phi_j (x) psi_i, alpha>
        out += np.outer(u2 @ coeff, np.conj(u1[:, j]))
    return out


def lift_r(b: HSMap, bases: BasisPair) -> np.ndarray:
    """Lift a map on operators to the tensor-product space: vec . b . devec.

    Built by probing b on the matrix units |psi_i><phi_j| of the given bases,
    each image vectorized as vec_t, then rotating back to standard
    coordinates; in the standard bases that rotation is the identity, exactly.
    """
    d1, d2 = bases.d1, bases.d2
    if (b.d1, b.d2) != (d1, d2):
        raise DimensionMismatchError("lift_r: map and bases dimensions differ")
    n = d1 * d2
    guard_entries(n * n, "R-matrix")
    probes = np.zeros((n, n), dtype=complex)
    for j in range(d1):
        for i in range(d2):
            unit = np.outer(bases.b2.u[:, i], np.conj(bases.b1.u[:, j]))
            probes[:, j * d2 + i] = vec_t(b(unit), bases.b1)
    return probes @ adjoint(kron(bases.b1.u, bases.b2.u))


def choi_of_map(b: HSMap, basis: Basis) -> np.ndarray:
    """Choi matrix sum_{i,j} |phi_i><phi_j| (x) b(|phi_i><phi_j|).

    Defined for the square case only; the reference vector
    sum_j phi_j (x) phi_j is kept unnormalized.  Probes b on the d^2 matrix
    units, so it takes any map, not only a Kraus stack.
    """
    d = basis.dim
    if (b.d1, b.d2) != (d, d):
        raise DimensionMismatchError("choi_of_map: requires a square map matching the basis")
    n = d * d
    guard_entries(n * n, "Choi matrix")
    out = np.zeros((n, n), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.outer(basis.u[:, i], np.conj(basis.u[:, j]))
            out += kron(unit, b(unit))
    return out


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


def choi_of_vector(a, basis: Basis) -> np.ndarray:
    """(I (x) A) applied to the unnormalized maximally entangled vector;
    coincides with vec_t(A)."""
    a = as_matrix(a)
    d = basis.dim
    if a.shape != (d, d):
        raise DimensionMismatchError("choi_of_vector: requires a d x d operator")
    return kron(np.eye(d, dtype=complex), a) @ phi_plus(basis)
