"""Duality toolkit between operators on Hilbert-Schmidt space and operators
on a tensor-product space: vectorization isomorphisms, superoperator
representation conversions, CP/TP verification and Schmidt analysis."""

from .linalg import (
    DimensionMismatchError,
    Tolerance,
    Verdict,
    adjoint,
    hermitian_eig,
    hs_inner,
    inner,
    is_psd,
    kron,
    operator_norm,
    psd_check,
    random_unitary,
    svd,
)
from .vectorize import (
    Basis,
    BasisPair,
    conjugate_in_basis,
    devec_jstar,
    devec_via_slices,
    partial_slice,
    partial_slice_adjoint,
    phi_plus,
    vec_j,
    vec_t,
)
from .superop import (
    HSMap,
    SuperOp,
    check_cp,
    check_tp,
    choi_map,
    choi_of_vector,
    compose,
    kraus_apply,
    kraus_to_choi,
    kraus_to_r,
    kraus_to_r_kron,
    lift_r,
    lower_s,
    m_alpha,
)
from .entangle import (
    SchmidtResult,
    is_entangled,
    product_state_devec,
    pure_state_transport,
    schmidt,
    schmidt_rank,
)

__all__ = [
    "DimensionMismatchError",
    "Tolerance",
    "Verdict",
    "adjoint",
    "hermitian_eig",
    "hs_inner",
    "inner",
    "is_psd",
    "kron",
    "operator_norm",
    "psd_check",
    "random_unitary",
    "svd",
    "Basis",
    "BasisPair",
    "conjugate_in_basis",
    "devec_jstar",
    "devec_via_slices",
    "partial_slice",
    "partial_slice_adjoint",
    "phi_plus",
    "vec_j",
    "vec_t",
    "HSMap",
    "SuperOp",
    "check_cp",
    "check_tp",
    "choi_map",
    "choi_of_vector",
    "compose",
    "kraus_apply",
    "kraus_to_choi",
    "kraus_to_r",
    "kraus_to_r_kron",
    "lift_r",
    "lower_s",
    "m_alpha",
    "SchmidtResult",
    "is_entangled",
    "product_state_devec",
    "pure_state_transport",
    "schmidt",
    "schmidt_rank",
    "BenchConfig",
    "BenchReport",
    "run_bench",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # The benchmark loads on first use, so that importing hsdual, and every
    # CLI command but bench and selftest, skips it.
    if name in ("BenchConfig", "BenchReport", "run_bench"):
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
