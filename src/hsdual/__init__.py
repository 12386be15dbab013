"""Duality toolkit between operators on Hilbert-Schmidt space and operators
on a tensor-product space: vectorization isomorphisms, superoperator
representation conversions, CP/TP verification and Schmidt analysis.

Importing the package loads no submodule (and so not numpy): each exported
name, and each of the submodules that define them, loads its module when it
is first used, and is then stored here, so later reads are plain attribute
lookups.
"""

import importlib

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        [
            "DimensionMismatchError",
            "Verdict",
            "adjoint",
            "hs_inner",
            "inner",
            "kron",
            "operator_norm",
            "psd_check",
            "random_unitary",
            "svd",
        ],
        "linalg",
    ),
    **dict.fromkeys(
        [
            "Basis",
            "BasisPair",
            "conjugate_in_basis",
            "devec_jstar",
            "partial_slice",
            "partial_slice_adjoint",
            "vec_j",
        ],
        "vectorize",
    ),
    **dict.fromkeys(
        [
            "HSMap",
            "SuperOp",
            "check_cp",
            "check_tp",
            "choi_map",
            "compose",
            "kraus_apply",
            "kraus_to_r_kron",
            "lower_s",
        ],
        "superop",
    ),
    **dict.fromkeys(
        [
            "choi_of_map",
            "choi_of_vector",
            "devec_via_slices",
            "kraus_to_r",
            "lift_r",
            "m_alpha",
            "phi_plus",
            "vec_t",
        ],
        "paper",
    ),
    **dict.fromkeys(
        [
            "SchmidtResult",
            "product_state_devec",
            "pure_state_transport",
            "schmidt",
            "schmidt_rank",
        ],
        "entangle",
    ),
    **dict.fromkeys(["BenchConfig", "BenchReport", "run_bench"], "bench"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS.values():
        # Importing a submodule binds it here.
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
