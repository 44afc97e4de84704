"""Toolkit for time-frequency shift invariance of finite Gabor spaces.

Two layers: exact rational lattice algebra (`lattice`) for the constructive
reductions, and a finite-dimensional Gabor model on C^L (`gabor`,
`symplectic`, `invariance`) for the operator-theoretic characterizations,
plus Beurling-density estimators and equidistribution diagnostics
(`density`).

`errors` and `lattice` load with the package; the numeric names and
submodules load on first use (PEP 562), so the exact commands never import
numpy.
"""

__version__ = "0.1.0"

import importlib

from .errors import GaborError
from .lattice import (
    Lattice2D,
    RationalMatrix2x2,
    ReductionResult,
    SeparableLattice,
    adjoint_lattice,
    coset_decomposition,
    order_in_lattice,
    reduce_invariant_shift,
    separate,
)
from .lattice import density as lattice_density  # the submodule owns the bare name

_SUBMODULES = ("density", "gabor", "invariance", "serialize", "symplectic")
_LAZY = {  # name -> the submodule that defines it
    "FiniteGaborSystem": "gabor",
    "canonical_dual": "gabor",
    "cross_frame_operator": "gabor",
    "frame_bounds": "gabor",
    "frame_operator_direct": "gabor",
    "frame_operator_walnut": "gabor",
    "gabor_matrix": "gabor",
    "janssen_representation": "gabor",
    "periodized_gaussian": "gabor",
    "support_space": "gabor",
    "tf_shift": "gabor",
    "MetaplecticOperator": "symplectic",
    "covariance_residual": "symplectic",
    "metaplectic_from_generators": "symplectic",
    "transport_system": "symplectic",
    "CriteriaReport": "invariance",
    "InvarianceReport": "invariance",
    "criteria_engine": "invariance",
    "dft_vector_relation": "invariance",
    "gaussian_corollary_scenario": "invariance",
    "group_closure_check": "invariance",
    "membership_residual": "invariance",
    "scan_invariance": "invariance",
    "small_shift_completeness": "invariance",
}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_LAZY})


__all__ = [
    "GaborError",
    "Lattice2D",
    "RationalMatrix2x2",
    "ReductionResult",
    "SeparableLattice",
    "adjoint_lattice",
    "coset_decomposition",
    "lattice_density",
    "order_in_lattice",
    "reduce_invariant_shift",
    "separate",
    *_LAZY,
    "__version__",
]
